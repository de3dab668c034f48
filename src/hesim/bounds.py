"""Interval-Horner polynomial bounds and steady-state rate criteria.

These are the decision tools that authorize switching a dynamic segment to
the quasi-steady-state model: bound the average rate of change of every
monitored variable over the segment's effective range, once from the power
series and once from the Pade coefficients, and declare the variable steady
when either bound falls below the threshold.  The criteria work on a table
with one row per monitored variable, all rows in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVariableSet


def poly_bounds(coeffs, T: float):
    """Bounds of ``sum x[k] t^k`` for t in [0, T], by interval Horner.

    One backward pass over the last axis, u <- max(u, 0) * T + x_k: the
    running upper bound u restarts at x_k where it is negative (multiplying
    by t in [0, T] can only pull it up to zero), and the lower bound is
    minus the upper bound of -x, both in one pass over the stacked [x; -x].
    O(N); the interval always contains the polynomial's range on [0, T].
    A 1-D input gives two floats, a 2-D input (lower, upper) row arrays.
    """
    if not 0 <= T < np.inf:
        raise ValueError("interval end must be finite and nonnegative")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise ValueError("coefficients must be a non-empty 1-D or 2-D array")
    u, *rest = np.moveaxis(np.stack([c, -c]), -1, 0)[::-1]  # u = [ub, -lb]
    with np.errstate(all="ignore"):  # an overflow reads inf, inf * 0 NaN
        for xk in rest:
            np.maximum(u, 0.0, out=u)
            u *= T
            u += xk
    return -u[1], u[0]  # numpy floats for a 1-D input


@dataclass(frozen=True)
class SteadyStateVerdict:
    """Rate bounds and steady flags of every monitored row of a segment."""

    names: list
    delta_ps: np.ndarray
    delta_pa: np.ndarray    # NaN where the PA bound is undefined
    steady: np.ndarray

    @property
    def system_steady(self) -> bool:
        return bool(self.steady.all())


def verdict_from_deltas(delta_ps, delta_pa, eps_t: float):
    """(ps_ok, pa_ok), elementwise: a criterion holds where its delta is
    below eps_t.  A NaN delta (undefined) never holds; a row is steady
    where either criterion holds."""
    return np.less(delta_ps, eps_t), np.less(delta_pa, eps_t)


def steady_state_check(C, nums, dens, t_e: float, eps_t: float):
    """Per-row rate bounds over [0, t_e]: (delta_ps, delta_pa, steady).

    Row i is one variable: its series C[i] and its Pade approximant
    nums[i] / dens[i] (den[0] = 1), zero-padded to one width.  The PS bound
    is the interval-Horner magnitude of (x(t) - x(0)) / t =
    sum_{k>=1} x[k] t^(k-1).  With c = num[0] the approximant is
    c + t * (sum_{k>=1} ñ[k] t^(k-1)) / den(t), ñ = num - c*den; the PA
    bound is the magnitude bound of that numerator over the denominator's
    lower bound, and NaN (undefined, the PS criterion alone decides) where
    that lower bound is not strictly positive.  A row with a non-finite
    coefficient has both bounds NaN, so it never reads steady.
    """
    if len(C) == 0:
        raise EmptyVariableSet("no variables to check")
    if not t_e > 0:
        raise ValueError("t_e must be positive")
    # one width for all three, with at least one zero column after den
    width = max(np.shape(C)[1], np.shape(nums)[1], np.shape(dens)[1] + 1)
    table = np.zeros((3, len(C), width))
    for part, a in zip(table, (C, nums, dens)):
        part[:, : np.shape(a)[1]] = a
    C, num, den = table
    n = len(C)
    finite = np.isfinite(table).all(axis=(0, 2))
    with np.errstate(all="ignore"):  # the NaN-masked rows may overflow
        # one pass over the PS rows, the PA numerator rows and den
        lb, ub = poly_bounds(np.vstack([C[:, 1:],
                                        (num - num[:, :1] * den)[:, 1:],
                                        den[:, :-1]]), t_e)
        mag = np.maximum(np.abs(lb), np.abs(ub))
        den_lb = lb[2 * n:]
        delta_ps = np.where(finite, mag[:n], np.nan)
        delta_pa = np.where(finite & (den_lb > 0), mag[n: 2 * n] / den_lb,
                            np.nan)
    ps_ok, pa_ok = verdict_from_deltas(delta_ps, delta_pa, eps_t)
    return delta_ps, delta_pa, ps_ok | pa_ok
