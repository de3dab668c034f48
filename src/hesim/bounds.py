"""Interval-Horner polynomial bounds and steady-state rate criteria.

These are the decision tools that authorize switching a dynamic segment to
the quasi-steady-state model: bound the average rate of change of every
monitored variable over the segment's effective range, once from the power
series and once from the Pade coefficients, and declare the variable steady
when either bound falls below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import EmptyVariableSet
from .series import PadeApproximant, TruncatedSeries, batch_pade, pade_of_row

PS = "PS"
PA = "PA"
PA_UNDEFINED = "PA_undefined"


def poly_bounds(coeffs, T: float) -> tuple[float, float]:
    """Bounds of ``sum x[k] t^k`` for t in [0, T], by interval Horner.

    One backward pass over the coefficients: the running upper bound is
    restarted at x_k whenever it is negative (multiplying by t in [0, T]
    can only pull it up to zero), otherwise multiplied by T and shifted;
    the lower bound is handled symmetrically. O(N), and the returned
    interval always contains the polynomial's range on [0, T].
    """
    if T < 0:
        raise ValueError("interval end must be nonnegative")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    ub = lb = c[-1]
    for k in range(len(c) - 2, -1, -1):
        xk = c[k]
        if ub < 0:
            ub = xk
        else:
            ub = ub * T + xk
        if lb > 0:
            lb = xk
        else:
            lb = lb * T + xk
    return float(lb), float(ub)


@dataclass(frozen=True)
class RateBound:
    """Signed bounds on an average rate of change, and their max magnitude."""

    lower: float
    upper: float
    delta: float
    source: str

    def __post_init__(self):
        if self.source not in (PS, PA, PA_UNDEFINED):
            raise ValueError(f"unknown source {self.source!r}")


def ps_rate_bound(series: TruncatedSeries, t_e: float) -> RateBound:
    """Bound (x(t) - x(0)) / t = sum_{k>=1} x[k] t^(k-1) over [0, t_e]."""
    if series.order < 1:
        return RateBound(0.0, 0.0, 0.0, PS)
    if t_e <= 0:
        raise ValueError("t_e must be positive")
    lb, ub = poly_bounds(series.coeffs[1:].real, t_e)
    return RateBound(lb, ub, max(abs(lb), abs(ub)), PS)


def pa_rate_bound(pade: PadeApproximant, t_e: float) -> RateBound:
    """Rate-of-change bound from Pade coefficients.

    With c = num[0] the approximant is c + t * (sum_{k>=1} ñ[k] t^(k-1)) / den(t)
    where ñ[k] = num[k] - c*den[k] (numerator and denominator padded to equal
    length first). Both polynomials are bounded by interval Horner; when the
    denominator's lower bound is not strictly positive the quotient bound is
    not defined and the PS criterion alone must decide. Each signed
    numerator bound is divided by the denominator end that keeps it a bound
    (the smallest for a positive value, the largest for a negative one).
    """
    if t_e <= 0:
        raise ValueError("t_e must be positive")
    n = max(len(pade.num), len(pade.den))
    num = np.zeros(n)
    den = np.zeros(n)
    num[: len(pade.num)] = pade.num.real
    den[: len(pade.den)] = pade.den.real
    c = num[0]
    tilde = num - c * den
    den_lb, _ = poly_bounds(den, t_e)
    if den_lb <= 0:
        return RateBound(np.nan, np.nan, np.nan, PA_UNDEFINED)
    if n < 2:
        return RateBound(0.0, 0.0, 0.0, PA)
    na_lb, na_ub = poly_bounds(tilde[1:], t_e)
    den_ub = poly_bounds(den, t_e)[1]
    lo = na_lb / (den_lb if na_lb < 0 else den_ub)
    hi = na_ub / (den_lb if na_ub > 0 else den_ub)
    return RateBound(lo, hi, max(abs(na_lb), abs(na_ub)) / den_lb, PA)


@dataclass(frozen=True)
class VariableVerdict:
    delta_ps: float
    delta_pa: Optional[float]  # None when the PA bound is undefined
    ps_ok: bool
    pa_ok: bool
    is_steady: bool


@dataclass(frozen=True)
class SteadyStateVerdict:
    per_variable: dict[str, VariableVerdict]
    system_steady: bool
    threshold: float


def verdict_from_deltas(delta_ps: float, delta_pa: Optional[float],
                        eps_t: float) -> VariableVerdict:
    """Steady iff either criterion beats eps_t; an undefined PA never blocks."""
    ps_ok = delta_ps < eps_t
    pa_ok = delta_pa is not None and delta_pa < eps_t
    return VariableVerdict(delta_ps, delta_pa, ps_ok, pa_ok, ps_ok or pa_ok)


def steady_state_check(
    variables: Mapping[str, tuple[TruncatedSeries, Optional[PadeApproximant]]],
    t_e: float,
    eps_t: float,
    angle_reference: Optional[str] = None,
    angle_vars: tuple[str, ...] = (),
) -> SteadyStateVerdict:
    """Per-variable and system steady-state verdict over [0, t_e].

    ``variables`` maps names to (series, pade) pairs; the pade entry may be
    None (PS criterion alone then decides).  Rotor angles drift together with
    the center of inertia even in steady state, so when ``angle_reference``
    is given every name in ``angle_vars`` is replaced by its difference
    against the reference variable's series before bounding.
    """
    if not variables:
        raise EmptyVariableSet("no variables to check")
    if angle_reference is not None and angle_reference not in variables:
        raise KeyError(f"angle reference {angle_reference!r} not in variables")

    per: dict[str, VariableVerdict] = {}
    variables = dict(variables)
    angles = [n for n in variables if n in angle_vars]
    if angle_reference is not None and angles:
        # relative angles, zero-padded to one order, and their Pade in one call
        ref = variables[angle_reference][0].coeffs.real
        width = max([len(ref)] + [len(variables[n][0].coeffs) for n in angles])
        diffs = np.zeros((len(angles), width))
        diffs[:, : len(ref)] -= ref
        for i, name in enumerate(angles):
            a = variables[name][0].coeffs.real
            diffs[i, : len(a)] += a
        half = (width - 1) // 2
        nums, dens = batch_pade(diffs, half, half)
        for i, name in enumerate(angles):
            variables[name] = (TruncatedSeries(diffs[i]),
                               pade_of_row(nums[i], dens[i]))

    for name, (series, pade) in variables.items():
        delta_ps = ps_rate_bound(series, t_e).delta
        delta_pa = None
        if pade is not None:
            rb = pa_rate_bound(pade, t_e)
            if rb.source == PA:
                delta_pa = rb.delta
        per[name] = verdict_from_deltas(delta_ps, delta_pa, eps_t)

    return SteadyStateVerdict(per, all(v.is_steady for v in per.values()), eps_t)
