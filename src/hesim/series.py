"""Batched Pade conversion, effective ranges and a bracketed root finder.

Every analytic segment produced by the embedding engine is a coefficient
table with one row per variable: its truncated power series
``x(t) = sum x[k] t^k``, and the rational (Pade) approximant built from
those coefficients as a numerator and a denominator table.  The kernels here
take and return plain arrays, whole tables at a time; there are no value
types.  All of them are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import NoValidRange

_PADE_TOL = 1e-8  # re-expansion tolerance, relative to the row scale


def _solve_stack(T: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every system T[i] x = rhs[i] of a stack with one batched LU.

    An exactly singular system (as for the Toeplitz matrix of a polynomial)
    is split off by halving the stack and takes the minimum-norm solution;
    the others are solved exactly as if it were not in the stack.
    """
    try:
        return np.linalg.solve(T, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(T) == 1:
            return (np.linalg.pinv(T) @ rhs[..., None])[..., 0]
    half = len(T) // 2
    return np.concatenate([_solve_stack(T[:half], rhs[:half]),
                           _solve_stack(T[half:], rhs[half:])])


def _pade_level(C: np.ndarray, n_num: int, m: int):
    """(n_num, m) Pade of every row of C: (nums, dens, accepted).

    Rows whose tail sits at float noise are constants and their own
    approximant; the others' Toeplitz systems are gathered with one index
    array and solved as one stack. A row is accepted when its re-expansion
    r_k = num_k - sum_{j>=1} den_j r_{k-j} reproduces C[:, :n_num+m+1] within
    1e-8 of the row scale, NaN and inf never passing. The float recurrence
    can hide its own rounding (num_k and den_j c_{k-j} share products, so a
    den of 1e200 re-expands "exactly"), so the bound on each step's
    rounding, propagated through the Taylor coefficients h of 1/den, is
    added to the measured error.
    """
    rows = C.shape[0]
    L = n_num
    scale = np.maximum(1.0, np.max(np.abs(C), axis=1))
    const = np.max(np.abs(C[:, 1:]), axis=1, initial=0.0) <= 1e-14 * scale
    dens = np.zeros((rows, m + 1), dtype=C.dtype)
    dens[:, 0] = 1.0
    with np.errstate(all="ignore"):  # non-finite rows are rejected below
        if m:
            # T[:, i, j] = c[L + i - j], zero for negative indices
            gather = L + m + np.arange(m)[:, None] - np.arange(m)
            padded = np.concatenate([np.zeros((rows, m), dtype=C.dtype), C], axis=1)
            solve = ~const
            dens[solve, 1:] = _solve_stack(padded[solve][:, gather],
                                           -C[solve, L + 1: L + m + 1])
        nums = np.zeros((rows, L + 1), dtype=C.dtype)
        for j in range(min(m, L) + 1):
            nums[:, j:] += dens[:, j, None] * C[:, : L + 1 - j]
        nums[const] = 0.0
        nums[const, 0] = C[const, 0]
        gamma = (m + 2) * np.finfo(float).eps
        n = L + m + 1
        r = np.zeros((rows, n), dtype=C.dtype)
        r[:, : L + 1] = nums
        h = np.zeros((rows, n), dtype=C.dtype)
        h[:, 0] = 1.0
        rho = np.zeros((rows, n))
        for k in range(1, n):
            j = min(k, m)
            terms = dens[:, 1: j + 1] * r[:, k - j: k][:, ::-1]
            r[:, k] -= terms.sum(axis=1)
            h[:, k] = -np.einsum("ij,ij->i", dens[:, 1: j + 1], h[:, k - j: k][:, ::-1])
            rho[:, k] = gamma * (np.abs(r[:, k]) + np.abs(terms).sum(axis=1))
        # r - (exact re-expansion) = h * (rounding), to first order
        lag = np.arange(n)[:, None] - np.arange(n)
        abs_h = np.concatenate([np.abs(h), np.zeros((rows, 1))], axis=1)
        drift = np.einsum("rki,ri->rk", abs_h[:, np.where(lag >= 0, lag, n)], rho)
        err = np.max(np.abs(r - C[:, :n]) + drift, axis=1)
    ok = np.isfinite(err) & (err <= _PADE_TOL * scale)
    return nums, dens, ok | const


def batch_pade(C, n_num: int, n_den: int):
    """(n_num, n_den) Pade approximant of every row of a coefficient table.

    Rows that fail the re-expansion check go down the fallback ladder in
    batch, one denominator order m = n_den, ..., 1 at a time; a row still
    rejected at m = 0 (or a table too short for the orders) keeps its full
    series as the numerator. Returns zero-padded arrays
    nums (rows, max(n_num+1, width)) and dens (rows, n_den+1).
    """
    C = np.asarray(C)
    C = C.astype(np.result_type(C, float), copy=False)
    rows, width = C.shape
    nums = np.zeros((rows, max(n_num + 1, width)), dtype=C.dtype)
    nums[:, :width] = C
    dens = np.zeros((rows, n_den + 1), dtype=C.dtype)
    dens[:, 0] = 1.0
    if width < n_num + n_den + 1:
        return nums, dens
    todo = np.arange(rows)
    for m in range(n_den, 0, -1):
        if not len(todo):
            break
        num, den, ok = _pade_level(C[todo], n_num, m)
        done = todo[ok]
        nums[done] = 0.0
        nums[done, : n_num + 1] = num[ok]
        dens[done, : m + 1] = den[ok]
        todo = todo[~ok]
    return nums, dens


def bracketed_root(f, lo: float, hi: float, xtol: float) -> float:
    """A point within xtol of a sign change of f in [lo, hi].

    The ITP method (Oliveira & Takahashi, ACM TOMS 2020): regula falsi,
    truncated and projected so that it never needs more evaluations than
    bisection plus one, and superlinear on smooth f. Raises ValueError when
    f has one sign at both ends or is not finite where evaluated.
    """
    y_lo, y_hi = f(lo), f(hi)
    if not (np.isfinite(y_lo) and np.isfinite(y_hi)) or y_lo * y_hi > 0:
        raise ValueError("f must be finite with different signs at lo and hi")
    sign = 1.0 if y_hi > 0 or y_lo < 0 else -1.0  # sign * f rises from lo to hi
    n_max = int(np.ceil(np.log2(max((hi - lo) / (2.0 * xtol), 1.0)))) + 1
    k1 = 0.2 / (hi - lo)
    for j in range(n_max + 1):
        width, mid = hi - lo, 0.5 * (lo + hi)
        if y_lo * y_hi == 0 or width <= 2.0 * xtol or not lo < mid < hi:
            break
        x_f = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
        toward, delta = np.sign(mid - x_f), k1 * width * width
        x_t = x_f + toward * delta if delta <= abs(mid - x_f) else mid
        r = xtol * 2.0 ** (n_max - j) - 0.5 * width
        x = x_t if abs(x_t - mid) <= r else mid - toward * r
        y = f(x)
        if not np.isfinite(y):
            raise ValueError(f"f is not finite at {x!r}")
        if sign * y > 0:
            hi, y_hi = x, y
        else:
            lo, y_lo = x, y
    return float(lo if y_lo == 0 else hi if y_hi == 0 else 0.5 * (lo + hi))


def diagonal_orders(order: int) -> tuple[int, int]:
    """Default Pade orders: diagonal with n_num = n_den = floor(N/2)."""
    half = order // 2
    return half, half


_N_PROBE = 8  # Chebyshev probes per range, before its end point
_RANGES_PER_CALL = 17
_LAST_RANGE = 160  # t_max * 2^(-160/8) = t_max * 2^-20, the smallest range


def _chebyshev_probes(t_end) -> np.ndarray:
    """8 Chebyshev-spaced probe points inside (0, t_end), then t_end itself,
    so a range certificate looks at the end of its range too; a column of
    ranges t_end gives one row of probes per range."""
    i = np.arange(1, _N_PROBE + 1)
    x = np.append(np.cos((2 * i - 1) * np.pi / (2 * _N_PROBE)), 1.0)
    return t_end * (1.0 + x) / 2.0  # x in (-1, 1]


def shrink_refine_range(residual_at, tol_res: float, t_max: float) -> float:
    """The largest range t_max * 2^(-j/8), j = 0..160, whose certificate holds.

    ``residual_at(ts)`` returns the max-norm residual at each probe time of
    the 1-D ``ts``.  Each range is probed at ``_chebyshev_probes``, 17 ranges
    per call, largest first.  A range below the first failing probe time of
    every call so far (NaN and inf fail) holds only passing probes, its own
    and those of every larger range; the largest such range is returned.
    Raises NoValidRange when not even t_max * 2^-20 qualifies.
    """
    if tol_res <= 0:
        raise ValueError("tol_res must be positive")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    first_bad = np.inf
    for j0 in range(0, _LAST_RANGE + 1, _RANGES_PER_CALL):
        j = np.arange(j0, min(j0 + _RANGES_PER_CALL, _LAST_RANGE + 1))
        ranges = t_max * 2.0 ** (-j / 8)
        tp = _chebyshev_probes(ranges[:, None]).ravel()
        res = residual_at(tp)
        first_bad = min(first_bad, np.min(tp[~(res <= tol_res)],
                                          initial=np.inf))
        if ranges[-1] < first_bad:
            return float(ranges[np.argmax(ranges < first_bad)])
    raise NoValidRange(f"residual above {tol_res:.2e} even at t={ranges[-1]:.3e}")
