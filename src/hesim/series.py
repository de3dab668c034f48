"""Batched Pade conversion, effective ranges and a batched root finder.

Every analytic segment produced by the embedding engine is a coefficient
table with one row per variable: its truncated power series
``x(t) = sum x[k] t^k``, and the rational (Pade) approximant built from
those coefficients as a numerator and a denominator table.  The kernels here
take and return plain arrays, whole tables at a time; there are no value
types.  All of them are pure.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NoValidRange

_PADE_TOL = 1e-8  # re-expansion tolerance, relative to the row scale
_EPS = np.finfo(float).eps


def _solve_stack(T: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every system T[i] x = rhs[i] of a stack with one batched LU.

    An exactly singular system (as for the Toeplitz matrix of a polynomial)
    is split off by halving the stack and takes the minimum-norm solution,
    NaN and inf read as 0; the rest solve exactly as they would without it.
    """
    try:
        return np.linalg.solve(T, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(T) == 1:
            T = np.where(np.isfinite(T), T, 0.0)
            return (np.linalg.pinv(T) @ rhs[..., None])[..., 0]
    half = len(T) // 2
    return np.concatenate([_solve_stack(T[:half], rhs[:half]),
                           _solve_stack(T[half:], rhs[half:])])


@functools.lru_cache(maxsize=None)
def _level_indices(L: int, m: int):
    """Gather indices of an (L, m) level into [0] * (m + 1) + c: T[i, j] =
    c[L + i - j] and c[k - j], j = -1..m (-1 a zero); into h + [0]: h[k - i]."""
    n = L + m + 1
    lag = np.arange(n)[:, None] - np.arange(n)
    band = m + 1 + np.arange(n) - np.arange(-1, m + 1)[:, None]
    band[0] = 0
    return L + m + 1 + lag[:m, :m], band, np.where(lag >= 0, lag, n)


def _pade_level(C: np.ndarray, L: int, m: int):
    """(L, m) Pade of every row of C: (nums, dens, accepted).

    Rows whose tail sits at float noise are constants and their own
    approximant; the others' Toeplitz systems are gathered with one index
    array and solved as one stack. A row is accepted when the exact
    re-expansion r of num/den reproduces C[:, :n], n = L + m + 1, within
    1e-8 of the row scale, NaN and inf never passing: with D the Toeplitz
    matrix of den, r - c = -D^-1 e, e = den * c - num (zero through t^L), so
    the certificate is |h * e|, h the Taylor coefficients of 1/den, plus the
    rounding of e and of that product carried through |h| to first order
    (num_k and den_j c_(k-j) can round alike: a den of 1e200 would otherwise
    re-expand "exactly").  No row depends on the other rows of the stack.
    """
    rows, n = C.shape[0], L + m + 1
    toep, band, lag = _level_indices(L, m)
    size = np.abs(C)
    scale = np.maximum(1.0, size.max(axis=1))
    finite = np.isfinite(scale)  # a row holding NaN or inf never passes
    const = finite & (size[:, 1:].max(axis=1, initial=0.0) <= 1e-14 * scale)
    dens = np.zeros((rows, n + 2), dtype=C.dtype)  # [0, den, 0, ...]
    dens[:, 1] = 1.0
    padded = np.zeros((rows, m + 1 + n), dtype=C.dtype)
    padded[:, m + 1:] = C[:, :n]
    with np.errstate(all="ignore"):  # non-finite rows are rejected below
        solve = ~const
        dens[solve, 2: m + 2] = _solve_stack(padded[solve][:, toep],
                                             -C[solve, L + 1: L + m + 1])
        # den_j c_(k-j) summed over j in order, as num_k = sum from 0.0
        terms = padded[:, band] * dens[:, : m + 2, None]
        nums = terms[:, :, : L + 1].sum(axis=1)
        e = terms[:, :, L + 1:].sum(axis=1)
        nums[const] = 0.0
        nums[const, 0] = C[const, 0]
        dens = dens[:, 1:]
        # 1/den by block doubling: with h exact below t^k, den * h - 1 is
        # zero below t^k, and 1/den = h - h * (den * h - 1) below t^(2k)
        h = np.zeros_like(dens)
        h[:, 0] = 1.0
        for k in (1 << i for i in range((n - 1).bit_length())):
            hi = min(2 * k, n)
            q = dens[:, lag[k:hi, :k]] @ h[:, :k, None]
            h[:, k:hi] = -(h[:, lag[k:hi, k:hi]] @ q)[..., 0]
        # rounding of each e_k (num_0 = c_0 exactly), then of h * e
        rho = (m + 2) * _EPS * np.abs(terms).sum(axis=1)
        rho[:, 0] = 0.0
        rho[:, L + 1:] += (n + 1) * _EPS * np.abs(e)
        err = (np.abs(h)[:, lag] @ rho[..., None])[..., 0]
        err[:, L + 1:] += np.abs(h[:, lag[:m, :m]] @ e[..., None])[..., 0]
        err = err.max(axis=1)
    return nums, dens[:, : m + 1], const | finite & (err <= _PADE_TOL * scale)


def batch_pade(C, n_num: int, n_den):
    """(n_num, n_den) Pade approximant of every row of a coefficient table.

    ``n_den`` is one denominator order for every row, or one per row.
    Rows that fail the re-expansion check go down the fallback ladder in
    batch, one denominator order m = n_den, ..., 1 at a time; a row still
    rejected at m = 0 (or too short for its orders) keeps its full series
    as the numerator. Returns zero-padded arrays
    nums (rows, max(n_num+1, width)) and dens (rows, max(n_den)+1).
    """
    C = np.asarray(C)
    C = C.astype(np.result_type(C, float), copy=False)
    rows, width = C.shape
    top = int(np.max(n_den, initial=0))
    n_den = np.broadcast_to(n_den, rows)
    nums = np.zeros((rows, max(n_num + 1, width)), dtype=C.dtype)
    nums[:, :width] = C
    dens = np.zeros((rows, top + 1), dtype=C.dtype)
    dens[:, 0] = 1.0
    todo = n_num + n_den + 1 <= width
    for m in range(top, 0, -1):
        if not todo.any():
            break
        level = np.flatnonzero(todo & (n_den >= m))
        if not len(level):
            continue
        num, den, ok = _pade_level(C[level], n_num, m)
        done = level[ok]
        nums[done] = 0.0
        nums[done, : n_num + 1] = num[ok]
        dens[done, : m + 1] = den[ok]
        todo[done] = False
    return nums, dens


def bracketed_roots(f, lo, hi, xtol: float, y_ends=None) -> np.ndarray:
    """A point within xtol of a sign change of f in each bracket [lo, hi].

    The ITP method (Oliveira & Takahashi, ACM TOMS 2020), one loop for all
    brackets, each leaving it where it alone would stop: regula falsi,
    truncated and projected so that it never needs more evaluations than
    bisection plus one, and superlinear on smooth f.  ``f(i, x)`` gives the
    function of each bracket index in i at its point in x; ``y_ends`` (f at
    lo, f at hi) spares those two calls.  Raises ValueError when f has one
    sign at both ends of a bracket or is not finite where evaluated.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if y_ends is None:
        y_ends = [f(np.arange(len(lo)), x) for x in (lo, hi)]
    y_lo, y_hi = (np.array(y, dtype=float) for y in y_ends)
    ends = np.sign(y_lo) * np.sign(y_hi)  # y_lo * y_hi can underflow to 0
    if not (np.isfinite([y_lo, y_hi]).all() and (ends <= 0).all()):
        raise ValueError("f must be finite with different signs at lo and hi")
    sign = np.where((y_hi > 0) | (y_lo < 0), 1.0, -1.0)  # sign*f rises
    width0 = hi - lo
    n_max = np.ceil(np.log2(np.maximum(width0 / (2.0 * xtol), 1.0))
                    ).astype(int) + 1
    for j in range(int(n_max.max(initial=0)) + 1):
        width, mid = hi - lo, 0.5 * (lo + hi)
        i = np.flatnonzero((j <= n_max) & (y_lo != 0) & (y_hi != 0)
                           & (width > 2.0 * xtol) & (lo < mid) & (mid < hi))
        if not len(i):
            break
        a, b, ya, yb, w, m = lo[i], hi[i], y_lo[i], y_hi[i], width[i], mid[i]
        x_f = (yb * a - ya * b) / (yb - ya)
        toward, delta = np.sign(m - x_f), 0.2 / width0[i] * w * w
        x_t = np.where(delta <= np.abs(m - x_f), x_f + toward * delta, m)
        r = xtol * 2.0 ** (n_max[i] - j) - 0.5 * w
        x = np.where(np.abs(x_t - m) <= r, x_t, m - toward * r)
        y = np.asarray(f(i, x), dtype=float)
        if not np.isfinite(y).all():
            raise ValueError(f"f is not finite at {x[~np.isfinite(y)]!r}")
        up = sign[i] * y > 0
        hi[i[up]], y_hi[i[up]] = x[up], y[up]
        lo[i[~up]], y_lo[i[~up]] = x[~up], y[~up]
    return np.where(y_lo == 0, lo, np.where(y_hi == 0, hi, 0.5 * (lo + hi)))


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
    if not tol_res > 0:
        raise ValueError("tol_res must be positive")
    if not t_max > 0:
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
