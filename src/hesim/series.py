"""Truncated power-series arithmetic, Pade conversion and effective ranges.

Every analytic segment produced by the embedding engine is represented per
variable either as a truncated power series ``x(t) = sum x[k] t^k`` or as the
rational (Pade) approximant built from those coefficients.  All operations
here are pure and the value types are immutable, so solutions can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DenominatorZero,
    NoValidRange,
    SingularPade,
    ZeroLeadingCoefficient,
)

_RANGE_FLOOR_FACTOR = 2.0 ** -20  # smallest probed fraction of t_max


def _as_coeffs(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficient array must be non-empty and 1-D")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError("coefficients must be numeric")
    arr = arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients x[0..N] of a power series in the embedding variable."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t):
        """Horner evaluation; exact constant term at t=0."""
        c = self.coeffs
        out = np.full_like(np.asarray(t, dtype=float), c[-1], dtype=c.dtype)
        for k in range(len(c) - 2, -1, -1):
            out = out * t + c[k]
        return out if np.ndim(t) else out[()]


@dataclass(frozen=True, eq=False)
class PadeApproximant:
    """Rational approximant num/den with the normalization den[0] = 1."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = _as_coeffs(self.num)
        den = _as_coeffs(self.den)
        if abs(den[0]) < 1e-300:
            raise ValueError("Pade denominator must have nonzero constant term")
        if den[0] != 1.0:
            num = _as_coeffs(num / den[0])
            den = _as_coeffs(den / den[0])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def eval(self, t):
        n = TruncatedSeries(self.num).eval(t)
        d = TruncatedSeries(self.den).eval(t)
        if np.min(np.abs(d)) < 1e-12:
            raise DenominatorZero(f"Pade denominator ~0 at t={t}")
        return n / d


def series_mul(a: TruncatedSeries, b: TruncatedSeries, n: int) -> TruncatedSeries:
    """Convolution product truncated at order n (n <= a.order + b.order)."""
    if n > a.order + b.order:
        raise ValueError("requested order exceeds available information")
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncatedSeries(full[: n + 1])


def series_reciprocal(a: TruncatedSeries, n: int, tol: float = 1e-9) -> TruncatedSeries:
    """Order-by-order solve of a * result = 1.

    Raises ZeroLeadingCoefficient when |a[0]| < tol, which in network terms
    signals a collapsed (zero-voltage) bus.
    """
    a0 = a.coeffs[0]
    if abs(a0) < tol:
        raise ZeroLeadingCoefficient(f"|a[0]|={abs(a0):.3e} below {tol:.1e}")
    out = np.zeros(n + 1, dtype=np.result_type(a.coeffs, float))
    out[0] = 1.0 / a0
    ac = a.coeffs
    for k in range(1, n + 1):
        jmax = min(k, len(ac) - 1)
        acc = 0.0
        for j in range(1, jmax + 1):
            acc = acc + ac[j] * out[k - j]
        out[k] = -acc / a0
    return TruncatedSeries(out)


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


def pade_of_row(num, den) -> PadeApproximant:
    """One row of a Pade table as an approximant, in canonical form.

    Trailing zero denominator coefficients are dropped; a denominator that
    reduces to [1] means the input was (numerically) a polynomial, so the
    numerator's trailing zeros go too.
    """
    den = np.trim_zeros(np.asarray(den), "b")
    num = np.asarray(num)
    if len(den) == 1:
        num = num[: max(1, len(np.trim_zeros(num, "b")))]
    return PadeApproximant(num, den)


def pade_from_series(a: TruncatedSeries, n_num: int, n_den: int) -> PadeApproximant:
    """Build the (n_num, n_den) Pade approximant of a truncated series.

    A one-row call of the batched kernel. The result is accepted only if
    its Taylor re-expansion reproduces the input through order
    n_num + n_den; otherwise SingularPade is raised and the caller is
    expected to retry at lower denominator order.
    """
    if n_num < 0 or n_den < 0:
        raise ValueError("orders must be nonnegative")
    if n_num + n_den > a.order:
        raise ValueError("n_num + n_den must not exceed the series order")
    nums, dens, ok = _pade_level(a.coeffs[None, :], n_num, n_den)
    if not ok[0]:
        raise SingularPade(f"({n_num},{n_den}) approximant fails re-expansion check")
    return pade_of_row(nums[0], dens[0])


def pade_with_fallback(a: TruncatedSeries, n_num: int, n_den: int) -> PadeApproximant:
    """SingularPade fallback ladder: lower the denominator order until it
    works; at order 0 the 'Pade' equals the truncated series."""
    nums, dens = batch_pade(a.coeffs[None, :], n_num, n_den)
    return pade_of_row(nums[0], dens[0])


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


def chebyshev_probes(t_end, n: int = 8) -> np.ndarray:
    """n Chebyshev-spaced probe points inside (0, t_end), then t_end itself,
    so a range certificate looks at the end of its range too; a column of
    ranges t_end gives one row of probes per range."""
    i = np.arange(1, n + 1)
    x = np.append(np.cos((2 * i - 1) * np.pi / (2 * n)), 1.0)  # in (-1, 1]
    return t_end * (1.0 + x) / 2.0


def shrink_refine_range(residual_at, tol_res: float, t_max: float) -> float:
    """Halving range search, the fallback of ``solve_segment``'s one-call
    ladder of ranges.

    Geometric shrink from t_max by factor 0.5 until the residual passes,
    then one refinement pass by factor 1.25 capped at the last failing
    value. ``residual_at(T)`` returns the max-norm residual over the probe
    points of (0, T].
    """
    if tol_res <= 0:
        raise ValueError("tol_res must be positive")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    t = t_max
    last_fail = None
    floor = t_max * _RANGE_FLOOR_FACTOR
    while not residual_at(t) <= tol_res:  # a NaN residual fails too
        last_fail = t
        t *= 0.5
        if t < floor:
            raise NoValidRange(
                f"residual above {tol_res:.2e} even at t={t:.3e}"
            )
    if last_fail is None:
        return t_max
    cand = min(t * 1.25, last_fail, t_max)
    if cand > t and residual_at(cand) <= tol_res:
        return cand
    return t
