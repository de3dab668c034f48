"""Holomorphic-embedding solver core.

A simulation segment (time embedding) or a switching problem (alpha
embedding) is described as a system of *polynomial* equations over a set of
unknown series: algebraic equations ``g = 0`` and differential relations
``dx/dt = f`` whose right-hand sides are sums of terms.  Every term is
``coeff * x[a] * x[b]`` over the rows of one table: the unknowns, then the
known input series, then a constant-one row (series 1, 0, 0, ...).  A term
with fewer than two factors reads the one row in their place, so a constant
is ``coeff * 1 * 1`` and a linear term ``coeff * x[a] * 1``.  A float
factor is a constant: it multiplies the coefficient at build time, so a
quantity frozen across a switch instant is passed where a time embedding
passes its unknown, and the equation is written once.  Each block
(``"alg"`` and ``"rhs"``) is one (rows, coeffs, a, b) table and each kernel
over it has one path.  Substituting series and matching powers of the
embedding variable turns the system into one explicit update per state plus
one linear solve per order, with a constant matrix: the order-0 Jacobian of
the algebraic block, inverted once per segment (dense; the blocks have at
most a few dozen rows) and reused for every order.

Anything quadratic-and-above in the physics (products of voltages, rotor
trigonometry, motor slip couplings) is expressed at build time with at most
bilinear terms by introducing auxiliary unknowns, so this module never needs
higher arities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnchorInconsistent,
    NoConvergenceAtAlpha1,
    NoValidRange,
    SingularJacobian,
)
from .series import batch_pade, diagonal_orders, shrink_refine_range

# pade_with_fallback is not called here; benchmarks/tracing.py counts the
# calls made through this name
pade_with_fallback = batch_pade

ALG = "alg"
STATE = "state"

# switching-problem kinds, named in an alpha continuation's failure
ALPHA_POWERFLOW = "ALPHA_POWERFLOW"
ALPHA_ADD = "ALPHA_ADD"
ALPHA_CUT = "ALPHA_CUT"
ALPHA_PARAM = "ALPHA_PARAM"

_ANCHOR_TOL = 1e-6     # largest algebraic residual accepted at an anchor
_MIN_STAGE = 2.0 ** -8  # shortest stage short of 1, per alpha reached

_ABSENT = -1  # encoding for a missing factor; compiles to the one row
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


class SystemBuilder:
    """Collects unknowns, known inputs and polynomial terms, then compiles.

    A term's factors are slots (int) of unknowns or known inputs, None
    (dropped), or floats: constants that multiply the coefficient."""

    def __init__(self):
        self.var_names: list[str] = []
        self.var_kinds: list[str] = []
        self.known_names: list[str] = []
        self.eq_names: list[str] = []
        # raw terms: (is_state_row, row, coeff, enc1, enc2)
        self._terms: list[tuple[bool, int, float, int, int]] = []
        self._state_row_of_var: dict[int, int] = {}

    # -- registration --------------------------------------------------------

    def alg(self, name: str) -> int:
        self.var_names.append(name)
        self.var_kinds.append(ALG)
        return len(self.var_names) - 1

    def state(self, name: str) -> int:
        self.var_names.append(name)
        self.var_kinds.append(STATE)
        slot = len(self.var_names) - 1
        self._state_row_of_var[slot] = len(self._state_row_of_var)
        return slot

    def known(self, name: str) -> int:
        """Known input series; the returned id is usable as a term factor."""
        self.known_names.append(name)
        return -(len(self.known_names) + 1)  # -2, -3, ... (-1 means absent)

    def alg_eq(self, name: str) -> int:
        self.eq_names.append(name)
        return len(self.eq_names) - 1

    def term(self, eq: int, coeff: float, *factors) -> None:
        """Add coeff times the factors (at most two slots; a None is
        dropped, a float multiplies coeff)."""
        self._add(False, eq, coeff, factors)

    def rhs_term(self, state_slot, coeff: float, *factors) -> None:
        """Add a term to a state's rate; a float target has no rate."""
        if isinstance(state_slot, float):
            return
        if self.var_kinds[state_slot] != STATE:
            raise ValueError("rhs_term target must be a state")
        self._add(True, self._state_row_of_var[state_slot], coeff, factors)

    def _add(self, is_state: bool, row: int, coeff: float, factors) -> None:
        slots = []
        for f in factors:
            if isinstance(f, float):
                coeff = coeff * f
            elif f is not None:
                slots.append(f)
        if len(slots) > 2:
            raise ValueError("terms must have arity <= 2")
        if coeff != 0.0:
            f = slots + [_ABSENT] * (2 - len(slots))
            self._terms.append((is_state, row, float(coeff), f[0], f[1]))

    # -- compilation -----------------------------------------------------------

    def compile(self) -> "CompiledSystem":
        nv = len(self.var_names)
        alg_slots = np.array(
            [i for i, k in enumerate(self.var_kinds) if k == ALG], dtype=int)
        state_slots = np.array(
            [i for i, k in enumerate(self.var_kinds) if k == STATE], dtype=int)
        if len(alg_slots) != len(self.eq_names):
            raise ValueError(
                f"{len(alg_slots)} algebraic unknowns vs "
                f"{len(self.eq_names)} algebraic equations")

        one = nv + len(self.known_names)

        def table(is_state: bool) -> tuple:
            m = np.array([t[1:] for t in self._terms if t[0] == is_state],
                         dtype=float).reshape(-1, 4)
            f = m[:, 2:].astype(int)
            # an absent factor reads the one row, known j reads row nv + j
            a, b = np.where(f == _ABSENT, one,
                            np.where(f < 0, nv - f - 2, f)).T.copy()
            return m[:, 0].astype(int), m[:, 1].copy(), a, b

        return CompiledSystem(
            var_names=list(self.var_names),
            known_names=list(self.known_names),
            eq_names=list(self.eq_names),
            alg_slots=alg_slots,
            state_slots=state_slots,
            terms={"alg": table(False), "rhs": table(True)},
        )


@dataclass
class CompiledSystem:
    """Solvable polynomial DAE/algebraic system (see module docstring)."""

    var_names: list[str]
    known_names: list[str]
    eq_names: list[str]
    alg_slots: np.ndarray
    state_slots: np.ndarray
    terms: dict[str, tuple]

    def __post_init__(self):
        self.nv = len(self.var_names)
        self.nk = len(self.known_names)
        self.n_alg = len(self.alg_slots)
        self.n_state = len(self.state_slots)
        self.index = {n: i for i, n in enumerate(self.var_names)}
        self._flat: dict = {}  # (kind, point count) -> scatter indices
        self._jac: dict = {}   # kind -> Jacobian scatter, see _term_jacobian

    # -- term evaluation over the coefficient table -----------------------------

    def _coeff_of(self, kind: str, C: np.ndarray, k: int, n_rows: int) -> np.ndarray:
        """k-th embedding coefficient of every equation/rhs row: each term's
        Cauchy product at order k, summed into its row."""
        rows, coeffs, a, b = self.terms[kind]
        vals = np.einsum("ij,ij->i", C[a, : k + 1], C[b, k::-1])
        return np.bincount(rows, weights=coeffs * vals, minlength=n_rows)

    def _table(self, anchors: np.ndarray, kcoeffs: np.ndarray, order: int) -> np.ndarray:
        """Vars, knowns and the one row, by coefficient."""
        C = np.zeros((self.nv + self.nk + 1, order + 1))
        C[: self.nv, 0] = anchors
        m = min(order + 1, kcoeffs.shape[1])
        C[self.nv: -1, :m] = kcoeffs[:, :m]
        C[-1, 0] = 1.0
        return C

    # -- point evaluation ---------------------------------------------------------

    def _rows_at_point(self, kind: str, ext: np.ndarray, n_rows: int) -> np.ndarray:
        """Rows at one point (ext 1-D) or at P points at once (ext (n, P))."""
        pts = ext.shape[1:]
        x = ext.reshape(len(ext), -1)
        n_pts = x.shape[1]
        rows, coeffs, a, b = self.terms[kind]
        if (kind, n_pts) not in self._flat:  # scatter indices per point count
            self._flat[kind, n_pts] = (rows[:, None] * n_pts
                                       + np.arange(n_pts)).ravel()
        out = np.bincount(self._flat[kind, n_pts],
                          weights=(coeffs[:, None] * x[a] * x[b]).ravel(),
                          minlength=n_rows * n_pts)
        return out.reshape((n_rows,) + pts)

    def _ext(self, values, kvalues) -> np.ndarray:
        """Point values of the table's rows: vars, knowns and the one row."""
        v = np.asarray(values, float)
        parts = [v, np.asarray(kvalues, float)] if self.nk else [v]
        return np.concatenate(parts + [np.ones((1,) + v.shape[1:])])

    def alg_residual(self, values: np.ndarray, kvalues: np.ndarray) -> np.ndarray:
        return self._rows_at_point("alg", self._ext(values, kvalues), self.n_alg)

    def state_rhs(self, values: np.ndarray, kvalues: np.ndarray) -> np.ndarray:
        return self._rows_at_point("rhs", self._ext(values, kvalues), self.n_state)

    def residual(self, values: np.ndarray, dvalues: np.ndarray,
                 kvalues: np.ndarray) -> np.ndarray:
        """Stacked [dx/dt - f ; g] residual at point values."""
        parts = []
        if self.n_state:
            parts.append(np.asarray(dvalues) - self.state_rhs(values, kvalues))
        if self.n_alg:
            parts.append(self.alg_residual(values, kvalues))
        return np.concatenate(parts) if parts else np.zeros(0)

    def _term_jacobian(self, kind: str, ext: np.ndarray,
                       n_rows: int) -> np.ndarray:
        """Dense d(rows)/d(vars) of the "alg" or "rhs" terms at one point:
        each factor that is an unknown gets coeff times the other factor,
        summed into its cell in one pass (the a-factor entries first)."""
        if kind not in self._jac:
            rows, coeffs, a, b = self.terms[kind]
            ma, mb = a < self.nv, b < self.nv
            self._jac[kind] = (
                np.concatenate([rows[ma] * self.nv + a[ma],
                                rows[mb] * self.nv + b[mb]]),
                np.concatenate([coeffs[ma], coeffs[mb]]),
                np.concatenate([b[ma], a[mb]]))
        cell, coeffs, other = self._jac[kind]
        return np.bincount(cell, weights=coeffs * ext[other],
                           minlength=n_rows * self.nv).reshape(n_rows, self.nv)

    def full_jacobian(self, values: np.ndarray, kvalues: np.ndarray):
        """(df/dvars, dg/dvars) dense, for the implicit reference solvers."""
        ext = self._ext(values, kvalues)
        return (self._term_jacobian("rhs", ext, self.n_state),
                self._term_jacobian("alg", ext, self.n_alg))

    def alg_jacobian(self, values: np.ndarray,
                     kvalues: np.ndarray) -> np.ndarray:
        """Dense d(algebraic residual)/d(algebraic unknowns) at one point."""
        J = self._term_jacobian("alg", self._ext(values, kvalues), self.n_alg)
        return J[:, self.alg_slots]

    def newton_refine(self, values: np.ndarray, kvalues: np.ndarray,
                      maxiter: int = 12) -> np.ndarray:
        """Polish the algebraic unknowns until |g| <= 1e-12 at the anchor;
        a residual still above 1e-7 after ``maxiter`` steps fails."""
        v = np.array(values, dtype=float)
        if not self.n_alg:
            return v
        for _ in range(maxiter):
            r = self.alg_residual(v, kvalues)
            if np.max(np.abs(r)) <= 1e-12:
                return v
            J = self.alg_jacobian(v, kvalues)
            try:
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
            if not np.all(np.isfinite(delta)):
                raise SingularJacobian("non-finite Newton step")
            v[self.alg_slots] += delta
        r = np.max(np.abs(self.alg_residual(v, kvalues)))
        if not r <= 1e-7:  # a NaN residual fails too
            raise AnchorInconsistent(f"Newton refinement stalled at {r:.3e}")
        return v

    # -- the order-by-order solve ---------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")  # non-finite: raises
    def solve_series(self, anchors: np.ndarray, kcoeffs: np.ndarray,
                     order: int) -> np.ndarray:
        """Coefficient table (vars+knowns x order+1); one linear solve per order.

        States update explicitly from k * x[k] = (k-1)-th coefficient of f;
        the algebraic block solves J y[k] = -rhs with the anchor-point
        Jacobian inverted once (dense; the blocks have at most a few dozen
        rows).  The solve runs on the table with its constant-one row, which
        absent factors read; that row is sliced off the returned table.
        """
        C = self._table(anchors, kcoeffs, order)
        if self.n_alg:
            res0 = self._coeff_of("alg", C, 0, self.n_alg)
            if not np.max(np.abs(res0)) <= _ANCHOR_TOL:
                worst = int(np.argmax(np.abs(res0)))
                raise AnchorInconsistent(
                    f"anchor residual {np.max(np.abs(res0)):.3e} "
                    f"(worst: {self.eq_names[worst]})")
            J = self._term_jacobian("alg", C[:, 0],
                                    self.n_alg)[:, self.alg_slots]
            try:
                neg_inv = -np.linalg.inv(J)  # (-J^-1) r == J^-1 (-r) exactly
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
        for k in range(1, order + 1):
            if self.n_state:
                fk = self._coeff_of("rhs", C, k - 1, self.n_state)
                C[self.state_slots, k] = fk / k
            if self.n_alg:
                C[self.alg_slots, k] = neg_inv @ self._coeff_of(
                    "alg", C, k, self.n_alg)
        bad = np.flatnonzero(~np.isfinite(C[self.alg_slots, 1:]).all(axis=0))
        if len(bad):  # name the first order whose solve is not finite
            raise SingularJacobian(f"non-finite coefficients at order {bad[0] + 1}")
        return C[:-1]


# --- segment solutions ------------------------------------------------------------


def _horner(c: np.ndarray, t) -> np.ndarray:
    """Horner over the first axis of c (c[k] holds the k-th coefficients);
    t broadcasts against c[k]."""
    out = c[-1] + 0.0 * t
    for ck in c[-2::-1]:
        out *= t
        out += ck
    return out


def _deriv_rows(coeffs: np.ndarray) -> np.ndarray:
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])


def _degree(dens: np.ndarray) -> np.ndarray:
    """Trimmed degree of each denominator row."""
    return dens.shape[1] - 1 - np.argmax(dens[:, ::-1] != 0.0, axis=1)


@functools.lru_cache(maxsize=None)
def _pascal(n: int) -> np.ndarray:
    """Read-only binomial matrix P[i, j] = C(i, j), i, j < n."""
    P = np.array([[math.comb(i, j) for j in range(n)] for i in range(n)],
                 dtype=float)
    P.flags.writeable = False
    return P


def _pole_free(dens: np.ndarray, limit: float) -> np.ndarray:
    """Rows proven to have no real root in (0, limit], by a sign test
    (Vincent; Collins & Akritas 1976): t = limit*s/(1+s) times (1+s)^D, D
    the top degree, is one Möbius-matrix product (a degree-d row comes out
    times (1+s)^(D-d)), and every coefficient in s positive beyond its
    rounding bound leaves no root in s in (0, inf], i.e. t in (0, limit]."""
    D = dens.shape[1] - 1
    mobius = _pascal(D + 1)[::-1, ::-1]  # B[k, j] = C(D - k, j - k)
    with np.errstate(all="ignore"):  # NaN and inf fail the ">" below
        c = dens * limit ** np.arange(D + 1)
        bound = (2 * D + 4) * _EPS * (np.abs(c) @ mobius)
        # the bound is relative: it holds where no nonzero c_k is subnormal
        normal = np.all((np.abs(c) >= _TINY) | (dens == 0.0), axis=1)
        return normal & np.all(c @ mobius > bound, axis=1)


def min_real_positive_root(nums: np.ndarray, dens: np.ndarray, limit: float):
    """Each row's smallest *genuine* real pole in (0, limit] (inf where
    none), and a mask of the rows holding a spurious one.

    A real denominator root marks a pole of the rational approximant; the
    certified range of a segment must stay strictly below the first one even
    when the approximant happens to satisfy the residual on both sides (the
    exact solution continued past its own singularity does).  A root whose
    residue is negligible against the variable's scale is spurious: a
    zero-pole pair (Froissart doublet) from fitting float noise.  It does
    not cap the range, but the approximant still spikes next to it, so
    ``solve_segment`` cancels it by refitting its row.

    Rows that ``_pole_free`` does not clear are grouped by trimmed degree;
    each group's roots are the eigenvalues of a stack of the companion
    matrices that ``numpy.polynomial.polynomial.polyroots`` builds.
    """
    poles = np.full(len(dens), np.inf)
    spurious = np.zeros(len(dens), dtype=bool)
    # without a negative coefficient there is no positive root (Descartes)
    degree = np.where(np.all(dens >= 0.0, axis=1), 0, _degree(dens))
    sel = np.flatnonzero(degree)
    degree[sel[_pole_free(dens[sel], limit)]] = 0
    for d in sorted(set(degree[degree > 0].tolist())):
        sel = np.flatnonzero(degree == d)
        c = dens[sel, : d + 1]
        comp = np.zeros((len(sel), d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] -= c[:, :-1] / c[:, -1:]
        roots = np.linalg.eigvals(comp)
        x = roots.real
        cand = ((np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(x)))
                & (x > 1e-12) & (x <= limit))
        if not cand.any():
            continue
        rows, cols = np.nonzero(cand)
        xs = x[rows, cols]
        num = nums[sel[rows]]
        residue = (np.abs(_horner(num.T, xs))
                   / np.maximum(np.abs(_horner(_deriv_rows(c)[rows].T, xs)),
                                1e-300))
        scale = np.maximum(1.0, np.max(np.abs(num), axis=1))
        genuine = residue > 1e-9 * scale
        np.minimum.at(poles, sel[rows[genuine]], xs[genuine])
        spurious[sel[rows[~genuine]]] = True
    return poles, spurious


@dataclass
class SegmentSolution:
    """One analytic segment: Pade per unknown, plus its range.

    Times inside the segment are local (0 at the segment anchor); the
    scheduler tracks the absolute start time.  Every value comes from
    ``evaluate``, which reads ``table``, built once here and read-only: the
    Pade rows, the knowns and the state rows' derivative rows, coefficient-
    major, without zero top coefficients (which leave Horner's result
    unchanged bit for bit).  ``pade_num``, ``pade_den`` and ``kcoeffs`` are
    views of it; the segment keeps no series.  A denominator below 1e-12 in
    magnitude reads NaN (a pole): the range certificate, the next anchor,
    trigger localization and the sampled channels all read this one rule.
    """

    system: CompiledSystem
    kcoeffs: np.ndarray        # (nk, any width) known input coefficients
    pade_num: np.ndarray
    pade_den: np.ndarray
    t_e: float = np.inf
    t_cap: float = np.inf      # range cap: t_max or just below a pole
    refit: int = 0             # rows refitted to cancel a spurious pole

    def __post_init__(self):
        st = self.system.state_slots
        parts = [self.pade_num, self.pade_den, self.kcoeffs, *(
            _deriv_rows(p[st]) for p in (self.pade_num, self.pade_den))]
        self.bounds = bounds = np.cumsum([0] + [len(p) for p in parts]).tolist()
        table = np.zeros((max(p.shape[1] for p in parts), bounds[-1]))
        for p, at in zip(parts, bounds):
            table[: p.shape[1], at: at + len(p)] = p.T
        used = np.flatnonzero(table.any(axis=1))
        # copies: the padded buffers are freed
        self.table = table[: used[-1] + 1 if len(used) else 1].copy()
        self.table.flags.writeable = False
        self.pade_num, self.pade_den, self.kcoeffs, _ = (
            p.T for p in np.split(self.table, bounds[1:4], axis=1))

    def evaluate(self, t, rates: bool = False) -> tuple:
        """(values, knowns) at t, scalar or 1-D, each (rows,) + shape(t),
        from one Horner pass over rows x times; with ``rates`` also the
        state rows' time derivatives."""
        table = self.table if rates else self.table[:, : self.bounds[3]]
        t = np.asarray(t, dtype=float)
        out = _horner(table.reshape(table.shape + (1,) * t.ndim), t)
        num, den, known, *d = np.split(out, self.bounds[1:-1])
        vals = num / np.where(np.abs(den) < 1e-12, np.nan, den)
        if not rates:
            return vals, known
        st = self.system.state_slots
        return vals, known, (d[0] * den[st] - num[st] * d[1]) / den[st] ** 2

    def values_at(self, t) -> np.ndarray:
        return self.evaluate(t)[0]

    @np.errstate(over="ignore", invalid="ignore")  # non-finite: reads inf
    def residual_max_at(self, t):
        """Max-norm residual at t, or at every time of a 1-D t in one Horner
        pass over rows x times; a non-finite value or residual reads inf."""
        vals, known, rates = self.evaluate(t, rates=True)
        r = self.system.residual(vals, rates, known)
        worst = np.max(np.abs(r), axis=0, initial=0.0)
        finite = np.all(np.isfinite(vals), axis=0) & np.isfinite(worst)
        out = np.where(finite, worst, np.inf)
        return out if np.ndim(t) else float(out)


def solve_segment(system: CompiledSystem, anchors: np.ndarray,
                  kcoeffs: np.ndarray, order: int, tol_res: float,
                  t_max: float) -> tuple[SegmentSolution, np.ndarray]:
    """Solve an embedded segment at the series order and certify its
    effective range.  Returns (segment, C), C the series, noise tails
    zeroed, a view of ``solve_series``'s buffer that the segment does not
    keep.

    Rows with a spurious real pole in (0, t_max] are refitted one
    denominator order lower, one ``batch_pade`` call per pass with an order
    per row, until none is left; the first genuine pole caps the range at
    t_cap, and ``shrink_refine_range`` certifies t_e in (0, t_cap] or
    raises ``NoValidRange``, named here by its worst row at the smallest range.
    """
    C = system.solve_series(anchors, kcoeffs, order)[: system.nv]
    # a variable whose entire tail sits at float noise is a constant; keeping
    # the noise would wreck the range estimate at large t (noise * t^N)
    tail = np.max(np.abs(C[:, 1:]), axis=1)
    scale = np.maximum(1.0, np.abs(C[:, 0]))
    C[tail <= 1e-12 * scale, 1:] = 0.0
    L, M = diagonal_orders(order)
    nums, dens = batch_pade(C, L, M)
    poles, spurious = min_real_positive_root(nums, dens, t_max)
    rows = np.flatnonzero(spurious)
    refit = len(rows)
    while len(rows):  # each pass lowers every listed row's degree
        nums[rows], low = batch_pade(C[rows], L, _degree(dens[rows]) - 1)
        dens[rows] = 0.0
        dens[rows, : low.shape[1]] = low
        poles[rows], spurious = min_real_positive_root(nums[rows],
                                                       dens[rows], t_max)
        rows = rows[spurious]
    t_cap = min(t_max, 0.995 * np.min(poles, initial=np.inf))
    seg = SegmentSolution(system=system, kcoeffs=kcoeffs, pade_num=nums,
                          pade_den=dens, t_cap=t_cap, refit=refit)
    try:
        seg.t_e = shrink_refine_range(seg.residual_max_at, tol_res, t_cap)
    except NoValidRange as exc:  # name the worst row at the smallest range
        with np.errstate(all="ignore"):  # argmax takes a NaN row as worst
            vals, known, rates = seg.evaluate(t_cap * 2.0 ** -20, rates=True)
            r = np.abs(system.residual(vals, rates, known))
        worst = ([f"d/dt {system.var_names[i]}" for i in system.state_slots]
                 + system.eq_names)[np.argmax(r)]
        raise NoValidRange(f"{exc} (worst: {worst})") from None
    return seg, C


def _taylor_shift(c: np.ndarray, a: float) -> np.ndarray:
    """Coefficients in s of every row's polynomial at a + s: one product
    with the binomial matrix B[k, j] = C(k, j) a^(k - j)."""
    k = np.arange(c.shape[1])
    return c @ (_pascal(len(k)) * a ** np.maximum(k[:, None] - k, 0))


def solve_alpha_problem(system: CompiledSystem, anchors: np.ndarray,
                        kcoeffs: np.ndarray, kind: str,
                        order: int = 30) -> np.ndarray:
    """Continuation from alpha=0 (pre-switch) to the alpha=1 state.

    A chain of stages, each a ``solve_segment`` over the rest of the path.
    Where a stage's certified range ends short of alpha = 1, a Newton
    corrector refines the state there, as it does at alpha = 1; no
    correction may exceed 0.1, so a branch jump cannot masquerade as
    convergence.  A stage that fails or certifies less than 2^-8 of the
    alpha it would reach means the switch target does not exist (e.g.
    energizing into an infeasible condition); the error names the alpha
    reached, close to the nose also where the nose lies early on the path.
    So does a chain still short of alpha = 1 after 2^8 stages.  That cap
    bounds the work: a stage that just passes the minimum grows alpha by
    1/255 of itself, so from solve_segment's shortest first range (2^-20 of
    the path) an uncapped chain could run about 3,500 stages.
    """
    a, stages = 0.0, round(1 / _MIN_STAGE)
    for _ in range(stages):
        rest = 1.0 - a
        try:
            seg = solve_segment(system, anchors, _taylor_shift(kcoeffs, a),
                                order, _ANCHOR_TOL, rest)[0]
            step = seg.t_e
            if step < min(_MIN_STAGE * (a + step), rest):
                raise NoValidRange(f"stage certified only {step:.3e}")
            values, known = seg.evaluate(step)
            polished = system.newton_refine(values, known)
            if not np.max(np.abs(polished - values)) <= 0.1:
                raise NoValidRange(
                    "corrector moved off the continuation branch")
        except (NoValidRange, SingularJacobian, AnchorInconsistent) as exc:
            raise NoConvergenceAtAlpha1(
                f"{kind} stops at alpha={a:.6g}: {exc}") from exc
        if step == rest:
            return polished
        a, anchors = a + step, polished
    raise NoConvergenceAtAlpha1(
        f"{kind} stops at alpha={a:.6g}: no alpha=1 in {stages} stages")
