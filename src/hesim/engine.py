"""Holomorphic-embedding solver core.

A simulation segment (time embedding) or a switching problem (alpha
embedding) is described as a system of *polynomial* equations over a set of
unknown series: algebraic equations ``g = 0`` and differential relations
``dx/dt = f`` whose right-hand sides are sums of terms, each term being a
constant times at most two factors (an unknown series or a known input
series).  Substituting series and matching powers of the embedding variable
turns the system into one explicit update per state plus one linear solve
per order, with a constant matrix: the order-0 Jacobian of the algebraic
block, inverted once per segment (dense; the blocks have at most a few
dozen rows) and reused for every order.

Anything quadratic-and-above in the physics (products of voltages, rotor
trigonometry, motor slip couplings) is expressed at build time with at most
bilinear terms by introducing auxiliary unknowns, so this module never needs
higher arities.
"""

from __future__ import annotations

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

# embedding kinds, recorded on problems/solutions for bookkeeping
TIME_DYNAMIC = "TIME_DYNAMIC"
TIME_QSS = "TIME_QSS"
ALPHA_POWERFLOW = "ALPHA_POWERFLOW"
ALPHA_ADD = "ALPHA_ADD"
ALPHA_CUT = "ALPHA_CUT"
ALPHA_PARAM = "ALPHA_PARAM"

ALPHA_CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
_ANCHOR_TOL = 1e-6     # largest algebraic residual accepted at an anchor
_PATH_TOL = 1e-3       # alpha continuation: residual along the path
_PREDICTOR_TOL = 1e-2  # ... and at alpha = 1, before the Newton corrector

_ABSENT = -1  # encoding for a missing second factor


class SystemBuilder:
    """Collects unknowns, known inputs and polynomial terms, then compiles."""

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

    def term(self, eq: int, coeff: float, *factors: int) -> None:
        self._add(False, eq, coeff, factors)

    def rhs_term(self, state_slot: int, coeff: float, *factors: int) -> None:
        if self.var_kinds[state_slot] != STATE:
            raise ValueError("rhs_term target must be a state")
        self._add(True, self._state_row_of_var[state_slot], coeff, factors)

    def _add(self, is_state: bool, row: int, coeff: float, factors) -> None:
        if len(factors) > 2:
            raise ValueError("terms must have arity <= 2")
        if coeff != 0.0:
            f = list(factors) + [_ABSENT] * (2 - len(factors))
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

        def resolve(f: int) -> int:
            if f == _ABSENT:
                return _ABSENT
            if f < _ABSENT:
                return nv + (-f - 2)  # known slot
            return f

        groups: dict[tuple[bool, int], list[list[float]]] = {}
        for is_state, row, coeff, f1, f2 in self._terms:
            a, b = resolve(f1), resolve(f2)
            if a == _ABSENT and b != _ABSENT:
                a, b = b, a
            arity = int(a != _ABSENT) + int(b != _ABSENT)
            groups.setdefault((is_state, arity), []).append([row, coeff, a, b])

        def pack(key):
            rows = groups.get(key, [])
            if not rows:
                return (np.zeros(0, int), np.zeros(0), np.zeros(0, int),
                        np.zeros(0, int))
            m = np.array(rows, dtype=float)
            return (m[:, 0].astype(int), m[:, 1].copy(),
                    m[:, 2].astype(int), m[:, 3].astype(int))

        return CompiledSystem(
            var_names=list(self.var_names),
            known_names=list(self.known_names),
            eq_names=list(self.eq_names),
            alg_slots=alg_slots,
            state_slots=state_slots,
            terms={
                "alg0": pack((False, 0)),
                "alg1": pack((False, 1)),
                "alg2": pack((False, 2)),
                "rhs0": pack((True, 0)),
                "rhs1": pack((True, 1)),
                "rhs2": pack((True, 2)),
            },
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

    # -- term evaluation over the coefficient table -----------------------------

    def _coeff_of(self, kind: str, C: np.ndarray, k: int, n_rows: int) -> np.ndarray:
        """k-th embedding coefficient of every equation/rhs row."""
        out = np.zeros(n_rows)
        r0, c0, _, _ = self.terms[kind + "0"]
        if k == 0 and len(r0):
            out += np.bincount(r0, weights=c0, minlength=n_rows)
        r1, c1, f1, _ = self.terms[kind + "1"]
        if len(r1):
            out += np.bincount(r1, weights=c1 * C[f1, k], minlength=n_rows)
        r2, c2, g1, g2 = self.terms[kind + "2"]
        if len(r2):
            A = C[g1, : k + 1]
            B = C[g2, k::-1]
            vals = np.einsum("ij,ij->i", A, B)
            out += np.bincount(r2, weights=c2 * vals, minlength=n_rows)
        return out

    def _table(self, anchors: np.ndarray, kcoeffs: np.ndarray, order: int) -> np.ndarray:
        C = np.zeros((self.nv + self.nk, order + 1))
        C[: self.nv, 0] = anchors
        if self.nk:
            m = min(order + 1, kcoeffs.shape[1])
            C[self.nv:, :m] = kcoeffs[:, :m]
        return C

    # -- point evaluation ---------------------------------------------------------

    def _rows_at_point(self, kind: str, ext: np.ndarray, n_rows: int) -> np.ndarray:
        """Rows at one point (ext 1-D) or at P points at once (ext (n, P))."""
        pts = ext.shape[1:]
        x = ext.reshape(len(ext), -1)
        n_pts = x.shape[1]
        out = np.zeros((n_rows, n_pts))
        if (kind, n_pts) not in self._flat:  # scatter indices per point count
            self._flat[kind, n_pts] = [
                (self.terms[kind + a][0][:, None] * n_pts
                 + np.arange(n_pts)).ravel() for a in "12"]
        flat1, flat2 = self._flat[kind, n_pts]

        def scatter(flat, weights):
            return np.bincount(flat, weights=weights.ravel(),
                               minlength=n_rows * n_pts).reshape(n_rows, n_pts)

        r0, c0, _, _ = self.terms[kind + "0"]
        if len(r0):
            out += np.bincount(r0, weights=c0, minlength=n_rows)[:, None]
        r1, c1, f1, _ = self.terms[kind + "1"]
        if len(r1):
            out += scatter(flat1, c1[:, None] * x[f1])
        r2, c2, g1, g2 = self.terms[kind + "2"]
        if len(r2):
            out += scatter(flat2, c2[:, None] * x[g1] * x[g2])
        return out.reshape((n_rows,) + pts)

    def _ext(self, values, kvalues) -> np.ndarray:
        if self.nk:
            return np.concatenate([np.asarray(values, float),
                                   np.asarray(kvalues, float)])
        return np.asarray(values, float)

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
        """Dense d(rows)/d(vars) of the "alg" or "rhs" terms at one point."""
        J = np.zeros((n_rows, self.nv))
        r1, c1, f1, _ = self.terms[kind + "1"]
        if len(r1):
            m = f1 < self.nv
            np.add.at(J, (r1[m], f1[m]), c1[m])
        r2, c2, g1, g2 = self.terms[kind + "2"]
        if len(r2):
            m = g1 < self.nv
            np.add.at(J, (r2[m], g1[m]), c2[m] * ext[g2[m]])
            m = g2 < self.nv
            np.add.at(J, (r2[m], g2[m]), c2[m] * ext[g1[m]])
        return J

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
                      tol: float = 1e-12, maxiter: int = 12) -> np.ndarray:
        """Polish the algebraic unknowns so g = 0 holds at the anchor."""
        v = np.array(values, dtype=float)
        if not self.n_alg:
            return v
        for _ in range(maxiter):
            r = self.alg_residual(v, kvalues)
            if np.max(np.abs(r)) <= tol:
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
        if not r <= max(tol, 1e-7):  # a NaN residual fails too
            raise AnchorInconsistent(f"Newton refinement stalled at {r:.3e}")
        return v

    # -- the order-by-order solve ---------------------------------------------------

    def solve_series(self, anchors: np.ndarray, kcoeffs: np.ndarray,
                     order: int) -> np.ndarray:
        """Coefficient table (vars+knowns x order+1); one linear solve per order.

        States update explicitly from k * x[k] = (k-1)-th coefficient of f;
        the algebraic block solves J y[k] = -rhs with the anchor-point
        Jacobian inverted once (dense; the blocks have at most a few dozen
        rows).
        """
        C = self._table(anchors, kcoeffs, order)
        if self.n_alg:
            res0 = self._coeff_of("alg", C, 0, self.n_alg)
            if np.max(np.abs(res0)) > _ANCHOR_TOL:
                worst = int(np.argmax(np.abs(res0)))
                raise AnchorInconsistent(
                    f"anchor residual {np.max(np.abs(res0)):.3e} "
                    f"(worst: {self.eq_names[worst]})")
            kv = C[self.nv:, 0] if self.nk else np.zeros(0)
            J = self.alg_jacobian(C[: self.nv, 0], kv)
            try:
                J_inv = np.linalg.inv(J)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
        for k in range(1, order + 1):
            if self.n_state:
                fk = self._coeff_of("rhs", C, k - 1, self.n_state)
                C[self.state_slots, k] = fk / k
            if self.n_alg:
                rhs = self._coeff_of("alg", C, k, self.n_alg)
                sol = J_inv @ -rhs
                if not np.all(np.isfinite(sol)):
                    raise SingularJacobian(f"non-finite coefficients at order {k}")
                C[self.alg_slots, k] = sol
        return C


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
    if coeffs.shape[1] < 2:
        return np.zeros_like(coeffs)
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])


def _degree(dens: np.ndarray) -> np.ndarray:
    """Trimmed degree of each denominator row."""
    return dens.shape[1] - 1 - np.argmax(dens[:, ::-1] != 0.0, axis=1)


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

    Rows are grouped by trimmed denominator degree; each group's roots are
    the eigenvalues of a stack of the companion matrices that
    ``numpy.polynomial.polynomial.polyroots`` builds, found in one call.
    """
    poles = np.full(len(dens), np.inf)
    spurious = np.zeros(len(dens), dtype=bool)
    # without a negative coefficient there is no positive root (Descartes)
    degree = np.where(np.all(dens >= 0.0, axis=1), 0, _degree(dens))
    for d in np.unique(degree[degree > 0]):
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
    """One analytic segment: series + Pade per unknown, plus its range.

    Times inside the segment are local (0 at the segment anchor); the
    scheduler tracks the absolute start time.  Every value comes from
    ``evaluate``.  Where a denominator is below 1e-12 in magnitude the
    unknown reads NaN (the approximant sits at a pole there): the range
    certificate, the next segment's anchor, trigger localization and the
    sampled output channels all read this one rule.
    """

    kind: str
    system: CompiledSystem
    C: np.ndarray              # (nv, order+1) series coefficients
    kcoeffs: np.ndarray        # (nk, order+1) known input coefficients
    pade_num: np.ndarray
    pade_den: np.ndarray
    t_e: float = np.inf
    t_cap: float = np.inf      # range cap: t_max or just below a pole
    refit: int = 0             # rows refitted to cancel a spurious pole

    def stacked(self, rates: bool = False) -> tuple:
        """``evaluate``'s coefficient-major table and its parts' row bounds:
        numerators, denominators, knowns and, with ``rates``, the state
        rows' derivative rows.  Zero top coefficients are padded or dropped:
        at a finite t they leave Horner's result unchanged bit for bit."""
        parts = [self.pade_num, self.pade_den, self.kcoeffs]
        if rates:
            st = self.system.state_slots
            parts += [_deriv_rows(self.pade_num[st]),
                      _deriv_rows(self.pade_den[st])]
        bounds = np.cumsum([0] + [len(p) for p in parts])
        table = np.zeros((max(p.shape[1] for p in parts), bounds[-1]))
        for p, at in zip(parts, bounds):
            table[: p.shape[1], at: at + len(p)] = p.T
        used = np.flatnonzero(table.any(axis=1))
        return table[: used[-1] + 1 if len(used) else 1], bounds

    def evaluate(self, t, rates: bool = False, table=None) -> tuple:
        """(values, knowns) at t, scalar or 1-D, each (rows,) + shape(t),
        from one Horner pass over rows x times; with ``rates`` also the
        state rows' time derivatives; ``table`` reuses a ``stacked(rates)``."""
        table, bounds = table or self.stacked(rates)
        t = np.asarray(t, dtype=float)
        out = _horner(table.reshape(table.shape + (1,) * t.ndim), t)
        num, den, known, *d = (out[a:b] for a, b in
                               zip(bounds[:-1], bounds[1:]))
        vals = num / np.where(np.abs(den) < 1e-12, np.nan, den)
        if not rates:
            return vals, known
        st = self.system.state_slots
        return vals, known, (d[0] * den[st] - num[st] * d[1]) / den[st] ** 2

    def values_at(self, t) -> np.ndarray:
        return self.evaluate(t)[0]

    def residual_max_at(self, t, table=None):
        """Max-norm residual at t, or at every time of a 1-D t in one Horner
        pass over rows x times; a non-finite value or residual reads inf.
        ``table`` reuses a ``stacked(rates=True)`` across calls."""
        vals, known, rates = self.evaluate(t, rates=True, table=table)
        r = self.system.residual(vals, rates, known)
        worst = np.max(np.abs(r), axis=0, initial=0.0)
        finite = np.all(np.isfinite(vals), axis=0) & np.isfinite(worst)
        out = np.where(finite, worst, np.inf)
        return out if np.ndim(t) else float(out)


def solve_segment(system: CompiledSystem, anchors: np.ndarray,
                  kcoeffs: np.ndarray, order: int, kind: str,
                  tol_res: float, t_max: float) -> SegmentSolution:
    """Solve a time-embedded segment and certify its effective range.

    Rows with a spurious real pole in (0, t_max] are refitted one
    denominator order lower, batched per degree, until none is left; the
    first genuine pole caps the range at t_cap, and ``shrink_refine_range``
    certifies t_e in (0, t_cap].
    """
    C = system.solve_series(anchors, kcoeffs, order)
    # a variable whose entire tail sits at float noise is a constant; keeping
    # the noise would wreck the range estimate at large t (noise * t^N)
    tail = np.max(np.abs(C[: system.nv, 1:]), axis=1)
    scale = np.maximum(1.0, np.abs(C[: system.nv, 0]))
    C[: system.nv][tail <= 1e-12 * scale, 1:] = 0.0
    L, M = diagonal_orders(order)
    nums, dens = batch_pade(C[: system.nv], L, M)
    seg = SegmentSolution(kind=kind, system=system, C=C[: system.nv],
                          kcoeffs=kcoeffs, pade_num=nums, pade_den=dens)

    poles, spurious = min_real_positive_root(nums, dens, t_max)
    rows = np.flatnonzero(spurious)
    seg.refit = len(rows)
    while len(rows):  # each pass lowers every listed row's degree
        degree = _degree(dens[rows])
        for d in np.unique(degree):
            sel = rows[degree == d]
            nums[sel], dens[sel, :d] = batch_pade(seg.C[sel], L, d - 1)
            dens[sel, d:] = 0.0
        poles[rows], spurious = min_real_positive_root(nums[rows],
                                                       dens[rows], t_max)
        rows = rows[spurious]
    seg.t_cap = t_cap = min(t_max, 0.995 * np.min(poles, initial=np.inf))
    if t_cap <= 0:
        raise NoValidRange("rational approximant has a pole at the anchor")
    table = seg.stacked(rates=True)  # built once for all probe calls
    seg.t_e = shrink_refine_range(lambda ts: seg.residual_max_at(ts, table),
                                  tol_res, t_cap)
    return seg


def solve_alpha_problem(system: CompiledSystem, anchors: np.ndarray,
                        kcoeffs: np.ndarray, kind: str,
                        order: int = 30) -> np.ndarray:
    """Continuation from alpha=0 (pre-switch) to the alpha=1 state.

    The Pade continuation is validated along the path (alpha = 0.25, 0.5,
    0.75) and acts as a predictor at alpha = 1, where a Newton corrector
    lands on the exact post-switch state; the correction must stay small so
    a branch jump cannot masquerade as convergence.  Failure after one order
    increase means the switch target does not exist (e.g. energizing into an
    infeasible condition).
    """
    last_err = None
    for n in (order, order + 10):
        C = system.solve_series(anchors, kcoeffs, n)
        L, M = diagonal_orders(n)
        nums, dens = batch_pade(C[: system.nv], L, M)
        seg = SegmentSolution(kind=kind, system=system, C=C[: system.nv],
                              kcoeffs=kcoeffs, pade_num=nums, pade_den=dens)
        res = seg.residual_max_at(np.array(ALPHA_CHECKPOINTS))
        bad = ~(res <= np.where(np.array(ALPHA_CHECKPOINTS) == 1.0,
                                _PREDICTOR_TOL, _PATH_TOL))  # NaN fails
        if bad.any():
            i = int(np.argmax(bad))
            last_err = f"residual {res[i]:.3e} at alpha={ALPHA_CHECKPOINTS[i]}"
            continue
        values, known = seg.evaluate(1.0)
        try:
            polished = system.newton_refine(values, known, tol=1e-12)
        except (AnchorInconsistent, SingularJacobian) as exc:
            last_err = str(exc)
            continue
        if np.max(np.abs(polished - values)) > 0.1:
            last_err = "corrector moved off the continuation branch"
            continue
        return polished
    raise NoConvergenceAtAlpha1(f"{kind}: {last_err}")
