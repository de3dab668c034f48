"""Embedding engine: order recursion, segments, alpha continuation."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import padded, run_from
from hesim.engine import (
    _ANCHOR_TOL,
    SystemBuilder,
    _pole_free,
    batch_pade,
    min_real_positive_root,
    solve_alpha_problem,
    solve_segment,
)
from hesim.errors import AnchorInconsistent, NoConvergenceAtAlpha1, NoValidRange


def test_exponential_decay_coefficients():
    # x' = -x, x(0) = 1  ->  x[k] = (-1)^k / k!
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    sys = b.compile()
    C = sys.solve_series(np.array([1.0]), np.zeros((0, 0)), 10)
    expect = [(-1.0) ** k / math.factorial(k) for k in range(11)]
    assert np.allclose(C[0], expect, atol=1e-14)


def test_riccati_geometric_coefficients():
    # x' = x^2, x(0) = 1  ->  x(t) = 1/(1-t), x[k] = 1
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, 1.0, x, x)
    sys = b.compile()
    C = sys.solve_series(np.array([1.0]), np.zeros((0, 0)), 12)
    assert np.allclose(C[0], np.ones(13), atol=1e-12)


def test_known_input_forcing():
    # x' = p(t) with p = 2t  ->  x = x0 + t^2
    b = SystemBuilder()
    x = b.state("x")
    p = b.known("p")
    b.rhs_term(x, 1.0, p)
    sys = b.compile()
    C = sys.solve_series(np.array([0.5]), np.array([[0.0, 2.0]]), 4)
    assert np.allclose(C[0], [0.5, 0.0, 1.0, 0.0, 0.0])


def test_algebraic_block_with_state_coupling():
    # x' = -y,  0 = y - x  ->  x = exp(-t)
    b = SystemBuilder()
    x = b.state("x")
    y = b.alg("y")
    eq = b.alg_eq("link")
    b.term(eq, 1.0, y)
    b.term(eq, -1.0, x)
    b.rhs_term(x, -1.0, y)
    sys = b.compile()
    C = sys.solve_series(np.array([1.0, 1.0]), np.zeros((0, 0)), 8)
    expect = [(-1.0) ** k / math.factorial(k) for k in range(9)]
    assert np.allclose(C[0], expect, atol=1e-12)
    assert np.allclose(C[1], expect, atol=1e-12)


def test_float_factor_is_a_constant_on_the_coefficient():
    # each term with float factors compiles to the term with coeff * c
    # written out, bit for bit; a zero constant drops the term as a zero
    # coefficient does, and three slot factors still raise
    def build(folded):
        b = SystemBuilder()
        x, y, s = b.alg("x"), b.alg("y"), b.state("s")
        k = b.known("k")
        e1, e2 = b.alg_eq("e1"), b.alg_eq("e2")
        if folded:
            b.term(e1, 0.1 * 0.7, x, y)
            b.term(e1, -0.3 * 1.9)
            b.term(e2, 2.0 * -1.3 * 0.6, k, x)
            b.rhs_term(s, 0.5 * 3.0, s)
        else:
            b.term(e1, 0.1, x, 0.7, y)
            b.term(e1, -0.3, 1.9)
            b.term(e1, 1.0, 0.0, x)
            b.term(e1, 0.0, x)
            b.term(e2, 2.0, -1.3, k, None, x, 0.6)
            b.rhs_term(s, 0.5, s, 3.0)
            b.rhs_term(s, 4.0, 0.0)
            with pytest.raises(ValueError, match="arity"):
                b.term(e2, 1.0, x, 2.0, y, k)
        b.term(e2, 1.0, y)
        return b.compile().terms

    got, want = build(False), build(True)
    for kind in ("alg", "rhs"):
        assert [a.tobytes() for a in got[kind]] == [
            a.tobytes() for a in want[kind]]
    assert len(want["alg"][1]) == 4 and len(want["rhs"][1]) == 1


def test_rhs_term_on_a_float_target_adds_no_term():
    # a float target is a state frozen at that value: it has no rate
    b = SystemBuilder()
    x, s = b.alg("x"), b.state("s")
    b.alg_eq("e")
    b.rhs_term(s, -1.0, s)
    b.rhs_term(0.25, 3.0, x, s)
    b.rhs_term(0.0, 1.0)
    assert len(b.compile().terms["rhs"][1]) == 1
    with pytest.raises(ValueError, match="must be a state"):
        b.rhs_term(x, 1.0, s)


def test_anchor_inconsistent_raises():
    b = SystemBuilder()
    y = b.alg("y")
    eq = b.alg_eq("pin")
    b.term(eq, 1.0, y)
    b.term(eq, -2.0)
    sys = b.compile()
    with pytest.raises(AnchorInconsistent):
        sys.solve_series(np.array([0.0]), np.zeros((0, 0)), 3)


def test_nan_anchor_residual_is_inconsistent():
    # "r > tol" is False for r = NaN: a NaN anchor must not pass the check
    # and surface later as non-finite coefficients
    b = SystemBuilder()
    x, y = b.state("x"), b.alg("y")
    g = b.alg_eq("g")
    b.term(g, 1.0, y)
    b.term(g, -1.0, x)
    b.rhs_term(x, -1.0, y)
    sys = b.compile()
    anchors = np.zeros(2)
    anchors[[sys.index["x"], sys.index["y"]]] = [1.0, np.nan]
    with pytest.raises(AnchorInconsistent, match=r"worst: g\)"):
        sys.solve_series(anchors, np.zeros((0, 0)), 3)


def test_segment_effective_range_and_eval():
    # pole of 1/(1-t): series certifies less than 1, Pade extends accuracy
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, 1.0, x, x)
    sys = b.compile()
    seg, _ = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=15,
                           tol_res=1e-6, t_max=2.0)
    assert seg.t_e < 1.0
    t = 0.4
    x_at = seg.values_at(t)[sys.index["x"]]
    assert x_at == pytest.approx(1.0 / (1.0 - t), abs=1e-9)


def test_segment_flat_at_equilibrium():
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    b.rhs_term(x, 1.0)  # x' = 1 - x, equilibrium at 1
    sys = b.compile()
    seg, C = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=10,
                           tol_res=1e-8, t_max=5.0)
    assert seg.t_e == 5.0
    assert np.allclose(C[0][1:], 0.0, atol=1e-14)


def test_newton_refine_polishes_algebraic():
    b = SystemBuilder()
    y = b.alg("y")
    eq = b.alg_eq("quad")
    b.term(eq, 1.0, y, y)
    b.term(eq, -4.0)
    sys = b.compile()
    out = sys.newton_refine(np.array([1.8]), np.zeros(0))
    assert out[0] == pytest.approx(2.0, abs=1e-12)


def test_alpha_continuation_quadratic():
    # 0 = y^2 - (1 + 3 alpha): y(0)=1, y(1)=2
    b = SystemBuilder()
    y = b.alg("y")
    alpha = b.known("alpha")
    eq = b.alg_eq("emb")
    b.term(eq, 1.0, y, y)
    b.term(eq, -1.0)
    b.term(eq, -3.0, alpha)
    sys = b.compile()
    out = solve_alpha_problem(sys, np.array([1.0]),
                              np.array([[0.0, 1.0]]), kind="ALPHA_PARAM")
    assert out[0] == pytest.approx(2.0, abs=1e-10)


def test_alpha_continuation_infeasible():
    # 0 = y^2 + alpha - 0.5: real solution ceases to exist past alpha = 0.5
    b = SystemBuilder()
    y = b.alg("y")
    alpha = b.known("alpha")
    eq = b.alg_eq("emb")
    b.term(eq, 1.0, y, y)
    b.term(eq, 1.0, alpha)
    b.term(eq, -0.5)
    sys = b.compile()
    with pytest.raises(NoConvergenceAtAlpha1, match=r"alpha=0\.49"):
        solve_alpha_problem(sys, np.array([math.sqrt(0.5)]),
                            np.array([[0.0, 1.0]]), kind="ALPHA_PARAM")


def test_alpha_chain_of_creeping_stages_stops_at_its_cap(monkeypatch):
    # 0 = y^2 - (1 + 3 alpha) has a root at alpha = 1, but each stage is cut
    # to 1e-3, or to 1/200 of the alpha reached: every stage passes the
    # minimum (1/255 of it), and the chain stops at its 256th
    import hesim.engine as engine

    b = SystemBuilder()
    y, alpha = b.alg("y"), b.known("alpha")
    eq = b.alg_eq("emb")
    b.term(eq, 1.0, y, y)
    b.term(eq, -1.0)
    b.term(eq, -3.0, alpha)
    stages = []
    solve = engine.solve_segment

    def creeping(*args):
        seg, C = solve(*args)
        stages.append(seg)
        seg.t_e = min(seg.t_e, max(1e-3, (1.0 - args[-1]) / 200))
        return seg, C

    monkeypatch.setattr(engine, "solve_segment", creeping)
    with pytest.raises(NoConvergenceAtAlpha1,
                       match=r"alpha=0\.2[0-9]*: no alpha=1 in 256 stages"):
        solve_alpha_problem(b.compile(), np.array([1.0]),
                            np.array([[0.0, 1.0]]), kind="ALPHA_PARAM")
    assert len(stages) == 256


def _alpha_systems(c):
    """y^2 + c alpha - 1 = 0, and x y = 1 with x^2 + c alpha - 1 = 0: the
    anchors at alpha = 0 and the closed-form roots at alpha = 1."""
    b = SystemBuilder()
    y, alpha = b.alg("y"), b.known("alpha")
    eq = b.alg_eq("quad")
    b.term(eq, 1.0, y, y)
    b.term(eq, c, alpha)
    b.term(eq, -1.0)
    root = math.sqrt(1.0 - c)
    yield b.compile(), np.array([1.0]), np.array([root])
    b = SystemBuilder()
    x, y, alpha = b.alg("x"), b.alg("y"), b.known("alpha")
    inv, quad = b.alg_eq("inv"), b.alg_eq("quad")
    b.term(inv, 1.0, x, y)
    b.term(inv, -1.0)
    b.term(quad, 1.0, x, x)
    b.term(quad, c, alpha)
    b.term(quad, -1.0)
    yield b.compile(), np.array([1.0, 1.0]), np.array([root, 1.0 / root])


@settings(deadline=None)
@given(st.floats(min_value=0.0, max_value=0.9999, exclude_min=True))
@example(c=0.9999)  # the branch point at alpha = 1.0001: a chain of stages
def test_alpha_chain_reaches_the_root_with_certified_stages(c):
    import hesim.engine as engine

    stages = []
    solve = engine.solve_segment

    def recording(*args):
        seg, C = solve(*args)
        stages.append(seg)
        return seg, C

    for system, anchors, root in _alpha_systems(c):
        stages.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "solve_segment", recording)
            out = solve_alpha_problem(system, anchors,
                                      np.array([[0.0, 1.0]]),
                                      kind="ALPHA_PARAM")
        np.testing.assert_allclose(out, root, rtol=1e-8)
        assert stages
        for seg in stages:  # 256 points over each stage's range
            dense = seg.residual_max_at(np.linspace(0.0, seg.t_e, 256))
            assert np.max(dense) <= _ANCHOR_TOL


def test_alpha_result_independent_of_order():
    b = SystemBuilder()
    y = b.alg("y")
    alpha = b.known("alpha")
    eq = b.alg_eq("emb")
    b.term(eq, 1.0, y, y)
    b.term(eq, -1.0)
    b.term(eq, -0.8, alpha)
    sys = b.compile()
    outs = [solve_alpha_problem(sys, np.array([1.0]), np.array([[0.0, 1.0]]),
                                kind="ALPHA_PARAM", order=n)[0]
            for n in (10, 16, 30)]
    assert np.ptp(outs) < 1e-8


def test_batch_pade_handles_constants_and_poles():
    C = np.vstack([
        np.ones(11),                      # 1/(1-t)
        np.r_[2.5, np.zeros(10)],         # constant
        [1 / math.factorial(k) for k in range(11)],  # exp
    ])
    nums, dens = batch_pade(C, 5, 5)
    t = 0.6
    def val(i):
        return (np.polynomial.polynomial.polyval(t, nums[i])
                / np.polynomial.polynomial.polyval(t, dens[i]))
    assert val(0) == pytest.approx(1.0 / (1.0 - t), abs=1e-10)
    assert val(1) == pytest.approx(2.5, abs=1e-14)
    assert val(2) == pytest.approx(math.exp(t), abs=1e-10)


def test_segment_chaining_state_is_exact():
    # evaluate at the step and restart: the state anchor is the evaluated value
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -0.7, x)
    sys = b.compile()
    seg, _ = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 15,
                           1e-8, 1.0)
    step = 0.8 * seg.t_e
    x1 = seg.values_at(step)[0]
    seg2, C2 = solve_segment(sys, np.array([x1]), np.zeros((0, 0)), 15,
                             1e-8, 1.0)
    assert C2[0, 0] == x1
    assert seg2.values_at(0.0)[sys.index["x"]] == pytest.approx(x1, abs=1e-15)


def test_he_problem_wrapper():
    # time and alpha embeddings through the one segment solver
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -2.0, x)
    sys = b.compile()
    seg, _ = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=12,
                           tol_res=1e-8, t_max=3.0)
    x_at = seg.values_at(1.0)[sys.index["x"]]
    assert x_at == pytest.approx(math.exp(-2.0), abs=1e-9)

    # alpha problems certify their range on [0, 1]
    b2 = SystemBuilder()
    y = b2.alg("y")
    al = b2.known("alpha")
    eq = b2.alg_eq("emb")
    b2.term(eq, 1.0, y)
    b2.term(eq, -1.0)
    b2.term(eq, -1.0, al)
    sys2 = b2.compile()
    seg2, _ = solve_segment(sys2, np.array([1.0]), np.array([[0.0, 1.0]]),
                            order=10, tol_res=1e-6, t_max=1.0)
    assert seg2.t_e == 1.0
    y_at = seg2.values_at(1.0)[sys2.index["y"]]
    assert y_at == pytest.approx(2.0, abs=1e-12)


def test_newton_refine_rejects_nan_state():
    # with no iteration left, only the final gate stands between a NaN
    # anchor and the caller; "r > tol" is False for r = NaN
    b = SystemBuilder()
    y = b.alg("y")
    eq = b.alg_eq("quad")
    b.term(eq, 1.0, y, y)
    b.term(eq, -4.0)
    sys = b.compile()
    with pytest.raises(AnchorInconsistent):
        sys.newton_refine(np.array([np.nan]), np.zeros(0), maxiter=0)


# --- the term kernels against per-term loops ---------------------------------

_STATES, _ALGS, _KNOWNS = ("x0", "x1", "x2"), ("y0", "y1", "y2"), ("p0", "p1")
_FACTORS = (None,) + _STATES + _ALGS + _KNOWNS


@st.composite
def _term_specs(draw):
    """(terms, seed): terms as (block, row, coeff, factor, factor) over three
    states, three algebraic unknowns and two knowns.  Always present: a
    constant, a known factor, known x known and a square; the last row of
    each block never gets a term."""
    coeff = st.floats(-2, 2).filter(lambda c: abs(c) >= 1e-3)
    terms = [("alg", 0, draw(coeff), None, None),
             ("alg", 1, draw(coeff), "p0", None),
             ("rhs", 0, draw(coeff), "p0", "p1"),
             ("rhs", 1, draw(coeff), "x0", "x0")]
    terms += draw(st.lists(st.tuples(
        st.sampled_from(["alg", "rhs"]), st.integers(0, 1), coeff,
        st.sampled_from(_FACTORS), st.sampled_from(_FACTORS)), max_size=12))
    return terms, draw(st.integers(0, 2 ** 32 - 1))


def _term_system(terms):
    b = SystemBuilder()
    ids = {None: None}
    ids.update((n, b.state(n)) for n in _STATES)
    ids.update((n, b.alg(n)) for n in _ALGS)
    ids.update((n, b.known(n)) for n in _KNOWNS)
    eqs = [b.alg_eq(f"g{i}") for i in range(len(_ALGS))]
    for block, row, c, f, g in terms:
        if block == "alg":
            b.term(eqs[row], c, ids[f], ids[g])
        else:
            b.rhs_term(ids[_STATES[row]], c, ids[f], ids[g])
    return b.compile()


@settings(max_examples=150, deadline=None)
@given(_term_specs())
@example(([("rhs", 0, 1.5, "x1", "x1")], 0))        # square at k > 0
@example(([("alg", 0, -0.5, None, None)], 1))       # constant at k > 0
def test_term_kernels_match_per_term_loops(spec):
    terms, seed = spec
    sys = _term_system(terms)
    rng = np.random.default_rng(seed)
    order, n_pts = 5, 3
    C = sys._table(rng.normal(size=sys.nv), rng.normal(size=(sys.nk, 4)),
                   order)
    C[: sys.nv, 1:] = rng.normal(size=(sys.nv, order))
    vals = rng.normal(size=(sys.nv, n_pts))
    kvals = rng.normal(size=(sys.nk, n_pts))

    def read(name):
        """(series, point values) of a factor; an absent one reads 1."""
        if name is None:
            return np.eye(1, order + 1)[0], np.ones(n_pts)
        if name in sys.index:
            return C[sys.index[name]], vals[sys.index[name]]
        return C[sys.nv + _KNOWNS.index(name)], kvals[_KNOWNS.index(name)]

    for kind, n_rows in (("alg", sys.n_alg), ("rhs", sys.n_state)):
        mine = [t for t in terms if t[0] == kind]
        for k in range(order + 1):
            want, size = np.zeros(n_rows), np.zeros(n_rows)
            for _, row, c, f, g in mine:
                a, b = read(f)[0], read(g)[0]
                prods = [c * a[j] * b[k - j] for j in range(k + 1)]
                want[row] += sum(prods)
                size[row] += sum(abs(x) for x in prods)
            got = sys._coeff_of(kind, C, k, n_rows)
            assert np.all(np.abs(got - want) <= 1e-13 * size)
        # one point and P points at once
        want, size = np.zeros((n_rows, n_pts)), np.zeros((n_rows, n_pts))
        jac, jsize = np.zeros((n_pts, n_rows, sys.nv)), 0.0
        for _, row, c, f, g in mine:
            a, b = read(f)[1], read(g)[1]
            want[row] += c * a * b
            size[row] += np.abs(c * a * b)
            for u, other in ((f, b), (g, a)):  # d/du of c*f*g
                if u in sys.index:
                    jac[:, row, sys.index[u]] += c * other
                    jsize = max(jsize, np.max(np.abs(c * other)))
        ext = sys._ext(vals, kvals)
        got = sys._rows_at_point(kind, ext, n_rows)
        assert np.all(np.abs(got - want) <= 1e-13 * size)
        assert not got[-1].any()  # the row with no terms
        for p in range(n_pts):
            got = sys._rows_at_point(kind, ext[:, p], n_rows)
            assert np.all(np.abs(got - want[:, p]) <= 1e-13 * size[:, p])
            J = sys._term_jacobian(kind, ext[:, p], n_rows)
            assert np.all(np.abs(J - jac[p]) <= 1e-13 * jsize)


def _reference_min_real_positive_root(nums, dens, limit):
    """The pole screen one row and one root at a time, via polyroots."""
    best = np.inf
    for num, den in zip(nums, dens):
        c = np.trim_zeros(den, "b")
        if len(c) < 2:
            continue
        scale = max(1.0, float(np.max(np.abs(num))))
        dc = c[1:] * np.arange(1, len(c))
        for r in np.polynomial.polynomial.polyroots(c):
            if abs(r.imag) > 1e-9 * (1.0 + abs(r.real)):
                continue
            x = r.real
            if not (1e-12 < x <= limit):
                continue
            nv = abs(np.polynomial.polynomial.polyval(x, num))
            dv = abs(np.polynomial.polynomial.polyval(x, dc))
            if nv / max(dv, 1e-300) > 1e-9 * scale:
                best = min(best, x)
    return best


def test_pole_screen_matches_per_row_polyroots():
    rng = np.random.default_rng(11)
    for trial in range(200):
        rows = int(rng.integers(1, 12))
        width = int(rng.integers(2, 9))
        dens = rng.normal(size=(rows, width))
        dens[:, 0] = 1.0
        # mixed trimmed degrees, including constant denominators
        for i in range(rows):
            dens[i, int(rng.integers(1, width + 1)):] = 0.0
        nums = rng.normal(size=(rows, width + 2))
        # spurious zero-pole pairs: numerator vanishing at a positive pole
        pair = rng.random(rows) < 0.3
        for i in np.flatnonzero(pair):
            x0 = rng.uniform(0.05, 2.0)
            dens[i, :] = 0.0
            dens[i, :2] = [1.0, -1.0 / x0]
            nums[i, :] = 0.0
            nums[i, :2] = [1.0, -1.0 / x0]
        limit = rng.uniform(0.1, 5.0)
        poles, _ = min_real_positive_root(nums, dens, limit)
        got = float(np.min(poles, initial=np.inf))
        assert got == _reference_min_real_positive_root(nums, dens, limit)


def test_pole_screen_on_kernel_output():
    # 1/(1-t/0.8) has a genuine pole at 0.8; exp and a constant have none
    C = np.vstack([0.8 ** -np.arange(16.0),
                   [1 / math.factorial(k) for k in range(16)],
                   np.r_[2.0, np.zeros(15)]])
    nums, dens = batch_pade(C, 7, 7)
    for limit in (0.5, 1.0, 3.0):
        poles, _ = min_real_positive_root(nums, dens, limit)
        got = float(np.min(poles, initial=np.inf))
        assert got == _reference_min_real_positive_root(nums, dens, limit)
    assert got == pytest.approx(0.8, rel=1e-9)  # at limit 3.0


# kinds of placed root in (0, limit]; "above" and "none" place none there
_INSIDE = ("below", "at", "near_zero", "double", "pair")


def _placed_dens(kind, limit, frac, q, outside):
    """Denominator stack (den[0] = 1): a row with the placed root or pair and
    the outside roots, the outside roots alone (of lower degree, zero-padded)
    and a NaN row.  The outside roots are limit * r, every r in ``outside``
    outside (0, 1]; a pair sits at limit * frac * (1 +- i 10^-q)."""
    P = np.polynomial.polynomial
    x = limit * frac
    placed = {"below": [limit * (1 - 1e-9)], "at": [limit],
              "above": [limit * (1 + 1e-9)], "near_zero": [limit * 1e-9],
              "double": [x, x]}.get(kind, [])
    rest = P.polyfromroots([limit * r for r in outside])
    rows = [P.polymul(P.polyfromroots(placed), rest), rest]
    if kind == "pair":
        rows[0] = P.polymul(rows[0], [x * x * (1 + 10.0 ** (-2 * q)),
                                      -2 * x, 1])
    dens = np.full((3, len(rows[0])), np.nan)
    for i, c in enumerate(rows):
        dens[i] = 0.0
        dens[i, : len(c)] = c / c[0]
    return dens


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(_INSIDE + ("above", "none")),
       limit=st.floats(1e-3, 1e3),
       frac=st.floats(0.01, 0.95),
       q=st.integers(3, 12),
       outside=st.lists(st.one_of(st.floats(-50.0, -0.02),
                                  st.floats(1.5, 50.0)), max_size=8))
@example(kind="at", limit=1.0, frac=0.5, q=3, outside=[])
@example(kind="above", limit=2.0, frac=0.5, q=3, outside=[-1.0, 3.0])
@example(kind="double", limit=0.1, frac=0.95, q=3, outside=[1.5, -0.02])
@example(kind="pair", limit=10.0, frac=0.9, q=12, outside=[2.0])
@example(kind="near_zero", limit=1e-3, frac=0.5, q=3, outside=[-50.0])
def test_sign_test_clears_no_row_with_a_root_in_range(kind, limit, frac, q,
                                                      outside):
    dens = _placed_dens(kind, limit, frac, q, outside)
    clear = _pole_free(dens, limit)
    # the outside roots map to s in [-3, -0.0196]: each factor's
    # coefficients lose at most a factor 5 to cancellation, far above the
    # rounding bound, so their row is always cleared
    assert clear[1] and not clear[2]  # and never the NaN row
    for row in dens[:-1][clear[:-1]]:
        # loose on the imaginary part: a double root splits by ~sqrt(eps)
        r = np.polynomial.polynomial.polyroots(np.trim_zeros(row, "b"))
        real = np.abs(r.imag) <= 1e-6 * np.abs(r.real)
        assert not np.any(real & (r.real > 0.0) & (r.real <= limit))
    if kind in _INSIDE:
        assert not clear[0]


def _forced_state(f, order):
    """y' = p(t) with p the derivative series of f; returns (system, anchors,
    known coefficients) of a segment whose exact solution is f."""
    b = SystemBuilder()
    y = b.state("y")
    b.rhs_term(y, 1.0, b.known("p"))
    p = f[1:] * np.arange(1, len(f))
    return b.compile(), f[:1].copy(), p[None, : order + 1].copy()


def test_spurious_pole_is_refitted_and_does_not_cap_the_range():
    # exp(-t) + 1e-12 / (1 - 2t): the pole at 0.5 carries a residue far
    # below the row scale, so the (7,7) approximant holds a near-cancelling
    # pole-zero pair there; left in, its spike falls between the probes
    # (t_e 0.625 with a residual of 1e-2 near 0.5)
    order, a = 15, 0.5
    k = np.arange(order + 2)
    f = (np.array([(-1.0) ** i / math.factorial(i) for i in k])
         + 1e-12 * a ** -k)
    sys, anchors, kc = _forced_state(f, order)
    nums, dens = batch_pade(sys.solve_series(anchors, kc, order)[:1], 7, 7)
    poles, spurious = min_real_positive_root(nums, dens, 1.0)
    assert spurious.tolist() == [True] and poles.tolist() == [np.inf]
    seg, _ = solve_segment(sys, anchors, kc, order, 1e-6, 1.0)
    assert seg.refit == 1
    roots = np.polynomial.polynomial.polyroots(np.trim_zeros(seg.pade_den[0],
                                                             "b"))
    assert not np.any((np.abs(roots.imag) < 1e-9) & (roots.real > 0)
                      & (roots.real <= 1.0))
    assert seg.t_cap == 1.0 and seg.t_e > a
    ts = np.r_[np.linspace(0.0, seg.t_e, 256), a + np.linspace(-1e-4, 1e-4, 41)]
    assert np.max(seg.residual_max_at(ts)) <= 1e-6


def test_nan_probe_fails_its_range(monkeypatch):
    # x' = 1 - x at its equilibrium certifies all of t_max; a NaN probe
    # residual fails its whole range, never passing a "<=" check
    from hesim.engine import SegmentSolution

    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    b.rhs_term(x, 1.0)
    sys = b.compile()
    probe = SegmentSolution.residual_max_at

    def solve_with_nan(where):
        calls = []

        def patched(seg, t):
            res = probe(seg, t)
            res[where(len(calls))] = np.nan
            calls.append(t)
            return res
        monkeypatch.setattr(SegmentSolution, "residual_max_at", patched)
        return solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 10,
                             1e-8, 2.0)[0].t_e

    assert solve_with_nan(lambda call: []) == 2.0
    # the first range's end point: the next range of the ladder
    assert solve_with_nan(lambda call: 8) == 2.0 * 2.0 ** (-1 / 8)
    # a probe of the first range at 1.8315, just below the second range's
    # end 1.8340: the second range passes its own probes but holds the
    # failed one, so the third is taken
    assert solve_with_nan(lambda call: 1) == 2.0 * 2.0 ** (-2 / 8)
    # every end point of the first call's 17 ranges: the second call's
    # largest range lies below them all
    assert solve_with_nan(lambda call: slice(8, None, 9) if call == 0
                          else []) == 2.0 * 2.0 ** (-17 / 8)
    with pytest.raises(NoValidRange):
        solve_with_nan(lambda call: slice(None))


def test_range_below_failing_probes_of_every_call(monkeypatch):
    # x' = 1 - x at its equilibrium, with the probe residual failing on
    # [0.2, 0.25] and [0.073, 0.076]: the first call finds no range below
    # 0.2, and the second must not take a range holding a failed probe
    # of [0.073, 0.076] (0.078125 would hold the failed probe at 0.0747)
    from hesim.engine import SegmentSolution

    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    b.rhs_term(x, 1.0)
    sys = b.compile()
    probe = SegmentSolution.residual_max_at
    failed = []

    def patched(seg, t):
        bad = ((t >= 0.2) & (t <= 0.25)) | ((t >= 0.073) & (t <= 0.076))
        failed.extend(t[bad])
        return np.where(bad, 1.0, probe(seg, t))

    monkeypatch.setattr(SegmentSolution, "residual_max_at", patched)
    t_e = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 10,
                        1e-8, 1.0)[0].t_e
    assert t_e == 2.0 ** (-31 / 8) and t_e < min(failed)


def test_solve_segment_solves_once_at_the_given_order(monkeypatch):
    # x' = 1 - x at its equilibrium, every probe failing: one series solve
    # at the given order, then NoValidRange.  A singular anchor Jacobian
    # raises from that same one solve.
    from hesim.engine import CompiledSystem, SegmentSolution
    from hesim.errors import SingularJacobian

    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -1.0, x)
    b.rhs_term(x, 1.0)
    sys = b.compile()
    probe = SegmentSolution.residual_max_at
    series = CompiledSystem.solve_series
    solved = []

    def counted(system, anchors, kcoeffs, order):
        solved.append(order)
        return series(system, anchors, kcoeffs, order)

    monkeypatch.setattr(CompiledSystem, "solve_series", counted)
    monkeypatch.setattr(SegmentSolution, "residual_max_at",
                        lambda seg, t: probe(seg, t) + 1.0)
    with pytest.raises(NoValidRange):
        solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 10, 1e-8, 2.0)
    assert solved == [10]

    b = SystemBuilder()
    y = b.alg("y")
    b.term(b.alg_eq("square"), 1.0, y, y)  # y^2 = 0: zero Jacobian at 0
    singular = b.compile()
    solved.clear()
    with pytest.raises(SingularJacobian):
        solve_segment(singular, np.array([0.0]), np.zeros((0, 0)), 10, 1e-8,
                      1.0)
    assert solved == [10]


@pytest.mark.parametrize("bump, worst", [
    ([1.0, 0.0], "d/dt x"), ([0.0, 1.0], "link"), ([1.0, math.nan], "link")],
    ids=["state", "algebraic", "nan"])
def test_failing_segment_names_its_worst_row(monkeypatch, bump, worst):
    # the all-probes-fail segment of the test above, with an algebraic row
    # y = x: NoValidRange names the row with the largest |residual| at the
    # end of the smallest range (a NaN row is the largest), a state row as
    # d/dt <var> and an algebraic row by its equation
    from hesim.engine import CompiledSystem, SegmentSolution

    b = SystemBuilder()
    x, y = b.state("x"), b.alg("y")
    b.rhs_term(x, -1.0, x)
    b.rhs_term(x, 1.0)
    link = b.alg_eq("link")
    b.term(link, 1.0, y)
    b.term(link, -1.0, x)
    sys = b.compile()
    probe, residual = SegmentSolution.residual_max_at, CompiledSystem.residual

    def bumped(system, values, dvalues, kvalues):
        r = residual(system, values, dvalues, kvalues)
        return r + np.reshape(bump, (2,) + (1,) * (r.ndim - 1))

    monkeypatch.setattr(SegmentSolution, "residual_max_at",
                        lambda seg, t: probe(seg, t) + 1.0)
    monkeypatch.setattr(CompiledSystem, "residual", bumped)
    with pytest.raises(NoValidRange) as err:
        solve_segment(sys, np.array([1.0, 1.0]), np.zeros((0, 0)), 10, 1e-8,
                      2.0)
    # t_max * 2^-20, the end of the smallest range, where the row is read
    assert str(err.value) == (f"residual above 1.00e-08 even at t=1.907e-06 "
                              f"(worst: {worst})")


# --- the dense algebraic Jacobian -----------------------------------------------


@pytest.mark.parametrize("name", ["fourbus", "ne39"])
@pytest.mark.parametrize("mode", ["dynamic", "qss"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_alg_jacobian_matches_central_difference(name, mode, perturbed):
    from hesim.caseio import builtin_case
    from hesim.model import build_system, init_equilibrium

    case, _ = builtin_case(name)
    st = init_equilibrium(case, mode)
    built = build_system(case, st)
    sys = built.system
    v = built.anchors(st)
    kv = built.knowns(st, st.t)[:, 0] if sys.nk else np.zeros(0)
    if perturbed:
        v = v + np.random.default_rng(5).uniform(-0.05, 0.05, v.shape)
    J = sys.alg_jacobian(v, kv)
    assert J.shape == (sys.n_alg, sys.n_alg)
    assert np.array_equal(J, sys.full_jacobian(v, kv)[1][:, sys.alg_slots])
    # the one-pass sum adds each cell's entries in the order two np.add.at
    # passes (a factors, then b factors) did: the same bits
    ext = sys._ext(v, kv)
    for kind, n_rows in (("alg", sys.n_alg), ("rhs", sys.n_state)):
        rows, coeffs, a, b = sys.terms[kind]
        ref = np.zeros((n_rows, sys.nv))
        for f, g in ((a, b), (b, a)):
            m = f < sys.nv
            np.add.at(ref, (rows[m], f[m]), coeffs[m] * ext[g[m]])
        assert np.array_equal(sys._term_jacobian(kind, ext, n_rows), ref)
    # the residual is at most bilinear in the unknowns, so the central
    # difference is exact up to rounding
    h = 1e-3
    fd = np.empty_like(J)
    for j, slot in enumerate(sys.alg_slots):
        vp, vm = v.copy(), v.copy()
        vp[slot] += h
        vm[slot] -= h
        fd[:, j] = (sys.alg_residual(vp, kv) - sys.alg_residual(vm, kv)) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-9 * max(1.0, np.max(np.abs(J)))


# --- the one evaluation table against per-part Horner passes ----------------


def _horner_ref(c, t):
    out = c[-1] + 0.0 * t
    for ck in c[-2::-1]:
        out = out * t + ck
    return out


def _rows_ref(coeffs, t):
    t = np.asarray(t, dtype=float)
    return _horner_ref(coeffs.T.reshape(coeffs.shape[::-1] + (1,) * t.ndim), t)


def _deriv_ref(coeffs):
    if coeffs.shape[1] < 2:
        return np.zeros_like(coeffs)
    return coeffs[:, 1:] * np.arange(1, coeffs.shape[1])


def _residual_max_ref(seg, t):
    """The certificate as seven Horner passes, one per coefficient table:
    numerators, denominators, the state rows' numerators, denominators and
    both derivatives, and the known inputs."""
    den = _rows_ref(seg.pade_den, t)
    vals = _rows_ref(seg.pade_num, t) / np.where(np.abs(den) < 1e-12,
                                                  np.nan, den)
    st = seg.system.state_slots
    n, d = seg.pade_num[st], seg.pade_den[st]
    dv = _rows_ref(d, t)
    dvals = (_rows_ref(_deriv_ref(n), t) * dv
             - _rows_ref(n, t) * _rows_ref(_deriv_ref(d), t)) / (dv * dv)
    known = (np.zeros((0,) + np.shape(t)) if seg.kcoeffs.size == 0
             else _rows_ref(seg.kcoeffs, t))
    r = seg.system.residual(vals, dvals, known)
    worst = np.max(np.abs(r), axis=0, initial=0.0)
    finite = np.all(np.isfinite(vals), axis=0) & np.isfinite(worst)
    out = np.where(finite, worst, np.inf)
    return (out if np.ndim(t) else float(out)), vals, known


def _check_against_reference(seg, t, got):
    want, vals, known = _residual_max_ref(seg, t)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(seg.values_at(t), vals)
    np.testing.assert_array_equal(seg.evaluate(t)[1], known)


@pytest.mark.parametrize("name, t_end", [("fourbus", 40.0), ("ne39", 20.0)])
def test_residual_probes_match_per_table_horner(monkeypatch, name, t_end):
    # every probe call of a hybrid run: the range certificate's Chebyshev
    # sets, of the segments and of each switch's alpha stages
    from hesim.caseio import builtin_case
    from hesim.engine import SegmentSolution
    from hesim.scheduler import RunConfig, run_simulation

    calls = []
    probe = SegmentSolution.residual_max_at

    def checked(seg, t):
        got = probe(seg, t)
        _check_against_reference(seg, t, got)
        calls.append((seg, np.atleast_1d(t)))  # holds seg: ids stay unique
        return got

    monkeypatch.setattr(SegmentSolution, "residual_max_at", checked)
    case, script = builtin_case(name)
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=t_end))
    assert traj.failure is None
    probed = {id(seg) for seg, _ in calls}
    modes = {rec.mode for rec in traj.segments if id(rec.sol) in probed}
    assert {"dynamic", "qss"} <= modes or name == "ne39"
    assert sum(t.size for _, t in calls) > 500  # probe times checked
    if name == "ne39":  # switching events: alpha stages, outside the records
        segments = {id(rec.sol) for rec in traj.segments}
        assert any(id(seg) not in segments for seg, _ in calls)


# --- the range certificate between its probes ----------------------------


def _dense_residual(seg, step):
    return float(np.max(seg.residual_max_at(np.linspace(0.0, step, 256))))


@functools.cache
def _hybrid_run(name, t_end):
    """A hybrid run of a built-in case; read it, do not change it."""
    from hesim.caseio import builtin_case
    from hesim.scheduler import RunConfig, run_simulation

    case, script = builtin_case(name)
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=t_end))
    assert traj.failure is None
    return traj, script


def _dense_audit(name, t_end):
    """(t0, dense residual) of every segment, either mode, that exceeds
    the run's tol_res at 256 points over the step taken."""
    from hesim.scheduler import RunConfig

    traj, _ = _hybrid_run(name, t_end)
    tol_res = RunConfig().tol_res
    return [(rec.t0, r) for rec in traj.segments
            if not (r := _dense_residual(rec.sol, rec.step)) <= tol_res]


def test_range_certificate_holds_densely_on_ne39_hybrid():
    # every accepted segment of ne39 hybrid 0-40 s, 256 points over the
    # step taken: with spurious poles left in, 5 of them spike between
    # their probes
    assert not _dense_audit("ne39", 40.0)


def test_range_certificate_holds_densely_on_fourbus_hybrid():
    # the fourbus-hybrid benchmark run, 0-75 s, its QSS segments included
    traj, _ = _hybrid_run("fourbus", 75.0)
    assert {rec.mode for rec in traj.segments} == {"dynamic", "qss"}
    assert not _dense_audit("fourbus", 75.0)


@pytest.mark.parametrize("name, t_end", [("ne39", 56.0), ("fourbus", 75.0)])
def test_every_uncut_step_is_its_certified_range(name, t_end):
    # a step ends at t_e, the end point its range certificate probed,
    # unless the gap to a timed event or the end (or a trigger) cuts it;
    # ne39 runs to 56 s, as 0-40 s holds only 10 residual-limited steps
    traj, script = _hybrid_run(name, t_end)
    cuts = [t_end] + [e.t_due for e in script if e.t_due is not None] + [
        ev.t for ev in traj.events if ev.kind == "conditional"]
    uncut = [rec for rec in traj.segments
             if not any(abs(rec.t1 - c) <= 1e-9 for c in cuts)]
    assert sum(rec.sol.t_e < rec.sol.t_cap for rec in uncut) > 10
    assert [(rec.t0, rec.step, rec.sol.t_e) for rec in uncut
            if rec.step != rec.sol.t_e] == []


def test_range_certificate_holds_densely_at_ne39_worst_anchor(monkeypatch):
    # the worst anchor of ne39 hybrid 0-40 s while steps were 0.9 t_e: at
    # 7.971352229493641 s, with spurious poles left in, the step taken
    # reaches 148 x tol_res; the anchor is kept fixed, not a segment start
    from hesim.caseio import builtin_case
    from hesim.model import build_system, init_equilibrium
    from hesim.scheduler import MAX_STEP_DYN, RunConfig

    t0 = 7.971352229493641
    case, script = builtin_case("ne39")
    config = RunConfig(mode="hybrid", t_end=t0)
    state = init_equilibrium(case)
    assert run_from(monkeypatch, case, script, config, state).failure is None
    assert state.mode == "dynamic"
    t_max = min([MAX_STEP_DYN] + [e.t_due - t0 for e in script
                                  if e.t_due and e.t_due > t0])
    built = build_system(case, state)
    seg, _ = solve_segment(built.system, built.anchors(state),
                           built.knowns(state, t0), config.order,
                           config.tol_res, t_max)
    assert _dense_residual(seg, min(seg.t_e, t_max)) <= config.tol_res


def test_residual_probes_match_reference_on_non_finite_rows():
    b = SystemBuilder()
    x = b.state("x")
    y = b.alg("y")
    p = b.known("p")
    eq = b.alg_eq("y")
    b.rhs_term(x, -0.5, x)
    b.rhs_term(x, 1.0, p)
    b.term(eq, 1.0, y)
    b.term(eq, -2.0, x)
    sys = b.compile()
    kc = np.zeros((1, 16))
    kc[0, :2] = [0.1, 0.3]
    seg, _ = solve_segment(sys, np.array([1.0, 2.0]), kc, 15, 1e-8, 1.0)
    ts = np.linspace(0.0, 1.0, 9)
    for t in (ts, 0.3):
        _check_against_reference(seg, t, seg.residual_max_at(t))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for row, part, k, bad in ((0, "pade_num", 3, np.nan),
                                  (1, "pade_den", 2, np.inf),
                                  (0, "pade_den", 0, 0.0),
                                  (1, "pade_num", -1, -np.inf)):
            seg = _with_entry(seg, part, row, k, bad)
            for t in (ts, 0.3):
                _check_against_reference(seg, t, seg.residual_max_at(t))
            assert np.all(seg.residual_max_at(ts) == np.inf)
        # a NaN known coefficient reaches every residual through the x row
        seg = _with_entry(seg, "kcoeffs", 0, 5, np.nan)
        _check_against_reference(seg, ts, seg.residual_max_at(ts))


def _with_entry(seg, part, row, k, value):
    """The segment rebuilt with one coefficient of a part changed at the
    series width (a finished segment's rows are read-only); the rebuilt
    part, trimmed to its used degree, keeps every nonzero entry."""
    coeffs = padded(getattr(seg, part), 16)
    coeffs[row, k] = value
    seg = dataclasses.replace(seg, **{part: coeffs})
    np.testing.assert_array_equal(padded(getattr(seg, part), 16), coeffs)
    return seg
