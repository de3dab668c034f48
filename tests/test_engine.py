"""Embedding engine: order recursion, segments, alpha continuation."""

import math

import numpy as np
import pytest

from hesim.engine import (
    SystemBuilder,
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


def test_anchor_inconsistent_raises():
    b = SystemBuilder()
    y = b.alg("y")
    eq = b.alg_eq("pin")
    b.term(eq, 1.0, y)
    b.term(eq, -2.0)
    sys = b.compile()
    with pytest.raises(AnchorInconsistent):
        sys.solve_series(np.array([0.0]), np.zeros((0, 0)), 3)


def test_segment_effective_range_and_eval():
    # pole of 1/(1-t): series certifies less than 1, Pade extends accuracy
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, 1.0, x, x)
    sys = b.compile()
    seg = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=15,
                        kind="TIME_DYNAMIC", tol_res=1e-6, t_max=2.0)
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
    seg = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=10,
                        kind="TIME_DYNAMIC", tol_res=1e-8, t_max=5.0)
    assert seg.t_e == 5.0
    assert np.allclose(seg.C[0][1:], 0.0, atol=1e-14)


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
    with pytest.raises(NoConvergenceAtAlpha1):
        solve_alpha_problem(sys, np.array([math.sqrt(0.5)]),
                            np.array([[0.0, 1.0]]), kind="ALPHA_PARAM")


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
    seg = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 15,
                        "TIME_DYNAMIC", 1e-8, 1.0)
    step = 0.8 * seg.t_e
    x1 = seg.values_at(step)[0]
    seg2 = solve_segment(sys, np.array([x1]), np.zeros((0, 0)), 15,
                         "TIME_DYNAMIC", 1e-8, 1.0)
    assert seg2.C[0, 0] == x1
    assert seg2.values_at(0.0)[sys.index["x"]] == pytest.approx(x1, abs=1e-15)


def test_he_problem_wrapper():
    # time and alpha embeddings through the one segment solver
    b = SystemBuilder()
    x = b.state("x")
    b.rhs_term(x, -2.0, x)
    sys = b.compile()
    seg = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), order=12,
                        kind="TIME_DYNAMIC", tol_res=1e-8, t_max=3.0)
    assert seg.kind == "TIME_DYNAMIC"
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
    seg2 = solve_segment(sys2, np.array([1.0]), np.array([[0.0, 1.0]]),
                         order=10, kind="ALPHA_PARAM", tol_res=1e-6, t_max=1.0)
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
    seg = solve_segment(sys, anchors, kc, order, "TIME_DYNAMIC", 1e-6, 1.0)
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

        def patched(seg, t, table=None):
            res = probe(seg, t, table)
            res[where(len(calls))] = np.nan
            calls.append(t)
            return res
        monkeypatch.setattr(SegmentSolution, "residual_max_at", patched)
        return solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 10,
                             "TIME_DYNAMIC", 1e-8, 2.0).t_e

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

    def patched(seg, t, table=None):
        bad = ((t >= 0.2) & (t <= 0.25)) | ((t >= 0.073) & (t <= 0.076))
        failed.extend(t[bad])
        return np.where(bad, 1.0, probe(seg, t, table))

    monkeypatch.setattr(SegmentSolution, "residual_max_at", patched)
    t_e = solve_segment(sys, np.array([1.0]), np.zeros((0, 0)), 10,
                        "TIME_DYNAMIC", 1e-8, 1.0).t_e
    assert t_e == 2.0 ** (-31 / 8) and t_e < min(failed)


# --- the dense algebraic Jacobian -----------------------------------------------


@pytest.mark.parametrize("name", ["fourbus", "ne39"])
@pytest.mark.parametrize("mode", ["dynamic", "qss"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_alg_jacobian_matches_central_difference(name, mode, perturbed):
    from hesim.caseio import builtin_case
    from hesim.model import build_system, init_equilibrium

    case, _ = builtin_case(name)
    st = init_equilibrium(case)
    built = build_system(case, st, mode)
    sys = built.system
    v = built.anchors(st)
    kv = built.knowns(st, st.t, 1)[:, 0] if sys.nk else np.zeros(0)
    if perturbed:
        v = v + np.random.default_rng(5).uniform(-0.05, 0.05, v.shape)
    J = sys.alg_jacobian(v, kv)
    assert J.shape == (sys.n_alg, sys.n_alg)
    assert np.array_equal(J, sys.full_jacobian(v, kv)[1][:, sys.alg_slots])
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


# --- the stacked evaluator against per-table Horner passes ----------------


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
    # sets and the alpha checkpoints of each switching event
    from hesim.caseio import builtin_case
    from hesim.engine import SegmentSolution
    from hesim.scheduler import RunConfig, run_simulation

    calls = []
    probe = SegmentSolution.residual_max_at

    def checked(seg, t, table=None):
        got = probe(seg, t, table)
        _check_against_reference(seg, t, got)
        calls.append((seg.kind, np.size(t)))
        return got

    monkeypatch.setattr(SegmentSolution, "residual_max_at", checked)
    case, script = builtin_case(name)
    traj = run_simulation(case, script, RunConfig(mode="hybrid", t_end=t_end))
    assert traj.failure is None
    kinds = {k for k, _ in calls}
    assert {"TIME_DYNAMIC", "TIME_QSS"} <= kinds or name == "ne39"
    assert sum(n for _, n in calls) > 500  # probe times checked
    if name == "ne39":  # switching events: alpha checkpoints
        assert any(k.startswith("ALPHA") for k in kinds)


# --- the range certificate between its probes ----------------------------


def _dense_residual(seg, step):
    return float(np.max(seg.residual_max_at(np.linspace(0.0, step, 256))))


def test_range_certificate_holds_densely_on_ne39_hybrid():
    # every accepted dynamic segment of ne39 hybrid 0-40 s, 256 points over
    # the step taken: with spurious poles left in, 5 of them spike between
    # their probes
    from hesim.caseio import builtin_case
    from hesim.scheduler import RunConfig, run_simulation

    case, script = builtin_case("ne39")
    config = RunConfig(mode="hybrid", t_end=40.0)
    traj = run_simulation(case, script, config)
    assert traj.failure is None
    over = [(rec.t0, r) for rec in traj.segments if rec.mode == "dynamic"
            if not (r := _dense_residual(rec.sol, rec.step)) <= config.tol_res]
    assert not over


def test_range_certificate_holds_densely_at_ne39_worst_anchor():
    # the worst of them: anchored at 7.971352229493641 s, with spurious
    # poles left in, the step taken reaches 148 x tol_res
    from hesim.caseio import builtin_case
    from hesim.model import build_system, init_equilibrium
    from hesim.scheduler import RunConfig, _solve_with_ladder, run_simulation

    t0 = 7.971352229493641
    case, script = builtin_case("ne39")
    config = RunConfig(mode="hybrid", t_end=t0)
    state = init_equilibrium(case)
    assert run_simulation(case, script, config, state).failure is None
    assert state.mode == "dynamic"
    t_max = min([config.max_step_dyn] + [e.t_due - t0 for e in script
                                         if e.t_due and e.t_due > t0])
    built = build_system(case, state, state.mode)
    seg = _solve_with_ladder(built, state, t0, config.order, "TIME_DYNAMIC",
                             config.tol_res, t_max)
    step = t_max if seg.t_e >= t_max else config.step_safety * seg.t_e
    assert _dense_residual(seg, step) <= config.tol_res


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
    seg = solve_segment(sys, np.array([1.0, 2.0]), kc, 15, "TIME_DYNAMIC",
                        1e-8, 1.0)
    ts = np.linspace(0.0, 1.0, 9)
    for t in (ts, 0.3):
        _check_against_reference(seg, t, seg.residual_max_at(t))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for row, table, k, bad in ((0, "pade_num", 3, np.nan),
                                   (1, "pade_den", 2, np.inf),
                                   (0, "pade_den", 0, 0.0),
                                   (1, "pade_num", -1, -np.inf)):
            getattr(seg, table)[row, k] = bad
            for t in (ts, 0.3):
                _check_against_reference(seg, t, seg.residual_max_at(t))
            assert np.all(seg.residual_max_at(ts) == np.inf)
        # a NaN known coefficient reaches every residual through the x row
        seg.kcoeffs[0, 5] = np.nan
        _check_against_reference(seg, ts, seg.residual_max_at(ts))
