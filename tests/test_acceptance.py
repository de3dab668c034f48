"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failed criterion fails its test.
"""

import copy
import time

import numpy as np

import hesim.model as mdl
from hesim import scheduler
from conftest import make_smib, monitored_names, padded
from hesim.bounds import poly_bounds, steady_state_check, verdict_from_deltas
from hesim.caseio import builtin_case
from hesim.grid import LoadSpec
from hesim.model import (
    DYNAMIC,
    QSS,
    apply_add_branch,
    apply_add_shunt,
    apply_branch_param,
    apply_cut_branch,
    build_system,
    init_equilibrium,
    refine_state,
)
from hesim.reference import (
    DaeModel,
    TwoBusCase,
    integrate_reference,
    linear_crossing,
    two_bus_current_sq,
    two_bus_event_time,
)
from hesim.scheduler import (
    Condition,
    RunConfig,
    SimEvent,
    locate_conditional_event,
    run_simulation,
)
from hesim.series import batch_pade


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# --------------------------------------------------------------------------
# 1. two-bus event-time accuracy vs the closed form and the fixed-step
#    baselines
# --------------------------------------------------------------------------


def test_criterion_1_twobus_event_times(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_STEP_QSS", 4.0)
    t0 = time.perf_counter()
    tb = TwoBusCase()
    case, _ = builtin_case("twobus")
    script = [SimEvent(kind="ramp_load", t_due=0.0,
                       payload={"load": "LD2", "rate": 1.0})]
    traj = run_simulation(case, script,
                          RunConfig(mode="qss", t_end=15.4))
    assert traj.failure is None

    # 20 thresholds spanning the loading range, jittered off any grid phase
    t_targets = (np.linspace(0.61, 15.18, 20)
                 + 0.00471 * np.cos(2.39996 * np.arange(20) + 0.7))
    thresholds = np.array([np.sqrt(two_bus_current_sq(tb, t))
                           for t in t_targets])

    def he_crossing(i_th):
        cond = Condition.parse(f"I(1,2) > {float(i_th)!r}")
        for rec in traj.segments:
            hits = locate_conditional_event(rec, [cond], tol=1e-12)
            if hits and hits[0][1] > 0.0:
                return rec.t0 + hits[0][1]
        return None

    # fixed-step baselines: per-step algebraic solves on the same model,
    # event time recovered by linear interpolation of the sampled current
    st = init_equilibrium(case, mode=QSS)
    st.ramps.append(mdl.Ramp("load:LD2", 1.0, 0.0))
    built = build_system(case, st)
    model = DaeModel(built, st)
    y_br = 1.0 / complex(0.01, 0.05)

    def sampled_current(method):
        out = integrate_reference(model, (0.0, 15.4), method, h=0.01)
        v1 = out.col("vx:1") + 1j * out.col("vy:1")
        v2 = out.col("vx:2") + 1j * out.col("vy:2")
        return out.ts, np.abs(y_br * (v1 - v2))

    grids = {m: sampled_current(m) for m in ("modified-euler", "trapezoidal")}

    worst_he = 0.0
    for i_th in thresholds:
        t_true = two_bus_event_time(tb, i_th)
        t_he = he_crossing(i_th)
        assert t_he is not None
        err_he = abs(t_he - t_true)
        worst_he = max(worst_he, err_he)
        assert err_he < 1e-4
        for m, (ts, cur) in grids.items():
            t_m = linear_crossing(ts, cur - i_th)
            assert t_m is not None
            err_m = abs(t_m - t_true)
            assert err_he < err_m, (i_th, m, err_he, err_m)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    _report(1, f"20 thresholds, worst HE error {worst_he:.2e} s "
               f"(< 1e-4), always below ME/TRAP; {wall:.1f} s")


# --------------------------------------------------------------------------
# 2. interval-Horner soundness on random polynomials
# --------------------------------------------------------------------------


def test_criterion_2_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n_polys = 10_000
    samples = 10_000
    violations = 0
    chunk = 250
    done = 0
    while done < n_polys:
        m = min(chunk, n_polys - done)
        degs = rng.integers(1, 16, m)
        ts_cache = {}
        for i in range(m):
            deg = degs[i]
            c = rng.uniform(-10, 10, deg + 1)
            T = rng.uniform(1e-6, 2.0)
            lb, ub = poly_bounds(c, T)
            t = np.linspace(0.0, T, samples)
            v = np.polynomial.polynomial.polyval(t, c)
            if v.min() < lb - 1e-9 or v.max() > ub + 1e-9:
                violations += 1
        done += m
    wall = time.perf_counter() - t0
    assert violations == 0
    assert wall < 30.0
    _report(2, f"10,000 random polynomials contained in bounds; {wall:.1f} s")


# --------------------------------------------------------------------------
# 3. rate-bound soundness on every dynamic segment of the 4-bus run
# --------------------------------------------------------------------------


def test_criterion_3_rate_bounds_on_run(fourbus_hybrid,
                                       fourbus_hybrid_series):
    polyval = np.polynomial.polynomial.polyval
    checked = 0
    violations = 0
    for rec in fourbus_hybrid.segments:
        if rec.mode != DYNAMIC:
            continue
        seg = rec.sol
        series = fourbus_hybrid_series[id(seg)]
        built = rec.built
        t_e = seg.t_e
        ts = np.linspace(t_e / 100.0, t_e, 100)
        order = series.shape[1] - 1
        half = order // 2
        idx = built.system.index

        plain, angles = monitored_names(built)
        rows = [idx[name] for name in plain]
        derived = [series[idx[name]] - series[idx[ref]]
                   for ref, names in angles.values() for name in names]
        for isl in built.islands:
            for bus in isl.buses:
                if f"vx:{bus}" not in idx:
                    continue
                vx = series[idx[f"vx:{bus}"]]
                vy = series[idx[f"vy:{bus}"]]
                derived.append(
                    (np.convolve(vx, vx) + np.convolve(vy, vy))[: order + 1])
        d_num, d_den = batch_pade(np.array(derived), half, half)
        C = np.vstack([series[rows], derived])
        nums = np.vstack([padded(seg.pade_num[rows], d_num.shape[1]), d_num])
        dens = np.vstack([padded(seg.pade_den[rows], d_den.shape[1]), d_den])
        d_ps, d_pa, _ = steady_state_check(C, nums, dens, t_e, 1e-3)

        for c, num, den, dps, dpa in zip(C, nums, dens, d_ps, d_pa):
            rate = np.abs((polyval(ts, c) - c[0]) / ts)
            if not np.all(rate <= dps * (1 + 1e-9) + 1e-12):
                violations += 1
            if not np.isnan(dpa):  # defined: den > 0 on [0, t_e]
                pv = polyval(ts, num) / polyval(ts, den)
                prate = np.abs((pv - num[0]) / ts)
                if np.any(prate > dpa * (1 + 1e-9) + 1e-12):
                    violations += 1
            checked += 1
    assert checked > 1000
    assert violations == 0
    _report(3, f"{checked} variable/segment rate bounds, zero violations")


# --------------------------------------------------------------------------
# 4. published steady-state deltas reproduce the switching decisions
# --------------------------------------------------------------------------


def test_criterion_4_published_deltas():
    eps = 1e-3
    # rows: rotor speed, V4^2, AVR state Vm2, and Vm2 with an undefined
    # (NaN) PA bound, which leaves the decision to PS
    ps_ok, pa_ok = verdict_from_deltas(
        np.array([6.11e-4, 0.0279, 3.76e-4, 3.76e-4]),
        np.array([1.26e-4, 9.85e-4, 0.0013, np.nan]), eps)
    omega, v4sq, vm2, vm2_undefined = ps_ok | pa_ok
    assert omega and ps_ok[0] and pa_ok[0]
    assert v4sq and pa_ok[1] and not ps_ok[1]
    assert vm2 and ps_ok[2] and not pa_ok[2]
    assert vm2_undefined and ps_ok[3] and not pa_ok[3]
    _report(4, "rotor-speed (both), V^2 (PA), AVR state (PS) all steady "
               "at eps_T = 1e-3 with the matching deciding criterion")


# --------------------------------------------------------------------------
# 5/6. hybrid fidelity, QSS coverage, relative speed on the 4-bus fixture
# --------------------------------------------------------------------------


def test_criterion_5_hybrid_fidelity(fourbus_hybrid, fourbus_dynamic):
    assert fourbus_hybrid.failure is None
    assert fourbus_dynamic.failure is None
    ts = np.arange(0.0, 500.0001, 0.25)
    chans = [("f", ())] + [("V", (b,)) for b in ("1", "2", "3", "4")]
    hyb, dyn = (traj.sample(chans, ts, traj.segment_index(ts))
                for traj in (fourbus_hybrid, fourbus_dynamic))
    df = np.max(np.abs(hyb[0] - dyn[0]))
    dv = np.max(np.abs(hyb[1:] - dyn[1:]))
    assert df <= 0.02
    assert dv <= 0.005
    wall = fourbus_hybrid.wall_time + fourbus_dynamic.wall_time
    assert wall < 300.0
    _report(5, f"max |df| = {df:.2e} Hz (<= 0.02), max |dV| = {dv:.2e} pu "
               f"(<= 0.005); both runs in {wall:.0f} s")


def test_criterion_6_qss_coverage_and_speed(fourbus_hybrid, fourbus_dynamic):
    frac = fourbus_hybrid.qss_fraction()
    assert frac >= 0.7
    assert fourbus_hybrid.wall_time < fourbus_dynamic.wall_time
    _report(6, f"QSS fraction {frac:.3f} (>= 0.7); hybrid "
               f"{fourbus_hybrid.wall_time:.1f} s vs full-dynamic "
               f"{fourbus_dynamic.wall_time:.1f} s")


# --------------------------------------------------------------------------
# 7. trajectory equivalence against the adaptive high-order integrator
# --------------------------------------------------------------------------


def _reference_piecewise(case, state, events, t_end, dt_out):
    """Adaptive integration with instant events applied by algebraic
    re-solve at the event time (state variables frozen)."""
    st = copy.deepcopy(state)
    segs = []
    t = 0.0
    pending = sorted([e for e in events if e.t_due is not None],
                     key=lambda e: e.t_due)
    while t < t_end - 1e-12:
        t_next = min(t_end, pending[0].t_due if pending else t_end)
        built = build_system(case, st)
        refine_state(built, st)
        model = DaeModel(built, st)
        out = integrate_reference(model, (t, t_next), "adaptive-high-order",
                                  rtol=1e-9, atol=1e-11, dt_out=dt_out)
        segs.append(out)
        final = {n: out.values[-1, i] for i, n in enumerate(out.names)}
        mdl.write_back(built, out.values[-1], st)
        st.t = t_next
        t = t_next
        while pending and pending[0].t_due <= t + 1e-12:
            ev = pending.pop(0)
            if ev.kind == "add_load":
                st.load_online.add(ev.payload["load"])
                l = case.load_by_id[ev.payload["load"]]
                if l.motor is not None:
                    st.slip[ev.payload["load"]] = mdl.MOTOR_START_SLIP
            elif ev.kind == "cut_load":
                st.load_online.discard(ev.payload["load"])
            else:
                raise NotImplementedError(ev.kind)
    return segs


def _compare_channels(case, traj, segs, skip_names=("alpha",)):
    worst = 0.0
    for out in segs:
        for k, t in enumerate(out.ts):
            if k == 0:
                # at an event boundary the algebraic variables jump; the
                # owning segment is ambiguous there, so skip the sample
                continue
            # the epoch's last sample is the next event's instant: read
            # the segment before it
            rec = traj.segments[traj.segment_index(t - 1e-9)]
            tau = min(max(t - rec.t0, 0.0), rec.step)
            for i, name in enumerate(out.names):
                kind = name.split(":")[0]
                if kind in ("delta", "omega", "epsq", "epsd", "avr", "gov",
                            "agc", "slip", "vx", "vy"):
                    row = rec.built.system.index.get(name)
                    if row is not None:
                        he = rec.sol.values_at(tau)[row]
                        worst = max(worst, abs(he - out.values[k, i]))
    return worst


def test_criterion_7_oracle_equivalence(fourbus, fourbus_dynamic):
    t0 = time.perf_counter()
    # (a) single-machine step test
    smib = make_smib()
    smib.loads.append(LoadSpec("LX", 2, 0.12, 0.04, 1.0, 0.0, 0.0, status=0))
    smib.__post_init__()
    ev = [SimEvent(kind="add_load", t_due=1.0, payload={"load": "LX"})]
    st0 = init_equilibrium(smib)
    traj = run_simulation(smib, ev, RunConfig(mode="dynamic", t_end=10.0),
                          state=copy.deepcopy(st0))
    assert traj.failure is None
    segs = _reference_piecewise(smib, st0, ev, 10.0, dt_out=0.2)
    worst_a = _compare_channels(smib, traj, segs)
    assert worst_a < 1e-5

    # (b) 4-bus, first 60 s of the periodic script
    case, script = fourbus
    st0 = init_equilibrium(case)
    events60 = [e for e in script
                if e.t_due is not None and 0.0 < e.t_due < 60.0
                and e.kind != "stop"]
    segs = _reference_piecewise(case, st0, events60, 59.9, dt_out=0.25)
    worst_b = _compare_channels(case, fourbus_dynamic, segs)
    assert worst_b < 1e-5
    wall = time.perf_counter() - t0
    assert wall < 120.0
    _report(7, f"max-norm vs adaptive oracle: SMIB step {worst_a:.2e}, "
               f"4-bus first 60 s {worst_b:.2e} (both < 1e-5); {wall:.0f} s")


# --------------------------------------------------------------------------
# 8. switching correctness against direct re-solve oracles
# --------------------------------------------------------------------------


def test_criterion_8_switch_correctness(fourbus):
    from scipy.optimize import root

    case, _ = fourbus

    def oracle(st):
        built = build_system(case, st)
        sysm = built.system
        kv = built.knowns(st, st.t)[:, 0] if sysm.nk else np.zeros(0)
        x0 = built.anchors(st)

        def fun(y):
            vals = x0.copy()
            vals[sysm.alg_slots] = y
            return sysm.alg_residual(vals, kv)

        sol = root(fun, x0[sysm.alg_slots], method="hybr", tol=1e-13)
        assert sol.success
        vals = x0.copy()
        vals[sysm.alg_slots] = sol.x
        return np.max(np.abs(x0 - vals))

    st = init_equilibrium(case)
    apply_add_shunt(case, st, 2, 0.05 - 0.15j)
    e_add = oracle(st)
    assert e_add < 1e-8

    st = init_equilibrium(case)
    apply_cut_branch(case, st, "L23B")
    e_cut = oracle(st)
    assert e_cut < 1e-8

    st = init_equilibrium(case)
    apply_branch_param(case, st, "L34", 0.02, 0.1, 0.02)
    e_par = oracle(st)
    assert e_par < 1e-8

    st = init_equilibrium(case)
    before = build_system(case, st).anchors(st)
    apply_cut_branch(case, st, "L23B")
    apply_add_branch(case, st, "L23B")
    after = build_system(case, st).anchors(st)
    e_rt = np.max(np.abs(after - before))
    assert e_rt < 1e-8
    _report(8, f"add-shunt {e_add:.1e}, cut {e_cut:.1e}, param {e_par:.1e}, "
               f"cut/re-add round trip {e_rt:.1e} (all < 1e-8)")


# --------------------------------------------------------------------------
# 9. miniature restoration on the 39-bus-like fixture
# --------------------------------------------------------------------------


def test_criterion_9_restoration():
    case, script = builtin_case("ne39")
    n_events = len([e for e in script if e.kind != "stop"])
    assert n_events >= 30
    kinds = {e.kind for e in script}
    assert {"add_branch", "add_gen", "add_load", "ramp_gen"} <= kinds

    hyb = run_simulation(case, script, RunConfig(mode="hybrid", t_end=300.0))
    dyn = run_simulation(case, script, RunConfig(mode="dynamic", t_end=300.0))
    assert hyb.failure is None
    assert dyn.failure is None

    ts = np.arange(0.0, 300.0001, 0.5)
    chans = [("V", (str(b),))
             for b in (4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 31, 32, 39)]
    worst = np.max(np.abs(hyb.sample(chans, ts, hyb.segment_index(ts))
                          - dyn.sample(chans, ts, dyn.segment_index(ts))))
    assert worst <= 0.01
    _report(9, f"{n_events} events completed in both modes; max hybrid vs "
               f"full-dynamic voltage difference {worst:.2e} pu (<= 0.01)")
