"""Validation oracles: closed-form two-bus solutions and benchmark integrators.

The two-bus formulas give exact event times for the ramping-load experiment;
the fixed-step integrators (Heun's predictor-corrector as the 'modified
Euler', and trapezoidal) are the traditional baselines the embedding solver
is compared against, and the adaptive high-order integrator is the ground
truth for trajectory agreement checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PastCollapse, StepRejectionLimit, Unreachable


@dataclass(frozen=True)
class TwoBusCase:
    """Source E feeding a load P+jQ over z = r+jx, load scaled by lam(t)."""
    e: float = 1.01
    r: float = 0.01
    x: float = 0.05
    p: float = 0.1
    q: float = 0.3
    lam_rate: float = 1.0

    @property
    def z_sq(self) -> float:
        return self.r * self.r + self.x * self.x

    @property
    def collapse_time(self) -> float:
        """Loading at which the discriminant under the root vanishes."""
        a = -((self.q * self.r - self.p * self.x) ** 2) / self.e ** 2
        b = -(self.p * self.r + self.q * self.x)
        c = self.e ** 2 / 4.0
        roots = [t for t in np.roots([a, b, c]) if t.real > 0
                 and abs(t.imag) < 1e-12]
        return min(r.real for r in roots) / self.lam_rate


def two_bus_current_sq(case: TwoBusCase, t: float) -> float:
    """Square of the line current at time t (load level lam = rate * t)."""
    lam = case.lam_rate * t
    a0 = case.p * case.r + case.q * case.x
    under = (case.e ** 2 / 4.0 - a0 * lam
             - (case.q * case.r - case.p * case.x) ** 2 * lam ** 2 / case.e ** 2)
    if under < 0:
        raise PastCollapse(f"no solution at t={t}")
    return (case.e ** 2 / 2.0 - a0 * lam - case.e * math.sqrt(under)) / case.z_sq


def two_bus_event_time(case: TwoBusCase, i_th: float) -> float:
    """Closed-form instant at which the line current reaches i_th."""
    if i_th == 0.0:
        return 0.0
    z2 = case.z_sq
    pr_qx = case.p * case.r + case.q * case.x
    qr_px = case.q * case.r - case.p * case.x
    a = pr_qx ** 2 + qr_px ** 2
    b = 2.0 * pr_qx * z2 * i_th ** 2
    c = z2 ** 2 * i_th ** 4 - case.e ** 2 * z2 * i_th ** 2
    disc = b * b - 4 * a * c
    if disc < 0:
        raise Unreachable(f"threshold {i_th} is never crossed")
    lam = (math.sqrt(disc) - b) / (2 * a)
    t = lam / case.lam_rate
    if t < 0 or t > case.collapse_time:
        raise Unreachable(f"threshold {i_th} crossed outside the window")
    return t


# --------------------------------------------------------------------------
# DAE adapters and integrators over compiled systems
# --------------------------------------------------------------------------


class DaeModel:
    """Point-evaluation adapter: a compiled system plus its runtime closure."""

    def __init__(self, built, state):
        self.built = built
        self.sys = built.system
        self.state = state

    def kv(self, t: float) -> np.ndarray:
        if not self.sys.nk:
            return np.zeros(0)
        return self.built.knowns(self.state, t)[:, 0]

    def initial(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.built.anchors(self.state)
        return v[self.sys.state_slots].copy(), v[self.sys.alg_slots].copy()

    def assemble(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        v = np.zeros(self.sys.nv)
        if self.sys.n_state:
            v[self.sys.state_slots] = xs
        if self.sys.n_alg:
            v[self.sys.alg_slots] = ys
        return v

    def f(self, xs, ys, t):
        return self.sys.state_rhs(self.assemble(xs, ys), self.kv(t))

    def g(self, xs, ys, t):
        return self.sys.alg_residual(self.assemble(xs, ys), self.kv(t))

    def solve_alg(self, xs, t, y_guess, tol=1e-12, maxiter=20):
        """Newton on g = 0; a singular Jacobian or a non-finite update stops
        it at once, so the integrator rejects the step and retries shorter."""
        y = np.array(y_guess, dtype=float)
        if not self.sys.n_alg:
            return y
        kv = self.kv(t)
        for _ in range(maxiter):
            vals = self.assemble(xs, y)
            r = self.sys.alg_residual(vals, kv)
            if np.max(np.abs(r)) <= tol:
                return y
            J = self.sys.alg_jacobian(vals, kv)
            try:
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise StepRejectionLimit(str(exc)) from exc
            if not np.all(np.isfinite(delta)):
                raise StepRejectionLimit("non-finite Newton update")
            y = y + delta
        raise StepRejectionLimit("algebraic solve did not converge")


@dataclass
class ReferenceTrajectory:
    ts: np.ndarray
    values: np.ndarray   # (nt, nv) in the compiled system's variable order
    names: list

    def __post_init__(self):
        self.index = {n: i for i, n in enumerate(self.names)}

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.index[name]]


def _record(model, ts, xs_list, ys_list) -> ReferenceTrajectory:
    vals = np.array([model.assemble(x, y)
                     for x, y in zip(xs_list, ys_list)])
    return ReferenceTrajectory(np.asarray(ts), vals, model.sys.var_names)


def _step_heun(model, xs, ys, t, h):
    k1 = model.f(xs, ys, t)
    xp = xs + h * k1
    yp = model.solve_alg(xp, t + h, ys)
    k2 = model.f(xp, yp, t + h)
    xn = xs + 0.5 * h * (k1 + k2)
    yn = model.solve_alg(xn, t + h, yp)
    return xn, yn


def _step_trapezoidal(model, xs, ys, t, h, maxiter=20):
    f0 = model.f(xs, ys, t)
    xn, yn = xs.copy(), ys.copy()
    n_x = len(xs)
    for _ in range(maxiter):
        fx = model.f(xn, yn, t + h)
        rx = xn - xs - 0.5 * h * (f0 + fx)
        rg = model.g(xn, yn, t + h)
        res = np.concatenate([rx, rg])
        norm = np.max(np.abs(res)) if res.size else 0.0
        if norm <= 1e-12:
            return xn, yn
        vals = model.assemble(xn, yn)
        jf, jg = model.sys.full_jacobian(vals, model.kv(t + h))
        big = np.zeros((n_x + model.sys.n_alg, n_x + model.sys.n_alg))
        cols_x = model.sys.state_slots
        cols_y = model.sys.alg_slots
        big[:n_x, :n_x] = np.eye(n_x) - 0.5 * h * jf[:, cols_x]
        if model.sys.n_alg:
            big[:n_x, n_x:] = -0.5 * h * jf[:, cols_y]
            big[n_x:, :n_x] = jg[:, cols_x]
            big[n_x:, n_x:] = jg[:, cols_y]
        try:
            delta = np.linalg.solve(big, -res)
        except np.linalg.LinAlgError as exc:
            raise StepRejectionLimit(str(exc)) from exc
        # damped update: halve until the residual does not grow
        lam = 1.0
        for _ in range(6):
            xt = xn + lam * delta[:n_x]
            yt = yn + lam * delta[n_x:]
            rx2 = xt - xs - 0.5 * h * (f0 + model.f(xt, yt, t + h))
            res2 = np.concatenate([rx2, model.g(xt, yt, t + h)])
            n2 = np.max(np.abs(res2)) if res2.size else 0.0
            if n2 <= norm:
                break
            lam *= 0.5
        xn = xn + lam * delta[:n_x]
        yn = yn + lam * delta[n_x:]
    raise StepRejectionLimit("trapezoidal Newton exceeded 20 iterations")


def integrate_reference(model: DaeModel, t_span, method: str, h: float = 0.01,
                        rtol: float = 1e-9, atol: float = 1e-11,
                        dt_out: float = None) -> ReferenceTrajectory:
    """Integrate the DAE with a fixed-step baseline or the adaptive oracle.

    method: "modified-euler" (Heun predictor-corrector), "trapezoidal", or
    "adaptive-high-order" (DOP853 with algebraic elimination).
    """
    t0, t1 = t_span
    xs, ys = model.initial()
    ys = model.solve_alg(xs, t0, ys) if model.sys.n_alg else ys

    if method in ("modified-euler", "trapezoidal"):
        if not h > 0:
            raise ValueError("fixed-step methods need h > 0")
        stepper = _step_heun if method == "modified-euler" else _step_trapezoidal
        n = int(round((t1 - t0) / h))
        ts = [t0]
        xs_list, ys_list = [xs.copy()], [ys.copy()]
        for k in range(n):
            t = t0 + k * h
            if model.sys.n_state:
                xs, ys = stepper(model, xs, ys, t, h)
            else:
                ys = model.solve_alg(xs, t + h, ys)
            ts.append(t + h)
            xs_list.append(xs.copy())
            ys_list.append(ys.copy())
        return _record(model, ts, xs_list, ys_list)

    if method != "adaptive-high-order":
        raise ValueError(f"unknown method {method!r}")

    from scipy.integrate import solve_ivp

    if not model.sys.n_state:
        dt = dt_out or h or 0.01
        ts = np.arange(t0, t1 + 0.5 * dt, dt)
        xs_list, ys_list = [], []
        y = ys
        for t in ts:
            y = model.solve_alg(xs, t, y)
            xs_list.append(xs.copy())
            ys_list.append(y.copy())
        return _record(model, ts, xs_list, ys_list)

    cache = {"y": ys.copy()}

    def rhs(t, x):
        try:
            cache["y"] = model.solve_alg(x, t, cache["y"])
        except StepRejectionLimit:
            # no algebraic solution near this trial stage: a NaN derivative
            # makes the integrator reject the step and try a shorter one
            return np.full(len(x), np.nan)
        return model.f(x, cache["y"], t)

    sol = solve_ivp(rhs, (t0, t1), xs, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    if not sol.success:
        raise StepRejectionLimit(sol.message)
    dt = dt_out or max((t1 - t0) / 400.0, 1e-3)
    ts = np.arange(t0, t1 + 0.5 * dt, dt)
    xs_list, ys_list = [], []
    y = ys.copy()
    for t in ts:
        x = sol.sol(t)
        y = model.solve_alg(x, t, y)
        xs_list.append(x)
        ys_list.append(y)
    return _record(model, ts, xs_list, ys_list)


# --------------------------------------------------------------------------
# grid-sampled event localization (what the fixed-step baselines must use)
# --------------------------------------------------------------------------


def linear_crossing(ts: np.ndarray, hs: np.ndarray):
    """First zero crossing of sampled h(t) by linear interpolation, or None."""
    for k in range(len(ts) - 1):
        a, b = hs[k], hs[k + 1]
        if a == 0.0:
            return float(ts[k])
        if a < 0.0 <= b or a > 0.0 >= b:
            return float(ts[k] + (ts[k + 1] - ts[k]) * a / (a - b))
    return None
