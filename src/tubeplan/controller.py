"""Tube-based MPC navigation between workspace regions.

The control law has two parts: a nominal input computed online by a finite
horizon optimal control problem (solved by direct single shooting with
projected gradient descent), and an ancillary feedback ``u = u_hat - sigma*q``
that keeps the disturbed trajectory inside a tube of radius
``delta_bound / sigma_margin`` around the nominal one.

All navigation happens in the error frame of the current target: the target
center is mapped to the origin, constraints are shifted and tightened by the
tube radius, and the nominal state is reset to the measured state at every
sampling instant (so the tube deviation restarts from zero each interval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (
    DisturbanceSpec,
    DynamicsModel,
    integrator_increment,
    rk4_step,
)
from .errors import InvalidParam, NonFiniteError, SolverDiverged
from .geometry import (
    Ball,
    Box,
    ConstraintSet,
    tighten_input_constraints,
    tighten_state_constraints,
)


@dataclass(frozen=True)
class TubeParams:
    """Ancillary gain and tube radius derived from the model constants."""

    sigma: float
    tube_radius: float


def make_tube_params(
    lipschitz: float, gain_floor: float, sigma_margin: float, delta_bound: float
) -> TubeParams:
    """``sigma = L/g_floor + margin``; tube radius ``delta_bound / margin``."""
    if gain_floor <= 0:
        raise InvalidParam(f"gain floor must be > 0, got {gain_floor}")
    if sigma_margin <= 0:
        raise InvalidParam(f"sigma margin must be > 0, got {sigma_margin}")
    if delta_bound < 0:
        raise InvalidParam(f"disturbance bound must be >= 0, got {delta_bound}")
    if lipschitz < 0:
        raise InvalidParam(f"Lipschitz constant must be >= 0, got {lipschitz}")
    return TubeParams(
        sigma=lipschitz / gain_floor + sigma_margin,
        tube_radius=delta_bound / sigma_margin,
    )


def _check_spd(name: str, m: np.ndarray):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParam(f"{name} must be a square matrix")
    if not np.allclose(m, m.T):
        raise InvalidParam(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) <= 0:
        raise InvalidParam(f"{name} must be positive definite")
    return m


# shooting-solver settings
MAX_ITERS = 60
TOL = 1e-8
PENALTY_WEIGHT = 1e3
PENALTY_MAX = 1e6
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class FhocpParams:
    """Horizon, sampling step and cost matrices."""

    horizon: float
    step: float
    state_weight: np.ndarray
    terminal_weight: np.ndarray
    input_weight: np.ndarray
    terminal_level: float

    def __post_init__(self):
        if not (self.horizon > self.step > 0):
            raise InvalidParam("need horizon > step > 0")
        if self.terminal_level <= 0:
            raise InvalidParam("terminal level must be > 0")
        object.__setattr__(self, "state_weight", _check_spd("Q", self.state_weight))
        object.__setattr__(self, "terminal_weight", _check_spd("P", self.terminal_weight))
        object.__setattr__(self, "input_weight", _check_spd("R", self.input_weight))

    @property
    def segments(self) -> int:
        """Piecewise-constant control segments: one per sampling step."""
        return round(self.horizon / self.step)

    @property
    def arrival_radius(self) -> float:
        """Stop-test radius: terminal level over sqrt of min eigenvalue of P."""
        lam = float(np.min(np.linalg.eigvalsh(self.terminal_weight)))
        return self.terminal_level / np.sqrt(lam)


def ancillary_control(u_hat, e_hat, e, sigma: float) -> np.ndarray:
    """Feedback law ``u = u_hat - sigma * (e - e_hat)``."""
    return np.asarray(u_hat, dtype=float) - sigma * (
        np.asarray(e, dtype=float) - np.asarray(e_hat, dtype=float)
    )


def project_input(u: np.ndarray, u_set) -> np.ndarray:
    """Closed-form projection onto a box (clamp) or ball (radial scaling)."""
    if isinstance(u_set, Box):
        return np.clip(u, u_set.lower, u_set.upper)
    if isinstance(u_set, Ball):
        v = u - u_set.center
        nrm = np.linalg.norm(v, axis=-1, keepdims=True)
        scale = np.where(nrm > u_set.radius, u_set.radius / np.maximum(nrm, 1e-300), 1.0)
        return u_set.center + scale * v
    raise InvalidParam(f"input set must be Box or Ball, got {type(u_set)!r}")


def input_violation(u: np.ndarray, u_set, tol: float = 1e-9) -> bool:
    if isinstance(u_set, Box):
        return bool(np.any(u < u_set.lower - tol) or np.any(u > u_set.upper + tol))
    if isinstance(u_set, Ball):
        return float(np.linalg.norm(u - u_set.center)) > u_set.radius + tol
    raise InvalidParam(f"input set must be Box or Ball, got {type(u_set)!r}")


def shift_to_error_frame(model: DynamicsModel, target_state: np.ndarray) -> DynamicsModel:
    """Model expressed in error coordinates ``e = x - target_state``.

    A pure integrator is translation-invariant, so it stays one.
    """
    target = np.asarray(target_state, dtype=float)

    def f(e):
        return model.f(np.asarray(e) + target)

    def g(e):
        return model.g(np.asarray(e) + target)

    return DynamicsModel(
        f"{model.name}@error", model.n, f, g, model.position_projection,
        model.pure_integrator,
    )


@dataclass
class FhocpSolution:
    controls: np.ndarray          # (segments, n) piecewise-constant inputs
    nominal: np.ndarray           # (segments + 1, n) error states on the grid
    cost: float                   # quadratic cost without penalty terms
    feasible: bool
    violation: float              # worst measured constraint penetration
    iterations: int = 0


def _rollout(model: DynamicsModel, e0: np.ndarray, controls: np.ndarray, h: float):
    """Batched RK4 rollout of ``controls`` with one step per segment.

    ``controls`` has shape (..., m, n); returns states of shape (..., m+1, n).
    For a pure integrator the exact path stacks ``e0`` and the per-segment
    RK4 increments and sums them with one ``np.add.accumulate``: the same
    additions, in the same order, as the ``rk4_step`` loop.
    """
    m = controls.shape[-2]
    batch = controls.shape[:-2]
    if model.pure_integrator:
        parts = np.empty(batch + (m + 1, controls.shape[-1]))
        parts[..., 0, :] = e0
        parts[..., 1:, :] = integrator_increment(controls, h)
        return np.add.accumulate(parts, axis=-2)
    states = np.empty(batch + (m + 1, controls.shape[-1]))
    e = np.broadcast_to(e0, batch + (e0.shape[-1],)).copy()
    states[..., 0, :] = e
    for k in range(m):
        e = rk4_step(model, e, controls[..., k, :], h)
        states[..., k + 1, :] = e
    return states


class _FhocpObjective:
    """Quadratic cost plus exact-penalty terms, batched over control sets."""

    def __init__(self, model, params: FhocpParams, e_set: Optional[ConstraintSet]):
        self.model = model
        self.params = params
        self.e_set = e_set
        self.seg_h = params.horizon / params.segments
        self.pos = list(model.position_projection)

    def quadratic(self, states, controls):
        p = self.params
        stage = np.einsum("...ki,ij,...kj->...k", states[..., :-1, :], p.state_weight,
                          states[..., :-1, :])
        stage = stage + np.einsum("...ki,ij,...kj->...k", controls, p.input_weight,
                                  controls)
        terminal = np.einsum("...i,ij,...j->...", states[..., -1, :],
                             p.terminal_weight, states[..., -1, :])
        return terminal + self.seg_h * np.sum(stage, axis=-1)

    def penetration(self, states):
        """Per-sample constraint penetration depths, shape (..., m+1)."""
        if self.e_set is None:
            return np.zeros(states.shape[:-1])
        pos = states[..., self.pos]
        box = self.e_set.region
        depth = np.maximum(np.max(box.lower - pos, axis=-1),
                           np.max(pos - box.upper, axis=-1))
        for b in self.e_set.exclusions:
            d = b.radius - np.linalg.norm(pos - b.center, axis=-1)
            depth = np.maximum(depth, d)
        return np.maximum(depth, 0.0)

    def terminal_excess(self, states):
        p = self.params
        e_n = states[..., -1, :]
        norm_p = np.sqrt(np.einsum("...i,ij,...j->...", e_n, p.terminal_weight, e_n))
        return np.maximum(norm_p - p.terminal_level, 0.0)

    def penalty(self, states):
        pen = np.sum(self.penetration(states) ** 2, axis=-1)
        return pen + self.terminal_excess(states) ** 2

    def total(self, e0, controls, weight):
        states = self._states(e0, controls)
        return self.quadratic(states, controls) + weight * self.penalty(states), states

    def _states(self, e0, controls):
        return _rollout(self.model, e0, controls, self.seg_h)


def solve_fhocp(
    e_now,
    model: DynamicsModel,
    params: FhocpParams,
    e_set: Optional[ConstraintSet],
    u_set,
    warm_start: Optional[np.ndarray] = None,
) -> FhocpSolution:
    """Direct single shooting with projected gradient descent.

    Controls are ``segments`` piecewise-constant vectors; gradients come from
    central finite differences on the control parameters (batched rollouts);
    path/terminal constraints enter as quadratic hinge penalties whose weight
    is ramped when the measured violation stays above the feasibility
    tolerance.  Penalties are a solver device only: feasibility is declared
    from measured violations.
    """
    e0 = np.asarray(e_now, dtype=float)
    m, n = params.segments, model.n
    obj = _FhocpObjective(model, params, e_set)

    if e_set is not None and not e_set.contains(e0[obj.pos]):
        controls = np.zeros((m, n))
        states = obj._states(e0, controls)
        return FhocpSolution(controls, states, float(obj.quadratic(states, controls)),
                             False, float(e_set.violation(e0[obj.pos])))

    if warm_start is None:
        # drive the error to zero over the horizon at constant rate; a crude
        # but dimensionally sensible start that costs the solver far fewer
        # iterations than all-zeros
        controls = np.tile(-e0 / params.horizon, (m, 1))
    else:
        controls = np.asarray(warm_start, float).copy()
    if controls.shape != (m, n):
        raise InvalidParam(f"warm start must have shape {(m, n)}")
    controls = project_input(controls, u_set)

    fd_step = 1e-6
    weight = PENALTY_WEIGHT
    iters_done = 0
    step_size = 1.0
    halvings = 0.5 ** np.arange(30)
    while True:
        cost, _ = obj.total(e0, controls, weight)
        cost = float(cost)
        prev_controls = prev_grad = None
        for _ in range(MAX_ITERS):
            iters_done += 1
            grad = _fd_gradient(obj, e0, controls, weight, fd_step)
            if float(np.max(np.abs(grad))) < TOL:
                break
            # spectral (Barzilai-Borwein) initial step, then backtracking
            # with all candidate steps evaluated in one batched rollout
            if prev_grad is not None:
                dc = (controls - prev_controls).ravel()
                dg = (grad - prev_grad).ravel()
                curv = float(dc @ dg)
                if curv > 1e-30:
                    step_size = min(max(float(dc @ dc) / curv, 1e-8), 1e3)
                else:
                    step_size = min(step_size * 2.0, 1e3)
            else:
                step_size = min(step_size * 2.0, 1e3)
            prev_controls, prev_grad = controls, grad
            steps = step_size * halvings
            cands = project_input(
                controls[None] - steps[:, None, None] * grad[None], u_set
            )
            cand_costs, _ = obj.total(e0, cands, weight)
            if not np.all(np.isfinite(cand_costs)):
                raise SolverDiverged("non-finite cost during line search")
            better = np.nonzero(cand_costs < cost - 1e-12)[0]
            if better.size == 0:
                break
            pick = int(better[0])
            step_size = float(steps[pick])
            cand, cand_cost = cands[pick], float(cand_costs[pick])
            moved = float(np.max(np.abs(cand - controls)))
            gained = cost - cand_cost
            controls, cost = cand, cand_cost
            if moved < TOL or gained < TOL * (1.0 + abs(cost)):
                break
        _, states = obj.total(e0, controls, weight)
        violation = float(np.max(obj.penetration(states)))
        if violation <= FEASIBILITY_TOL or weight >= PENALTY_MAX:
            break
        weight *= 10.0

    quad = float(obj.quadratic(states, controls))
    if not np.isfinite(quad):
        raise SolverDiverged("non-finite cost at solution")
    feasible = violation <= FEASIBILITY_TOL
    return FhocpSolution(controls, states, quad, feasible, violation, iters_done)


def _fd_gradient(obj, e0, controls, weight, fd_step):
    m, n = controls.shape
    dim = m * n
    flat = controls.reshape(dim)
    batch = np.repeat(flat[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    batch[2 * idx, idx] += fd_step
    batch[2 * idx + 1, idx] -= fd_step
    costs, _ = obj.total(e0, batch.reshape(2 * dim, m, n), weight)
    grad = (costs[0::2] - costs[1::2]) / (2 * fd_step)
    return grad.reshape(m, n)


ARRIVED = "Arrived"
INFEASIBLE = "InfeasibleFhocp"
TIMED_OUT = "TimedOut"


@dataclass
class NavigationOutcome:
    """Closed-loop record of one navigation attempt."""

    status: str
    ts: np.ndarray
    states: np.ndarray
    nominal_states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    arrival_steps: Optional[int]        # sampling steps until the stop test
    total_steps: int                    # sampling steps actually simulated
    saturation_count: int
    costs: list = field(default_factory=list)

    @property
    def arrived(self) -> bool:
        return self.status == ARRIVED

    @property
    def max_deviation(self) -> float:
        """Largest ``|x - x_hat|`` over all samples."""
        return max_deviation(self.states, self.nominal_states)


def max_deviation(states: np.ndarray, nominal: np.ndarray) -> float:
    """Largest row-wise ``|x - x_hat|``; 0.0 for no rows."""
    return float(np.max(np.linalg.norm(states - nominal, axis=-1), initial=0.0))


def navigate(
    model: DynamicsModel,
    x_start,
    target: Ball,
    state_constraints: ConstraintSet,
    input_set,
    tube: TubeParams,
    fhocp: FhocpParams,
    disturbance: DisturbanceSpec,
    max_steps: int,
    seed: int = 0,
    settle_steps: int = 0,
    min_duration_steps: int = 0,
    sim_dt: float = 0.01,
) -> NavigationOutcome:
    """Receding-horizon navigation of the disturbed system towards a region.

    At each sampling instant the nominal error state is reset to the measured
    one, the shooting problem is re-solved (warm-started with the shifted
    previous solution), and the ancillary law is applied over the interval.
    The run stops ``settle_steps`` sampling steps after the stop test
    ``|pos(x) - target.center| <= arrival_radius`` first passes, but never
    before ``min_duration_steps`` steps have elapsed, and gives up after
    ``max_steps``.  Safety of the samples is left to the caller.
    """
    h = fhocp.step
    substeps = round(h / sim_dt)
    if abs(substeps * sim_dt - h) > 1e-9 or substeps < 1:
        raise InvalidParam(f"sim_dt={sim_dt} must divide the sampling step {h}")

    target_state = model.embed_position(target.center)
    err_model = shift_to_error_frame(model, target_state)
    e_set = tighten_state_constraints(state_constraints, target.center, tube.tube_radius)
    u_tight = tighten_input_constraints(input_set, tube.sigma, tube.tube_radius)
    arrival_radius = fhocp.arrival_radius
    pos_idx = list(model.position_projection)
    delta_fn = disturbance.generator(target_state, seed)

    x = np.asarray(x_start, dtype=float).copy()
    ts = [0.0]
    xs = [x.copy()]
    nominal = [x.copy()]
    inputs = [np.zeros(model.n)]
    deltas = [np.zeros(model.n)]
    costs = []

    warm = None
    arrival_steps = None
    status = TIMED_OUT
    saturations = 0

    k = 0
    while k <= max_steps:
        pos_err = float(np.linalg.norm(x[pos_idx] - target.center))
        if arrival_steps is None and pos_err <= arrival_radius:
            arrival_steps = k
        if (
            arrival_steps is not None
            and k >= arrival_steps + settle_steps
            and k >= min_duration_steps
        ):
            status = ARRIVED
            break
        if k == max_steps:
            break

        e = x - target_state
        sol = solve_fhocp(e, err_model, fhocp, e_set, u_tight, warm)
        if not sol.feasible:
            status = INFEASIBLE
            break
        costs.append(sol.cost)
        u_hat = sol.controls[0]

        # propagate the coupled (real, nominal) pair over one sampling interval
        e_hat = e.copy()
        t0 = k * h
        for j in range(substeps):
            t = t0 + j * sim_dt
            delta = np.asarray(delta_fn(t, x), dtype=float)
            u = ancillary_control(u_hat, e_hat, x - target_state, tube.sigma)
            if input_violation(u, input_set):
                saturations += 1
                u = project_input(u, input_set)
            x = rk4_step(model, x, u, sim_dt, delta)
            e_hat = rk4_step(err_model, e_hat, u_hat, sim_dt)
            if not np.all(np.isfinite(x)):
                raise NonFiniteError(f"state became non-finite at t={t + sim_dt}")
            ts.append(t + sim_dt)
            xs.append(x.copy())
            nominal.append(e_hat + target_state)
            inputs.append(u.copy())
            deltas.append(delta.copy())

        warm = np.vstack([sol.controls[1:], np.zeros((1, model.n))])
        k += 1

    return NavigationOutcome(
        status=status,
        ts=np.asarray(ts),
        states=np.asarray(xs),
        nominal_states=np.asarray(nominal),
        inputs=np.asarray(inputs),
        disturbances=np.asarray(deltas),
        arrival_steps=arrival_steps,
        total_steps=k,
        saturation_count=saturations,
        costs=costs,
    )
