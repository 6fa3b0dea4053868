"""Tube-based MPC navigation between workspace regions.

The control law has two parts: a nominal input computed online by a finite
horizon optimal control problem (solved by direct single shooting with a
projected descent method), and an ancillary feedback ``u = u_hat -
sigma*q`` that keeps the disturbed trajectory inside a tube of radius
``delta_bound / sigma_margin`` around the nominal one.  For the pure
integrator the gradient is exact (one rollout and its adjoint) and, on a
box input set, the solver takes projected Newton steps; other models take
Barzilai-Borwein steps along central finite differences.

All navigation happens in the error frame of the current target: the target
center is mapped to the origin, constraints are shifted and tightened by the
tube radius, and the nominal state is reset to the measured state at every
sampling instant (so the tube deviation restarts from zero each interval).
"""

from __future__ import annotations

import math
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
_HALVINGS = 0.5 ** np.arange(30)       # backtracking steps
_CHUNKS = (1, 4, 30)                   # ends of the candidate rows rolled out together
_EPS0 = 1e-3                           # widest epsilon-active band of the Newton step


@dataclass(frozen=True)
class FhocpParams:
    """Horizon, sampling step and cost matrices."""

    horizon: float
    step: float
    state_weight: np.ndarray
    terminal_weight: np.ndarray
    input_weight: np.ndarray
    terminal_level: float
    # the solver's segment length, d/de of the cost terms e'We, (W + W') e,
    # the stage and input ones times the segment length, and the Hessian of
    # the quadratic cost in the flattened controls of a pure integrator
    seg_h: float = field(init=False, compare=False, repr=False)
    d_stage: np.ndarray = field(init=False, compare=False, repr=False)
    d_input: np.ndarray = field(init=False, compare=False, repr=False)
    d_terminal: np.ndarray = field(init=False, compare=False, repr=False)
    hessian: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.horizon > self.step > 0):
            raise InvalidParam("need horizon > step > 0")
        if self.terminal_level <= 0:
            raise InvalidParam("terminal level must be > 0")
        object.__setattr__(self, "state_weight", _check_spd("Q", self.state_weight))
        object.__setattr__(self, "terminal_weight", _check_spd("P", self.terminal_weight))
        object.__setattr__(self, "input_weight", _check_spd("R", self.input_weight))
        h = self.horizon / self.segments
        q, p, r = self.state_weight, self.terminal_weight, self.input_weight
        for name, value in (("seg_h", h), ("d_stage", h * (q + q.T)),
                            ("d_input", h * (r + r.T)), ("d_terminal", p + p.T)):
            object.__setattr__(self, name, value)
        # block (j, l): h^2 (d_terminal + d_stage per k > max(j, l)), + d_input
        m = self.segments
        later = m - 1 - np.maximum.outer(np.arange(m), np.arange(m))
        object.__setattr__(self, "hessian", np.kron(h * h * later, self.d_stage)
                           + np.kron(np.full((m, m), h * h), self.d_terminal)
                           + np.kron(np.eye(m), self.d_input))

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
        return np.minimum(np.maximum(u, u_set.lower), u_set.upper)
    if isinstance(u_set, Ball):
        v = u - u_set.center
        nrm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
        scale = np.where(nrm > u_set.radius, u_set.radius / np.maximum(nrm, 1e-300), 1.0)
        return u_set.center + scale * v
    raise InvalidParam(f"input set must be Box or Ball, got {type(u_set)!r}")


INPUT_TOL = 1e-9                       # slack of the saturation test


def input_violation(u: np.ndarray, u_set, tol: float = INPUT_TOL) -> np.ndarray:
    """Whether ``u`` leaves the input set by more than ``tol``, batched over
    the leading axes of ``u``."""
    if isinstance(u_set, Box):
        return np.any((u < u_set.lower - tol) | (u > u_set.upper + tol), axis=-1)
    if isinstance(u_set, Ball):
        v = u - u_set.center
        return np.sqrt(np.add.reduce(v * v, axis=-1)) > u_set.radius + tol
    raise InvalidParam(f"input set must be Box or Ball, got {type(u_set)!r}")


def _float_saturation(u_set):
    """``input_violation`` then ``project_input`` for one input held as a
    list of floats: a function that returns the projected list, or None when
    the input is inside the set.  A box is tested and clipped on the floats
    with the same comparisons; a ball goes through the array functions."""
    if isinstance(u_set, Box):
        lower, upper = u_set.lower.tolist(), u_set.upper.tolist()
        low = (u_set.lower - INPUT_TOL).tolist()
        high = (u_set.upper + INPUT_TOL).tolist()

        def saturate(u):
            if (any(a < b for a, b in zip(u, low))
                    or any(a > b for a, b in zip(u, high))):
                # np.clip: the bound when strictly past it, else the value
                return [lo if a < lo else hi if a > hi else a
                        for a, lo, hi in zip(u, lower, upper)]
            return None

        return saturate
    if isinstance(u_set, Ball):

        def saturate(u):
            u = np.array(u)
            if input_violation(u, u_set):
                return project_input(u, u_set).tolist()
            return None

        return saturate
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
    """Quadratic cost plus exact-penalty terms, batched over control sets.

    ``e_set.depths`` measures every box side and every exclusion ball in one
    broadcast, once per rollout, for both the penalty and its subgradient.
    """

    def __init__(self, model, params: FhocpParams, e_set: ConstraintSet):
        self.model = model
        self.params = params
        self.e_set = e_set
        self.pos = list(model.position_projection)

    def quadratic(self, states, controls, terminal=None):
        p = self.params
        xs = states[..., :-1, :]
        stage = np.add.reduce((xs @ p.state_weight) * xs, axis=-1)
        stage = stage + np.add.reduce((controls @ p.input_weight) * controls, axis=-1)
        terminal = self._terminal(states) if terminal is None else terminal
        return terminal + p.seg_h * np.add.reduce(stage, axis=-1)

    def _terminal(self, states):
        e_n = states[..., -1, :]
        return np.add.reduce((e_n @ self.params.terminal_weight) * e_n, axis=-1)

    def terminal_excess(self, states, terminal=None):
        terminal = self._terminal(states) if terminal is None else terminal
        return np.maximum(np.sqrt(terminal) - self.params.terminal_level, 0.0)

    def total(self, e0, controls, weight):
        """Cost of each control set, its rollout, and the rollout's
        ``e_set.depths`` (depths, offsets, dist).  A row of a batch equals
        the one-row result bit for bit."""
        states = self._states(e0, controls)
        measured = self.e_set.depths(states[..., self.pos])
        return self.cost(states, measured, controls, weight), states, measured

    def cost(self, states, measured, controls, weight):
        """``total``'s cost from a rollout and its depths already measured."""
        terminal = self._terminal(states)       # e_m' P e_m, shared by two terms
        pen = np.sum(self.e_set.worst(measured[0]) ** 2, axis=-1)
        pen = pen + self.terminal_excess(states, terminal) ** 2
        return self.quadratic(states, controls, terminal) + weight * pen

    def gradient(self, states, measured, controls, weight):
        """Exact gradient of ``total`` in the controls, for a pure integrator.

        ``states`` and ``measured`` are the rollout of ``controls`` and its
        depths, as ``total`` returns them.
        ``e_k = e_0 + h * sum_{j<k} u_j``, so ``dJ/du_j = 2h R u_j +
        h * sum_{k>j} dJ/de_k``.  ``dJ/de_k`` holds the stage term ``2h Q
        e_k``, the terminal term ``2 P e_m`` with the terminal-excess
        penalty, and the hinge penalty's subgradient at the active
        constraint: -1 or +1 on a box side, ``-(pos - c)/|pos - c|`` on an
        exclusion ball.
        """
        p = self.params
        d_e = states @ p.d_stage
        e_n = states[-1]
        d_e[-1] = e_n @ p.d_terminal
        norm_p = np.sqrt(0.5 * d_e[-1].dot(e_n))
        excess = norm_p - p.terminal_level
        if excess > 0.0:
            d_e[-1] *= 1.0 + weight * excess / norm_p
        rows, depth, slope = self._active_slopes(measured)
        if rows.size:
            d_e[np.ix_(rows, self.pos)] += (2.0 * weight * depth)[:, None] * slope
        tail = np.cumsum(d_e[:0:-1], axis=0)[::-1]   # sum_{k>j} dJ/de_k
        return controls @ p.d_input + p.seg_h * tail

    def hessian(self, states, measured, weight):
        """Hessian of ``total`` in the flattened controls of a pure integrator:
        ``params.hessian``, the exact one of the terminal-excess penalty, and
        the Gauss-Newton term of each active hinge along ``gradient``'s slope."""
        p, hess = self.params, self.params.hessian
        m, n = states.shape[0] - 1, states.shape[1]
        pe = 0.5 * (states[-1] @ p.d_terminal)
        norm_p = math.sqrt(pe.dot(states[-1]))
        if norm_p > p.terminal_level:
            # e_m moves by h with every control, so every block gains h^2 A
            ratio = p.terminal_level / norm_p
            a = (2.0 * weight * p.seg_h ** 2) * ((ratio / norm_p ** 2) * pe[:, None] * pe
                                                 + (1.0 - ratio) * 0.5 * p.d_terminal)
            hess = (hess.reshape(m, n, m, n) + a[:, None, :]).reshape(m * n, m * n)
        rows, _, slope = self._active_slopes(measured)
        if rows.size:       # row k's slope v, through e_k's controls j < k
            v = np.zeros((rows.size, 1, n))
            v[..., self.pos] = slope[:, None]
            jv = ((np.arange(m)[:, None] < rows[:, None, None]) * v).reshape(-1, m * n)
            hess = hess + (2.0 * weight * p.seg_h ** 2) * (jv.T @ jv)
        return hess

    def _active_slopes(self, measured):
        """Rows with a positive worst depth, that depth, and its slope."""
        depths, offsets, dist = measured
        rows = np.nonzero(np.max(depths, axis=-1) > 0.0)[0]
        if rows.size == 0:
            return rows, None, None
        col = np.argmax(depths[rows], axis=-1)
        slopes = self.e_set.side_slopes
        sides = len(slopes)
        slope = slopes[np.minimum(col, sides - 1)]   # ball rows: below
        on_ball = col >= sides
        k, ball = rows[on_ball], col[on_ball] - sides
        slope[on_ball] = -offsets[k, ball] / np.maximum(dist[k, ball], 1e-300)[:, None]
        return rows, depths[rows, col], slope

    def _states(self, e0, controls):
        return _rollout(self.model, e0, controls, self.params.seg_h)


def solve_fhocp(
    e_now,
    model: DynamicsModel,
    params: FhocpParams,
    e_set: ConstraintSet,
    u_set,
    warm_start: Optional[np.ndarray] = None,
) -> FhocpSolution:
    """Direct single shooting with a projected descent method.

    Controls are ``segments`` piecewise-constant vectors.  For a pure
    integrator the gradient is exact, from the rollout the line search
    already made and its adjoint (``_FhocpObjective.gradient``); other
    models use central finite differences on the control parameters (one
    batched rollout).  A pure integrator on a box input set steps along the
    projected Newton direction, other problems along the spectral
    (Barzilai-Borwein) gradient step; both backtrack over ``P(u + a d)``.
    Path/terminal constraints enter as quadratic hinge penalties whose weight
    is ramped when the measured violation stays above the feasibility
    tolerance.  Penalties are a solver device only: feasibility is declared
    from measured violations.
    """
    e0 = np.asarray(e_now, dtype=float)
    m, n = params.segments, model.n
    obj = _FhocpObjective(model, params, e_set)

    if not e_set.contains(e0[obj.pos]):
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
    newton = model.pure_integrator and isinstance(u_set, Box)
    weight = PENALTY_WEIGHT
    iters_done = 0
    step_size = 1.0
    # ``states`` and ``measured`` always belong to ``controls``: the line
    # search's batch already holds them for the picked candidate, and a new
    # penalty weight only changes the cost
    states = obj._states(e0, controls)
    measured = e_set.depths(states[..., obj.pos])
    while True:
        cost = float(obj.cost(states, measured, controls, weight))
        prev_controls = prev_grad = None
        for _ in range(MAX_ITERS):
            iters_done += 1
            if model.pure_integrator:
                grad = obj.gradient(states, measured, controls, weight)
            else:
                grad = _fd_gradient(obj, e0, controls, weight, fd_step)
            # projected-gradient stop: at a clamped optimum no step can move
            moves = project_input(controls - grad, u_set) - controls
            if float(np.max(np.abs(moves))) < TOL:
                break
            if newton:
                steps, direction = _HALVINGS, _newton_direction(
                    obj.hessian(states, measured, weight), grad, controls, moves, u_set)
            else:
                # spectral (Barzilai-Borwein) initial step along -grad
                curv = 0.0
                if prev_grad is not None:
                    dc, dg = (controls - prev_controls).ravel(), (grad - prev_grad).ravel()
                    curv = float(dc @ dg)
                step_size = (min(max(float(dc @ dc) / curv, 1e-8), 1e3) if curv > 1e-30
                             else min(step_size * 2.0, 1e3))
                prev_controls, prev_grad = controls, grad
                steps, direction = step_size * _HALVINGS, -grad
            cands = project_input(
                controls[None] + steps[:, None, None] * direction[None], u_set
            )
            found = _first_better(obj, e0, cands, cost, weight)
            if found is None:
                break
            pick, cand_cost, states, measured = found
            step_size = float(steps[pick])
            moved = float(np.max(np.abs(cands[pick] - controls)))
            gained = cost - cand_cost
            controls, cost = cands[pick], cand_cost
            if moved < TOL or gained < TOL * (1.0 + abs(cost)):
                break
        violation = float(np.max(e_set.worst(measured[0])))
        if violation <= FEASIBILITY_TOL or weight >= PENALTY_MAX:
            break
        weight *= 10.0

    quad = float(obj.quadratic(states, controls))
    if not np.isfinite(quad):
        raise SolverDiverged("non-finite cost at solution")
    feasible = violation <= FEASIBILITY_TOL
    return FhocpSolution(controls, states, quad, feasible, violation, iters_done)


def _newton_direction(hess, grad, controls, moves, u_set):
    """Projected Newton direction (Bertsekas 1982) on a box input set: a
    control within ``min(_EPS0, |moves|)`` of a bound the gradient pushes it
    against takes ``-g_i / H_ii``, the free ones ``solve(H_FF, -g_F)``."""
    g = grad.ravel()
    eps = min(_EPS0, math.sqrt(float(moves.ravel() @ moves.ravel())))
    bound = (((controls <= u_set.lower + eps) & (grad > 0.0))
             | ((controls >= u_set.upper - eps) & (grad < 0.0))).ravel()
    direction = -g / np.diagonal(hess)
    free = np.flatnonzero(~bound)
    direction[free] = np.linalg.solve(hess[free[:, None], free], -g[free])
    return direction.reshape(controls.shape)


def _first_better(obj, e0, cands, cost, weight):
    """Row, cost, rollout and depths of the first candidate that costs less
    than ``cost``, or None.  Rows are rolled out in chunks that end at
    ``_CHUNKS``, up to the first chunk that holds a better row; after row 0,
    the leading rows that clip to its controls cost what it costs and are
    skipped.  A rolled-out row with a non-finite cost raises ``SolverDiverged``."""
    lo = 0
    for hi in _CHUNKS:
        if lo >= hi:
            continue
        costs, states, measured = obj.total(e0, cands[lo:hi], weight)
        if not np.all(np.isfinite(costs)):
            raise SolverDiverged("non-finite cost during line search")
        better = np.nonzero(costs < cost - 1e-12)[0]
        if better.size:
            i = int(better[0])
            return lo + i, float(costs[i]), states[i], tuple(a[i] for a in measured)
        lo = hi
        if hi == 1:
            same = np.all(cands == cands[0], axis=(1, 2))
            lo = len(cands) if same.all() else int(np.argmin(same))
    return None


def _fd_gradient(obj, e0, controls, weight, fd_step):
    m, n = controls.shape
    dim = m * n
    flat = controls.reshape(dim)
    batch = np.repeat(flat[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    batch[2 * idx, idx] += fd_step
    batch[2 * idx + 1, idx] -= fd_step
    costs = obj.total(e0, batch.reshape(2 * dim, m, n), weight)[0]
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


def _integrator_interval(x, e_hat, u_hat, target, sigma, saturate, delta_fn,
                         t0, dt, substeps, records):
    """``navigate``'s substep loop over one sampling interval for a pure
    integrator, on lists of Python floats.

    Each line does the float operations of the array loop in the same order:
    ``ancillary_control``, the saturation test and projection
    (``_float_saturation``), and both ``rk4_step`` updates, ``x + dt/6*(k +
    2k + 2k + k)`` with ``k = 0.0 + u (+ delta)``.  So every sample has the
    bits the ``rk4_step`` loop gives.  Appends one row per substep to
    ``records`` and returns the final state and the saturation count.
    """
    ts, xs, nominal, inputs, deltas = records
    c = dt / 6
    # the nominal input is held, so the nominal increment is one vector
    nominal_step = [c * (k + 2 * k + 2 * k + k) for k in [0.0 + a for a in u_hat]]
    saturations = 0
    for j in range(substeps):
        t = t0 + j * dt
        delta = np.asarray(delta_fn(t, np.array(x)), dtype=float).tolist()
        u = [a - sigma * ((b - r) - d) for a, b, r, d in zip(u_hat, x, target, e_hat)]
        projected = saturate(u)
        if projected is not None:
            saturations += 1
            u = projected
        x = [a + c * (k + 2 * k + 2 * k + k)
             for a, k in zip(x, [(0.0 + b) + d for b, d in zip(u, delta)])]
        e_hat = [a + b for a, b in zip(e_hat, nominal_step)]
        if not all(map(math.isfinite, x)):
            raise NonFiniteError(f"state became non-finite at t={t + dt}")
        ts.append(t + dt)
        xs.append(x)
        nominal.append([a + b for a, b in zip(e_hat, target)])
        inputs.append(u)
        deltas.append(delta)
    return x, saturations


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
    # one list of floats per sample; the arrays are built once, at the end
    ts = [0.0]
    xs = [x.tolist()]
    nominal = [x.tolist()]
    inputs = [[0.0] * model.n]
    deltas = [[0.0] * model.n]
    records = (ts, xs, nominal, inputs, deltas)
    saturate = _float_saturation(input_set) if model.pure_integrator else None
    costs = []

    warm = None
    arrival_steps = None
    status = TIMED_OUT
    saturations = 0

    k = 0
    while k <= max_steps:
        d = x[pos_idx] - target.center
        pos_err = float(np.sqrt(d.dot(d)))
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
        t0 = k * h
        if model.pure_integrator:
            x_end, sats = _integrator_interval(
                x.tolist(), e.tolist(), u_hat.tolist(), target_state.tolist(),
                tube.sigma, saturate, delta_fn, t0, sim_dt, substeps, records)
            x = np.array(x_end)
            saturations += sats
        else:
            e_hat = e.copy()
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
                xs.append(x.tolist())
                nominal.append((e_hat + target_state).tolist())
                inputs.append(u.tolist())
                deltas.append(delta.tolist())

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
