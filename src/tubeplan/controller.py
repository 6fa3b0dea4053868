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

Between sampling instants one substep loop serves every model
(``_interval``), on lists of floats: the ancillary law, its saturation and
the records are shared, and only the real and the nominal step depend on the
model (``integrator_increment`` for the pure integrator, ``rk4_step``
otherwise).

``navigate`` is a generator that yields its shooting problem at each
sampling instant; ``lockstep`` runs any number of them side by side and
solves all pending problems in one batch (``solve_fhocps``).  The solver
holds every problem on a leading row axis, and a single problem is a batch
of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Optional

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
    ConstraintStack,
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
            for a, lo, hi in zip(u, low, high):
                if a < lo or a > hi:
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
        parts[..., 1:, :] = integrator_increment(0.0 + controls, h)
        return np.add.accumulate(parts, axis=-2)
    states = np.empty(batch + (m + 1, controls.shape[-1]))
    e = np.broadcast_to(e0, batch + (e0.shape[-1],)).copy()
    states[..., 0, :] = e
    for k in range(m):
        e = rk4_step(model, e, controls[..., k, :], h)
        states[..., k + 1, :] = e
    return states


class _FhocpObjective:
    """Quadratic cost plus exact-penalty terms of control sets on a leading
    row axis.

    ``e_set`` is a ``ConstraintStack`` whose leg axis lines up with the row
    axis, or one leg, which serves every row.  Its ``depths`` measures every
    box side and every exclusion ball in one broadcast, once per rollout,
    for both the penalty and its subgradient.  A row of a batch equals the
    one-row result bit for bit.
    """

    def __init__(self, model, params: FhocpParams, e_set: ConstraintStack):
        self.model = model
        self.params = params
        self.e_set = e_set
        self.pos = list(model.position_projection)
        # the position columns as a slice where they are contiguous: a view
        # costs less than a gather and holds the same numbers
        first = self.pos[0]
        self.cols = (slice(first, first + len(self.pos))
                     if self.pos == list(range(first, first + len(self.pos))) else self.pos)

    def take(self, rows):
        """The objective of the legs at ``rows`` of ``e_set``; itself when
        ``e_set`` has one leg."""
        e_set = self.e_set.take(rows)
        return self if e_set is self.e_set else _FhocpObjective(self.model, self.params, e_set)

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
        ``e_set.depths`` (depths, offsets, dist)."""
        states = self._states(e0, controls)
        measured = self.e_set.depths(states[..., self.cols])
        return self.cost(states, measured, controls, weight), states, measured

    def cost(self, states, measured, controls, weight):
        """``total``'s cost from a rollout and its depths already measured."""
        terminal = self._terminal(states)       # e_m' P e_m, shared by two terms
        pen = np.add.reduce(self.e_set.worst(measured[0]) ** 2, axis=-1)
        pen = pen + self.terminal_excess(states, terminal) ** 2
        return self.quadratic(states, controls, terminal) + weight * pen

    def gradient(self, states, measured, controls, weight, active=None):
        """Exact gradient of ``total`` in the controls of each row, for a pure
        integrator.

        ``states`` and ``measured`` are the rollout of ``controls`` and its
        depths, as ``total`` returns them, and ``active`` their
        ``_active_slopes`` (taken here when not given); ``weight`` holds one
        penalty weight per row.
        ``e_k = e_0 + h * sum_{j<k} u_j``, so ``dJ/du_j = 2h R u_j +
        h * sum_{k>j} dJ/de_k``.  ``dJ/de_k`` holds the stage term ``2h Q
        e_k``, the terminal term ``2 P e_m`` with the terminal-excess
        penalty, and the hinge penalty's subgradient at the active
        constraint: -1 or +1 on a box side, ``-(pos - c)/|pos - c|`` on an
        exclusion ball.
        """
        p = self.params
        d_e = states @ p.d_stage
        e_n = states[..., -1:, :]
        d_e[..., -1:, :] = e_n @ p.d_terminal
        norm_p = [math.sqrt(0.5 * x) for x in
                  (d_e[..., -1:, :] @ np.swapaxes(e_n, -1, -2)).ravel().tolist()]
        # the terminal-excess factor of each row, on floats; times 1.0, which
        # keeps the bits, where there is no excess
        factor = [1.0 + w * (v - p.terminal_level) / v if v - p.terminal_level > 0.0 else 1.0
                  for w, v in zip(weight.tolist(), norm_p)]
        if factor.count(1.0) < len(factor):
            d_e[:, -1, :] *= np.array(factor)[:, None]
        (rows, steps), depth, slope = self._active_slopes(measured) if active is None else active
        if depth is not None:
            d_e[rows[:, None], steps[:, None], self.pos] += (
                (2.0 * weight[rows] * depth)[:, None] * slope)
        tail = d_e[..., :0:-1, :].cumsum(axis=-2)[..., ::-1, :]   # sum_{k>j} dJ/de_k
        return controls @ p.d_input + p.seg_h * tail

    def hessian(self, states, measured, weight, active=None):
        """Hessian of ``total`` in the flattened controls of each row, for a
        pure integrator: ``params.hessian``, the exact one of the
        terminal-excess penalty, and the Gauss-Newton term of each active
        hinge along ``gradient``'s slope.  ``params.hessian`` itself, one
        for all rows, when no row has a penalty term."""
        p = self.params
        (rows, steps), _, slope = self._active_slopes(measured) if active is None else active
        count, m1, n = states.shape
        m = m1 - 1
        e_n = states[:, -1:, :]
        pe = 0.5 * (e_n @ p.d_terminal)
        norm_p = [math.sqrt(x) for x in (pe @ np.swapaxes(e_n, -1, -2)).ravel().tolist()]
        over = [r for r, v in enumerate(norm_p) if v > p.terminal_level]
        if not over and slope is None:
            return p.hessian
        # 2 w h^2 of each row, and ratio / |e_m|_P^2 and (1 - ratio) / 2 of
        # each row past the terminal level, on floats as a batch of one has them
        hh = p.seg_h ** 2
        scale = [2.0 * w * hh for w in weight.tolist()]
        hess = None if len(over) == count else np.repeat(p.hessian[None], count, axis=0)
        if over:
            # e_m moves by h with every control, so every block gains h^2 A
            f = np.array([(scale[r], p.terminal_level / norm_p[r] / norm_p[r] ** 2,
                           (1.0 - p.terminal_level / norm_p[r]) * 0.5)
                          for r in over])[:, :, None, None]
            pe = pe[slice(None) if hess is None else over]
            a = f[:, 0] * ((f[:, 1] * pe.transpose(0, 2, 1)) * pe + f[:, 2] * p.d_terminal)
            blocks = (p.hessian.reshape(m, n, m, n)
                      + a[:, None, :, None, :]).reshape(-1, m * n, m * n)
            if hess is None:
                hess = blocks
            else:
                hess[over] = blocks
        if slope is not None:
            for r in sorted(set(rows.tolist())):
                # row k's slope v, through e_k's controls j < k
                here = rows == r
                v = np.zeros((np.count_nonzero(here), 1, n))
                v[..., self.pos] = slope[here][:, None]
                jv = ((np.arange(m)[:, None] < steps[here][:, None, None]) * v).reshape(-1, m * n)
                hess[r] = hess[r] + scale[r] * (jv.T @ jv)
        return hess

    def _active_slopes(self, measured):
        """Where the worst depth is positive: the index arrays of those rows
        and steps, that depth, and its slope."""
        depths, offsets, dist = measured
        at = (np.maximum.reduce(depths, axis=-1) > 0.0).nonzero()
        if at[-1].size == 0:
            return at, None, None
        col = depths[at].argmax(axis=-1)
        slopes = self.e_set.side_slopes
        sides = len(slopes)
        slope = slopes[np.minimum(col, sides - 1)]   # ball rows: below
        on_ball = col >= sides
        ball = (*(i[on_ball] for i in at), col[on_ball] - sides)
        slope[on_ball] = -offsets[ball] / np.maximum(dist[ball], 1e-300)[:, None]
        return at, depths[(*at, col)], slope

    def _states(self, e0, controls):
        return _rollout(self.model, e0, controls, self.params.seg_h)


def _rows_at(active, keep, rows):
    """``_active_slopes`` of a batch of ``rows`` rows, cut to the rows at
    ``keep`` (ascending) and numbered as ``keep`` numbers them."""
    (at, steps), depth, slope = active
    if depth is None:
        return active
    number = np.full(rows, -1)
    number[keep] = np.arange(len(keep))
    sel = number[at] >= 0
    return (number[at[sel]], steps[sel]), depth[sel], slope[sel]


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

    This is the one-problem entry of ``solve_fhocps``.
    """
    return solve_fhocps([(e_now, model, params, e_set, u_set, warm_start)])[0]


def solve_fhocps(problems) -> list:
    """``solve_fhocp`` of each problem, given as its argument tuple ``(e_now,
    model, params, e_set, u_set, warm_start)``, in one batch.

    Problems that share ``params``, the input set's bounds and the model
    (any pure integrator of one width, or one other model object) are
    solved together by ``_solve_rows``, stacked on a leading row axis; a
    single problem is a batch of one.  A start outside its free space is
    answered at once.  Each solution is bit for bit the one its problem gets
    in a batch of its own.
    """
    sols = [None] * len(problems)
    groups = {}
    for i, (_, model, params, _, u_set, _) in enumerate(problems):
        key = len(problems) > 1 and (
            id(params), type(u_set), *(np.asarray(v).tobytes() for v in vars(u_set).values()),
            model.position_projection, model.n if model.pure_integrator else model)
        groups.setdefault(key, []).append(i)
    for rows in groups.values():
        _, model, params, _, u_set, _ = problems[rows[0]]
        m, n, pos = params.segments, model.n, list(model.position_projection)
        e0 = np.array([problems[i][0] for i in rows], dtype=float)
        stack = ConstraintStack.of([problems[i][3] for i in rows])
        inside = stack.contains(e0[:, pos])
        starts = []
        for i, e, ok in zip(rows, e0, inside.tolist()):
            warm_start = problems[i][5]
            if not ok:
                e_set = problems[i][3]
                obj = _FhocpObjective(model, params, e_set.stacked)
                controls = np.zeros((m, n))
                states = obj._states(e, controls)
                sols[i] = FhocpSolution(controls, states, float(obj.quadratic(states, controls)),
                                        False, float(e_set.violation(e[pos])))
            elif warm_start is None:
                # drive the error to zero over the horizon at constant rate; a
                # crude but dimensionally sensible start that costs the solver
                # far fewer iterations than all-zeros
                starts.append(np.tile(-e / params.horizon, (m, 1)))
            else:
                starts.append(np.asarray(warm_start, dtype=float))
                if starts[-1].shape != (m, n):
                    raise InvalidParam(f"warm start must have shape {(m, n)}")
        if not starts:
            continue
        feasible = inside.nonzero()[0]
        controls = project_input(np.array(starts), u_set)
        if len(feasible) < len(rows):
            stack, e0 = stack.take(feasible), e0[feasible]
        solved = _solve_rows(model, params, u_set, stack, e0, controls)
        for i, sol in zip((rows[k] for k in feasible.tolist()), solved):
            sols[i] = sol
    return sols


def _solve_rows(model, params, u_set, free, e0, controls):
    """The descent of ``solve_fhocp`` on problems stacked on a leading row
    axis, one or more: starts ``e0`` (rows, n), projected first controls
    (rows, m, n), and their free spaces, a ``ConstraintStack`` with one leg
    per row or one for all, on a shared model, ``params`` and input set.
    Every row keeps its own penalty weight, step size, stop tests and line
    search, and leaves the batch when it stops.  Returns the
    ``FhocpSolution`` of each row.

    A step that takes every row indexes the arrays with ``...``, so that it
    costs no gather."""
    obj = _FhocpObjective(model, params, free)
    fd_step = 1e-6
    newton = model.pure_integrator and isinstance(u_set, Box)
    ids = list(range(len(e0)))   # each row's problem
    sols = [None] * len(ids)
    weight = np.full(len(ids), PENALTY_WEIGHT)
    ramped = np.zeros(len(ids), dtype=int)   # the iteration each row's weight was set at
    if not newton:
        step_size = np.ones(len(ids))
        prev_controls, prev_grad = np.zeros(controls.shape), np.zeros(controls.shape)
        has_prev = np.zeros(len(ids), dtype=bool)
    # ``states`` and ``measured`` always belong to ``controls``: the line
    # search's batch already holds them for the picked candidate, and a new
    # penalty weight only changes the cost
    states = obj._states(e0, controls)
    measured = obj.e_set.depths(states[..., obj.cols])
    cost = obj.cost(states, measured, controls, weight)
    it = 0
    while True:
        it += 1
        count = len(ids)
        if model.pure_integrator:
            active = obj._active_slopes(measured)
            grad = obj.gradient(states, measured, controls, weight, active)
        else:
            grad = np.array([_fd_gradient(obj.take([r]), e0[r], controls[r], weight[r], fd_step)
                             for r in range(count)])
        # projected-gradient stop: at a clamped optimum no step can move
        moves = project_input(controls - grad, u_set) - controls
        stop = np.maximum.reduce(np.abs(moves).reshape(count, -1), axis=-1) < TOL
        go = (~stop).nonzero()[0]
        if go.size:
            every = go.size == count
            sel = ... if every else go
            if newton:
                hess = (obj.hessian(states, measured, weight, active) if every else
                        obj.hessian(states[go], tuple(a[go] for a in measured), weight[go],
                                    _rows_at(active, go, count)))
                direction = _newton_direction(hess, grad[sel], controls[sel], moves[sel], u_set)
                steps = _HALVINGS[:, None, None]
            else:
                # spectral (Barzilai-Borwein) initial step along -grad
                dc = (controls[sel] - prev_controls[sel]).reshape(go.size, 1, -1)
                dg = (grad[sel] - prev_grad[sel]).reshape(go.size, -1, 1)
                curv = np.where(has_prev[go], (dc @ dg)[:, 0, 0], 0.0)
                spectral = (dc @ dc.transpose(0, 2, 1))[:, 0, 0] / np.where(curv > 1e-30, curv, 1.0)
                step_size[go] = np.where(curv > 1e-30, np.minimum(np.maximum(spectral, 1e-8), 1e3),
                                         np.minimum(step_size[go] * 2.0, 1e3))
                prev_controls[sel], prev_grad[sel] = controls[sel], grad[sel]
                has_prev[go] = True
                direction = -grad[sel]
                steps = (step_size[go, None] * _HALVINGS)[:, :, None, None]
            found = _first_better(obj if every else obj.take(go), e0[sel], controls[sel],
                                  steps, direction, u_set, cost[sel], weight[sel])
            stop[sel] = True
            if found is not None:
                at, pick, picked, new_cost, new_states, new_measured = found
                moved = ... if at.size == count else go.take(at)
                shift = np.maximum.reduce(np.abs(picked - controls[moved]).reshape(at.size, -1),
                                          axis=-1)
                stop[moved] = [d < TOL or old - c < TOL * (1.0 + abs(c)) for d, old, c in
                               zip(shift.tolist(), cost[moved].tolist(), new_cost.tolist())]
                if not newton:
                    step_size[moved] = steps[at, pick, 0, 0]
                if at.size == count:
                    controls, cost, states, measured = picked, new_cost, new_states, new_measured
                else:
                    controls[moved], cost[moved], states[moved] = picked, new_cost, new_states
                    for a, b in zip(measured, new_measured):
                        a[moved] = b
        # a row whose descent stopped, or ran MAX_ITERS iterations, is done
        # with its penalty weight
        if it >= MAX_ITERS:
            stop |= it - ramped >= MAX_ITERS
        ending = np.count_nonzero(stop)
        if ending == 0:
            continue
        end = ... if ending == count else stop.nonzero()[0]
        worst = ConstraintStack.worst(measured[0][end])
        violation = np.maximum.reduce(worst, axis=-1).tolist()
        done = [v <= FEASIBILITY_TOL or w >= PENALTY_MAX
                for v, w in zip(violation, weight[end].tolist())]
        finishing = done.count(True)
        if finishing < ending:
            end = stop.nonzero()[0]
            ramp = end[[not d for d in done]]
            at = ... if ramp.size == count else ramp
            weight[ramp] *= 10.0
            cost[ramp] = obj.cost(states[at], tuple(a[at] for a in measured), controls[at],
                                  weight[ramp])
            ramped[ramp] = it
            if not newton:
                has_prev[ramp] = False
            if finishing == 0:
                continue
            end = end[done]
            violation = [v for v, d in zip(violation, done) if d]
        quad = obj.quadratic(states[end], controls[end])
        if np.count_nonzero(np.isfinite(quad)) < finishing:
            raise SolverDiverged("non-finite cost at solution")
        rows = range(count) if finishing == count else end.tolist()
        for r, q, v in zip(rows, quad.tolist(), violation):
            sols[ids[r]] = FhocpSolution(controls[r], states[r], q, v <= FEASIBILITY_TOL, v, it)
        if finishing == count:
            return sols
        keep = np.ones(count, dtype=bool)
        keep[end] = False
        keep = keep.nonzero()[0]
        ids = [ids[r] for r in keep.tolist()]
        e0, controls, states, cost, weight, ramped = (
            a.take(keep, axis=0) for a in (e0, controls, states, cost, weight, ramped))
        measured = tuple(a.take(keep, axis=0) for a in measured)
        obj = obj.take(keep)
        if not newton:
            step_size, prev_controls, prev_grad, has_prev = (
                a.take(keep, axis=0) for a in (step_size, prev_controls, prev_grad, has_prev))


def _newton_direction(hess, grad, controls, moves, u_set):
    """Projected Newton direction (Bertsekas 1982) on a box input set, per
    row: a control within ``min(_EPS0, |moves|)`` of a bound the gradient
    pushes it against takes ``-g_i / H_ii``, the free ones ``solve(H_FF,
    -g_F)``.  ``grad``, ``controls`` and ``moves`` have shape (rows, m, n);
    ``hess`` is one Hessian per row, or one for all.  The free blocks of the
    rows with the same number of free controls are solved in one stacked
    call, which gives each row the bits of its own."""
    rows = len(grad)
    g = grad.reshape(rows, -1)
    eps = np.array([min(_EPS0, math.sqrt(float(v @ v)))
                    for v in moves.reshape(rows, -1)])[:, None, None]
    free = ~(((controls <= u_set.lower + eps) & (grad > 0.0))
             | ((controls >= u_set.upper - eps) & (grad < 0.0))).reshape(rows, -1)
    sizes = np.add.reduce(free, axis=-1).tolist()
    if sizes.count(g.shape[1]) == rows:
        return np.linalg.solve(hess, -g[..., None]).reshape(controls.shape)
    direction = -g / hess.diagonal(0, -2, -1)
    for k in set(sizes) - {0}:
        at = [r for r, size in enumerate(sizes) if size == k]
        if len(at) == 1:        # one row: plain indexing costs less
            r = at[0]
            f = free[r].nonzero()[0]
            h = hess if hess.ndim == 2 else hess[r]
            direction[r][f] = np.linalg.solve(h[f[:, None], f], -g[r][f])
            continue
        at = np.array(at)[:, None]
        f = free[at[:, 0]].nonzero()[1].reshape(len(at), k)
        block = (hess[f[:, :, None], f[:, None, :]] if hess.ndim == 2
                 else hess[at[:, :, None], f[:, :, None], f[:, None, :]])
        direction[at, f] = np.linalg.solve(block, -g[at, f][..., None])[..., 0]
    return direction.reshape(controls.shape)


def _first_better(obj, e0, controls, steps, direction, u_set, cost, weight):
    """The first candidate ``P(u + a d)`` of each row, over the steps ``a``
    in ``steps`` (candidates, 1, 1), shared, or (rows, candidates, 1, 1),
    that costs less than the row's ``cost``; ``e0``, ``controls`` and
    ``direction`` have a leading row axis.

    Candidate 0 of every row is built and rolled out first; the other
    candidates are built only for the rows it does not serve.  Each of
    those rolls out its candidates in chunks that end at ``_CHUNKS``, up to
    the first chunk that holds a better one; the leading candidates that
    clip to candidate 0's controls cost what it costs and are skipped.  A
    chunk of every row that searches is rolled out in one batch.  Returns
    the rows that found one, in order, with the candidate's index, its
    controls, cost, rollout and depths, or None.  A rolled-out candidate
    with a non-finite cost raises ``SolverDiverged``."""
    rows = len(cost)
    first = project_input(controls + steps[..., 0, :, :] * direction, u_set)
    costs, states, measured = obj.total(e0, first, weight)
    if not np.logical_and.reduce(np.isfinite(costs)):
        raise SolverDiverged("non-finite cost during line search")
    better = costs < cost - 1e-12
    if np.count_nonzero(better) == rows:
        return np.arange(rows), np.zeros(rows, dtype=int), first, costs, states, measured
    hit = better.nonzero()[0]
    found = [(hit, np.zeros(hit.size, dtype=int), first[hit], costs[hit], states[hit],
              *(a[hit] for a in measured))]
    rest = (~better).nonzero()[0]
    cands = project_input(controls[rest, None] + (steps if steps.ndim == 3 else steps[rest])
                          * direction[rest, None], u_set)
    width = cands.shape[1]
    same = np.logical_and.reduce((cands == cands[:, :1]).reshape(len(rest), width, -1), axis=-1)
    lo = np.where(np.logical_and.reduce(same, axis=-1), width, same.argmin(axis=-1))
    for hi in _CHUNKS[1:]:
        sel = (lo < hi).nonzero()[0]
        if sel.size == 0:
            continue
        span = hi - lo[sel]
        at = np.repeat(sel, span)            # position in ``rest`` of each candidate
        col = np.arange(len(at)) + np.repeat(lo[sel] - (span.cumsum() - span), span)
        each = rest[at]
        costs, states, measured = obj.take(each).total(e0[each], cands[at, col], weight[each])
        if not np.logical_and.reduce(np.isfinite(costs)):
            raise SolverDiverged("non-finite cost during line search")
        lo[sel] = hi
        hit = (costs < cost[each] - 1e-12).nonzero()[0]
        if hit.size:
            first = hit[np.concatenate(([True], at[hit[1:]] != at[hit[:-1]]))]
            found.append((each[first], col[first], cands[at[first], col[first]], costs[first],
                          states[first], *(a[first] for a in measured)))
            lo[at[first]] = width            # found: searches no further
    order = np.argsort(np.concatenate([part[0] for part in found]))   # by row
    parts = [np.concatenate(p)[order] for p in zip(*found)]
    if parts[0].size == 0:
        return None
    return (*parts[:5], tuple(parts[5:]))


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
    d = states - nominal
    return float(np.maximum.reduce(np.sqrt(np.add.reduce(d * d, axis=-1)), initial=0.0))


def _interval(x, e_hat, u_hat, target, sigma, saturate, step, nominal_step, delta_fn,
              t0, dt, substeps, records):
    """``navigate``'s substep loop over one sampling interval, on lists of
    Python floats.

    Each substep applies the ancillary law ``u = u_hat - sigma * ((x -
    target) - e_hat)``, saturates it (``_float_saturation``), and moves the
    real state by ``step(x, u, delta)`` and the nominal one by
    ``nominal_step(e_hat)``; ``navigate`` picks the two steps for the model.
    Appends one row per substep to ``records`` and returns the final state
    and the saturation count.
    """
    ts, xs, nominal, inputs, deltas = records
    saturations = 0
    for j in range(substeps):
        t = t0 + j * dt
        delta = delta_fn(t, x)
        u = [a - sigma * ((b - r) - d) for a, b, r, d in zip(u_hat, x, target, e_hat)]
        projected = saturate(u)
        if projected is not None:
            saturations += 1
            u = projected
        x = step(x, u, delta)
        e_hat = nominal_step(e_hat)
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
) -> Generator[tuple, FhocpSolution, NavigationOutcome]:
    """Receding-horizon navigation of the disturbed system towards a region.

    At each sampling instant the nominal error state is reset to the measured
    one, the shooting problem is re-solved (warm-started with the shifted
    previous solution), and the ancillary law is applied over the interval.
    The run stops ``settle_steps`` sampling steps after the stop test
    ``|pos(x) - target.center| <= arrival_radius`` first passes, but never
    before ``min_duration_steps`` steps have elapsed, and gives up after
    ``max_steps``.  Safety of the samples is left to the caller.

    A generator: at each sampling instant it yields its shooting problem, the
    argument tuple of ``solve_fhocp``, and takes that problem's solution
    back; it returns the ``NavigationOutcome``.  ``lockstep`` drives it.
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
    saturate = _float_saturation(input_set)
    target_list = target_state.tolist()
    costs = []

    # the real and the nominal step of one substep, on floats; the nominal
    # input is held over an interval, so ``nominal_step`` makes the nominal
    # step of each one
    if model.pure_integrator:
        def step(x, u, delta):
            return [a + integrator_increment((0.0 + b) + d, sim_dt)
                    for a, b, d in zip(x, u, delta)]

        def nominal_step(u_hat):
            held = [integrator_increment(0.0 + a, sim_dt) for a in u_hat]
            return lambda e_hat: [a + b for a, b in zip(e_hat, held)]
    else:
        def step(x, u, delta):
            return rk4_step(model, np.array(x), u, sim_dt, delta).tolist()

        def nominal_step(u_hat):
            return lambda e_hat: rk4_step(err_model, np.array(e_hat), u_hat, sim_dt).tolist()

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
        sol = yield (e, err_model, fhocp, e_set, u_tight, warm)
        if not sol.feasible:
            status = INFEASIBLE
            break
        costs.append(sol.cost)
        u_hat = sol.controls[0].tolist()

        # propagate the coupled (real, nominal) pair over one sampling interval
        x_end, sats = _interval(
            x.tolist(), e.tolist(), u_hat, target_list, tube.sigma, saturate,
            step, nominal_step(u_hat), delta_fn, k * h, sim_dt, substeps, records)
        x = np.array(x_end)
        saturations += sats

        warm = np.concatenate((sol.controls[1:], np.zeros((1, model.n))))
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


def lockstep(legs) -> list:
    """Run ``navigate`` generators side by side and return their outcomes,
    in order.

    At each sampling step every leg still running yields its shooting
    problem, and all of them are solved in one ``solve_fhocps`` batch; each
    leg's run is bit for bit the one it has on its own.  A single pending
    problem goes through ``solve_fhocp``, its one-problem entry, so that a
    profiler that wraps that name still sees each solve of a one-leg run.
    """
    legs = list(legs)
    outcomes = [None] * len(legs)
    pending = {}

    def advance(i, sol):
        try:
            pending[i] = legs[i].send(sol)
        except StopIteration as stop:
            outcomes[i] = stop.value

    for i in range(len(legs)):
        advance(i, None)
    while pending:
        running = list(pending)
        problems = [pending.pop(i) for i in running]
        sols = [solve_fhocp(*problems[0])] if len(problems) == 1 else solve_fhocps(problems)
        for i, sol in zip(running, sols):
            advance(i, sol)
    return outcomes
