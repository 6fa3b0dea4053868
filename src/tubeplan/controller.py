"""Tube-based MPC navigation between workspace regions.

The control law has two parts: a nominal input computed online by a finite
horizon optimal control problem (solved by direct single shooting with a
projected descent method), and an ancillary feedback ``u = u_hat -
sigma*q`` that keeps the disturbed trajectory inside a tube of radius
``delta_bound / sigma_margin`` around the nominal one.  For the pure
integrator the gradient is exact (one rollout and its adjoint) and, on a
box input set, the solver takes projected Newton steps; other models take
Barzilai-Borwein steps along central finite differences.  The input set
(``geometry.Box`` or ``Ball``) owns projection, the saturation test and
erosion; its type only picks a box's float clip and Newton step.

All navigation happens in the error frame of the current target: the target
center is mapped to the origin, and constraints are shifted and tightened by
the tube radius.  The nominal runs first and on its own (Mayne, Seron &
Rakovic, Automatica 2005): ``navigate`` computes it, each shooting problem
starting from the nominal error state, which carries over from one interval
to the next and never reads the measured state.  ``track`` then runs the
disturbed state around it under the ancillary law, so the deviation ``q = x
- x_hat`` obeys ``q' = -sigma q + delta`` and stays within the tube radius.
A pure integrator's nominal lands on the target's center at the end of a
run.

Between sampling instants both run on lists of floats, and only their steps
depend on the model (``integrator_increment`` for the pure integrator,
``rk4_step`` otherwise).  A sample is one row ``[t, *x, *x_hat, *u,
*delta]`` of one ``Samples`` matrix, from the closed loop to the trace file.

``navigate`` is a generator that yields its shooting problem at each
sampling instant; ``lockstep`` runs any number of them side by side and
solves all pending problems in one batch (``solve_fhocps``).  The solver
holds every problem on a leading row axis, and a single problem is a batch
of one row.  A broad phase sets apart the problems whose start is farther
from every constraint than the inputs can move a pure integrator within the
horizon (``horizon * max|u|``): their solves measure no constraint, and the
hinge terms they skip would all be 0.
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
    DEFAULT_TOL,
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


# shooting-solver settings
MAX_ITERS = 60
TOL = 1e-8
PENALTY_WEIGHT = 1e3
PENALTY_MAX = 1e6
FEASIBILITY_TOL = 1e-6
_HALVINGS = 0.5 ** np.arange(30)       # backtracking steps
_EPS0 = 1e-3                           # widest epsilon-active band of the Newton step


@dataclass(frozen=True)
class FhocpParams:
    """Horizon, sampling step, and the weights of the quadratic cost ``h
    sum_k (q |e_k|^2 + r |u_k|^2) + p |e_m|^2`` on a ``dim``-dimensional
    state: ``state_weight`` q, ``terminal_weight`` p and ``input_weight`` r,
    each a positive number."""

    horizon: float
    step: float
    state_weight: float
    terminal_weight: float
    input_weight: float
    terminal_level: float
    dim: int
    # the solver's segment length, the slope factor 2 w of each cost term w
    # |e|^2 (the stage and input ones times the segment length), and the
    # Hessian of the quadratic cost in the flattened controls of a pure
    # integrator
    seg_h: float = field(init=False, compare=False, repr=False)
    d_stage: float = field(init=False, compare=False, repr=False)
    d_input: float = field(init=False, compare=False, repr=False)
    d_terminal: float = field(init=False, compare=False, repr=False)
    hessian: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.horizon > self.step > 0):
            raise InvalidParam("need horizon > step > 0")
        ratio = self.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise InvalidParam(f"horizon {self.horizon} must be a whole number "
                               f"of {self.step} s steps")
        if self.terminal_level <= 0:
            raise InvalidParam("terminal level must be > 0")
        for name in ("state_weight", "terminal_weight", "input_weight"):
            if not getattr(self, name) > 0:
                raise InvalidParam(f"{name} must be > 0, got {getattr(self, name)}")
        h = self.horizon / self.segments
        q, p, r = self.state_weight, self.terminal_weight, self.input_weight
        for name, value in (("seg_h", h), ("d_stage", h * (q + q)),
                            ("d_input", h * (r + r)), ("d_terminal", p + p)):
            object.__setattr__(self, name, value)
        # block (j, l): h^2 (d_terminal + d_stage per k > max(j, l)), + d_input
        m = self.segments
        later = m - 1 - np.maximum.outer(np.arange(m), np.arange(m))
        block = h * h * later * self.d_stage + h * h * self.d_terminal + np.eye(m) * self.d_input
        object.__setattr__(self, "hessian", np.kron(block, np.eye(self.dim)))

    @property
    def segments(self) -> int:
        """Piecewise-constant control segments: one per sampling step, a
        whole number of them (``__post_init__``)."""
        return round(self.horizon / self.step)

    @property
    def arrival_radius(self) -> float:
        """Stop-test radius: where the terminal cost ``p |e|^2`` reaches the
        terminal level squared."""
        return self.terminal_level / math.sqrt(self.terminal_weight)


def saturation_count(inputs: np.ndarray, u_set) -> int:
    """Number of rows of ``inputs`` on the input set's boundary or past it,
    within ``DEFAULT_TOL``: the samples whose applied input is saturated,
    clipped by the ancillary law or held there by the nominal input."""
    return int(np.count_nonzero(u_set.outside(inputs, -DEFAULT_TOL)))


def _float_saturation(u_set):
    """``u_set.outside`` then ``u_set.project`` for one input held as a
    list of floats: a function that returns the projected list, or the
    input itself when it is inside the set.  A box is tested and clipped on
    the floats with the same comparisons, which keeps the closed loop fast;
    any other set goes through its own array methods."""
    if isinstance(u_set, Box):
        lower, upper = u_set.lower.tolist(), u_set.upper.tolist()
        low = (u_set.lower - DEFAULT_TOL).tolist()
        high = (u_set.upper + DEFAULT_TOL).tolist()

        def saturate(u):
            for a, lo, hi in zip(u, low, high):
                if a < lo or a > hi:
                    # np.clip: the bound when strictly past it, else the value
                    return [lo if a < lo else hi if a > hi else a
                            for a, lo, hi in zip(u, lower, upper)]
            return u

        return saturate

    def saturate(u):
        v = np.array(u)
        if u_set.outside(v):
            return u_set.project(v).tolist()
        return u

    return saturate


def shift_to_error_frame(model: DynamicsModel, target_state: np.ndarray) -> DynamicsModel:
    """Model expressed in error coordinates ``e = x - target_state``.

    A pure integrator is translation-invariant, so it stays one.
    """
    target = np.asarray(target_state, dtype=float)

    def f(e):
        return model.f(np.asarray(e) + target)

    def g(e):
        return model.g(np.asarray(e) + target)

    return DynamicsModel(f"{model.name}@error", model.n, f, g, model.pure_integrator)


@dataclass
class FhocpSolution:
    controls: np.ndarray          # (segments, n) piecewise-constant inputs
    nominal: np.ndarray           # (segments + 1, n) error states on the grid
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
    for both the penalty and its subgradient; without it (None: no row can
    reach a constraint) every hinge term is 0 and the depths are ``()``.  A
    row of a batch equals the one-row result bit for bit.
    """

    def __init__(self, model, params: FhocpParams, e_set: Optional[ConstraintStack]):
        self.model = model
        self.params = params
        self.e_set = e_set

    def take(self, rows):
        """The objective of the legs at ``rows`` of ``e_set``; itself when
        ``e_set`` has one leg or none."""
        e_set = None if self.e_set is None else self.e_set.take(rows)
        return self if e_set is self.e_set else _FhocpObjective(self.model, self.params, e_set)

    def quadratic(self, states, controls, terminal=None):
        p = self.params
        xs = states[..., :-1, :]
        stage = np.add.reduce((xs * p.state_weight) * xs, axis=-1)
        stage = stage + np.add.reduce((controls * p.input_weight) * controls, axis=-1)
        terminal = self._terminal(states) if terminal is None else terminal
        return terminal + p.seg_h * np.add.reduce(stage, axis=-1)

    def _terminal(self, states):
        e_n = states[..., -1, :]
        return np.add.reduce((e_n * self.params.terminal_weight) * e_n, axis=-1)

    def terminal_excess(self, states, terminal=None):
        terminal = self._terminal(states) if terminal is None else terminal
        return np.maximum(np.sqrt(terminal) - self.params.terminal_level, 0.0)

    def terminal_norms(self, states):
        """``sqrt(p |e_m|^2)`` of each row, as floats."""
        e_n = states[..., -1:, :]
        return [math.sqrt(0.5 * x) for x in ((e_n * self.params.d_terminal)
                                             @ np.swapaxes(e_n, -1, -2)).ravel().tolist()]

    def total(self, e0, controls, weight):
        """Cost of each control set, its rollout, and the rollout's
        ``measure``."""
        states = self._states(e0, controls)
        measured = self.measure(states)
        return self.cost(states, measured, controls, weight), states, measured

    def measure(self, states):
        """``e_set.depths`` (depths, offsets, dist) of a rollout, or ``()``."""
        return () if self.e_set is None else self.e_set.depths(states[..., :2])

    def cost(self, states, measured, controls, weight):
        """``total``'s cost from a rollout and its depths already measured."""
        terminal = self._terminal(states)       # p |e_m|^2, shared by two terms
        pen = self.terminal_excess(states, terminal) ** 2
        if measured:
            pen = np.add.reduce(self.e_set.worst(measured[0]) ** 2, axis=-1) + pen
        return self.quadratic(states, controls, terminal) + weight * pen

    def gradient(self, states, measured, controls, weight, active=None, norms=None):
        """Exact gradient of ``total`` in the controls of each row, for a pure
        integrator.

        ``states`` and ``measured`` are the rollout of ``controls`` and its
        depths, as ``total`` returns them, ``active`` their
        ``_active_slopes`` and ``norms`` their ``terminal_norms`` (each taken
        here when not given); ``weight`` holds one penalty weight per row.
        ``e_k = e_0 + h * sum_{j<k} u_j``, so ``dJ/du_j = 2h r u_j +
        h * sum_{k>j} dJ/de_k``.  ``dJ/de_k`` holds the stage term ``2h q
        e_k``, the terminal term ``2 p e_m`` with the terminal-excess
        penalty, and the hinge penalty's subgradient at the active
        constraint: -1 or +1 on a box side, ``-(pos - c)/|pos - c|`` on an
        exclusion ball.
        """
        p = self.params
        d_e = states * p.d_stage
        d_e[..., -1:, :] = states[..., -1:, :] * p.d_terminal
        norms = self.terminal_norms(states) if norms is None else norms
        # the terminal-excess factor of each row, on floats; times 1.0, which
        # keeps the bits, where there is no excess
        factor = [1.0 + w * (v - p.terminal_level) / v if v - p.terminal_level > 0.0 else 1.0
                  for w, v in zip(weight.tolist(), norms)]
        if factor.count(1.0) < len(factor):
            d_e[:, -1, :] *= np.array(factor)[:, None]
        (rows, steps), depth, slope = self._active_slopes(measured) if active is None else active
        if depth is not None:
            d_e[rows, steps, :2] += (
                (2.0 * weight[rows] * depth)[:, None] * slope)
        tail = d_e[..., :0:-1, :].cumsum(axis=-2)[..., ::-1, :]   # sum_{k>j} dJ/de_k
        return controls * p.d_input + p.seg_h * tail

    def hessian(self, states, measured, weight, active=None, norms=None):
        """Hessian of ``total`` in the flattened controls of each row, for a
        pure integrator: ``params.hessian``, the exact one of the
        terminal-excess penalty, and the Gauss-Newton term of each active
        hinge along ``gradient``'s slope (``active``, ``norms`` as there).
        ``params.hessian`` itself, one for all rows, when no row has a
        penalty term."""
        p = self.params
        (rows, steps), _, slope = self._active_slopes(measured) if active is None else active
        norms = self.terminal_norms(states) if norms is None else norms
        over = [r for r, v in enumerate(norms) if v > p.terminal_level]
        if not over and slope is None:
            return p.hessian
        count, m1, n = states.shape
        m = m1 - 1
        # 2 w h^2 of each row, and ratio / (p |e_m|^2) and (1 - ratio) / 2 of
        # each row past the terminal level, on floats as a batch of one has them
        hh = p.seg_h ** 2
        scale = [2.0 * w * hh for w in weight.tolist()]
        hess = None if len(over) == count else np.repeat(p.hessian[None], count, axis=0)
        if over:
            # e_m moves by h with every control, so every block gains h^2 A
            f = np.array([(scale[r], p.terminal_level / norms[r] / norms[r] ** 2,
                           (1.0 - p.terminal_level / norms[r]) * 0.5)
                          for r in over])[:, :, None, None]
            pe = 0.5 * (states[slice(None) if hess is None else over, -1:, :] * p.d_terminal)
            a = f[:, 0] * ((f[:, 1] * pe.transpose(0, 2, 1)) * pe
                           + f[:, 2] * (p.d_terminal * np.eye(n)))
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
                v[..., :2] = slope[here][:, None]
                jv = ((np.arange(m)[:, None] < steps[here][:, None, None]) * v).reshape(-1, m * n)
                hess[r] = hess[r] + scale[r] * (jv.T @ jv)
        return hess

    def _active_slopes(self, measured):
        """Where the worst depth is positive: the index arrays of those rows
        and steps, that depth, and its slope; Nones without depths."""
        if not measured:
            return (None, None), None, None
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
    answered at once, and the problems that no candidate can take near a
    constraint (``_unreachable``) are solved apart, measuring none.  Each
    solution is bit for bit the one its problem gets in a batch of its own.
    """
    sols = [None] * len(problems)
    groups = {}
    for i, (e, model, params, e_set, u_set, _) in enumerate(problems):
        clear = model.pure_integrator and _unreachable(params, u_set, e_set, e)
        key = clear, len(problems) > 1 and (
            id(params), type(u_set), *(np.asarray(v).tobytes() for v in vars(u_set).values()),
            model.n if model.pure_integrator else model)
        groups.setdefault(key, []).append(i)
    for (clear, _), rows in groups.items():
        _, model, params, _, u_set, _ = problems[rows[0]]
        m, n = params.segments, model.n
        e0 = np.array([problems[i][0] for i in rows], dtype=float)
        stack = None if clear else ConstraintStack.of([problems[i][3] for i in rows])
        inside = [True] * len(rows) if clear else stack.contains(e0[:, :2]).tolist()
        starts = []
        for i, e, ok in zip(rows, e0, inside):
            warm_start = problems[i][5]
            if not ok:
                e_set = problems[i][3]
                controls = np.zeros((m, n))
                sols[i] = FhocpSolution(controls, _rollout(model, e, controls, params.seg_h),
                                        False, float(e_set.violation(e[:2])))
            elif warm_start is None:
                # drive the error to zero over the horizon at constant rate; a
                # crude but dimensionally sensible start that costs the solver
                # far fewer iterations than all-zeros
                starts.append(np.repeat(-e[None] / params.horizon, m, axis=0))
            else:
                starts.append(np.asarray(warm_start, dtype=float))
                if starts[-1].shape != (m, n):
                    raise InvalidParam(f"warm start must have shape {(m, n)}")
        if not starts:
            continue
        feasible = [k for k, ok in enumerate(inside) if ok]
        controls = u_set.project(np.array(starts))
        if len(feasible) < len(rows):
            stack, e0 = stack.take(feasible), e0[feasible]
        solved = _solve_rows(model, params, u_set, stack, e0, controls)
        for k, sol in zip(feasible, solved):
            sols[rows[k]] = sol
    return sols


def _unreachable(params, u_set, e_set, e) -> bool:
    """The broad phase of ``solve_fhocps``: whether no candidate of a pure
    integrator's problem can reach a constraint of ``e_set`` from the start
    ``e``.  Projected inputs move its position at most ``horizon *
    max|u[:2]|``, so a start whose ``ConstraintSet.clearance`` exceeds that
    stays clear, with a rounding slack of 1e-9 of the largest length."""
    reach = params.horizon * math.hypot(*u_set.abs_bound[:2].tolist())
    e = np.asarray(e, dtype=float).tolist()
    scale = 1.0 + reach + max(e_set.radii.tolist(), default=0.0) + max(map(abs, e))
    return e_set.clearance(e[:2]) > reach + 1e-9 * scale


def _solve_rows(model, params, u_set, free, e0, controls):
    """The descent of ``solve_fhocp`` on problems stacked on a leading row
    axis, one or more: starts ``e0`` (rows, n), projected first controls
    (rows, m, n), and their free spaces, a ``ConstraintStack`` with one leg
    per row or one for all, or None where no row can reach a constraint, on
    a shared model, ``params`` and input set.  Every row keeps its own
    penalty weight, step size, stop tests and line search, and leaves the
    batch when it stops.  Returns the ``FhocpSolution`` of each row.

    A step that takes every row indexes the arrays with ``...``, so that it
    costs no gather."""
    obj = _FhocpObjective(model, params, free)
    newton = model.pure_integrator and isinstance(u_set, Box)
    ids = list(range(len(e0)))   # each row's problem
    sols = [None] * len(ids)
    weight = np.full(len(ids), PENALTY_WEIGHT)
    ramped = [0] * len(ids)      # the iteration each row's weight was set at
    if not newton:
        step_size = np.ones(len(ids))
        prev_controls, prev_grad = np.zeros(controls.shape), np.zeros(controls.shape)
        has_prev = np.zeros(len(ids), dtype=bool)
    # ``states`` and ``measured`` always belong to ``controls``: the line
    # search's batch already holds them for the picked candidate, and a new
    # penalty weight only changes the cost
    states = obj._states(e0, controls)
    measured = obj.measure(states)
    cost = obj.cost(states, measured, controls, weight)
    it = 0
    while True:
        it += 1
        count = len(ids)
        if model.pure_integrator:
            active = obj._active_slopes(measured)
            norms = obj.terminal_norms(states)
            grad = obj.gradient(states, measured, controls, weight, active, norms)
        else:
            grad = np.array([_fd_gradient(obj.take([r]), e0[r], controls[r], weight[r], 1e-6)
                             for r in range(count)])
        # projected-gradient stop: at a clamped optimum no step can move
        moves = u_set.project(controls - grad) - controls
        stop = (np.maximum.reduce(np.abs(moves).reshape(count, -1), axis=-1) < TOL).tolist()
        go = [r for r, s in enumerate(stop) if not s]
        if go:
            every = len(go) == count
            sel = ... if every else np.array(go)
            if newton:
                hess = (obj.hessian(states, measured, weight, active, norms) if every else
                        obj.hessian(states[sel], tuple(a[sel] for a in measured), weight[sel]))
                direction = _newton_direction(hess, grad[sel], controls[sel], moves[sel], u_set)
                steps = _HALVINGS[:, None, None]
            else:
                # spectral (Barzilai-Borwein) initial step along -grad
                dc = (controls[sel] - prev_controls[sel]).reshape(len(go), 1, -1)
                dg = (grad[sel] - prev_grad[sel]).reshape(len(go), -1, 1)
                curv = np.where(has_prev[sel], (dc @ dg)[:, 0, 0], 0.0)
                spectral = (dc @ dc.transpose(0, 2, 1))[:, 0, 0] / np.where(curv > 1e-30, curv, 1.0)
                step_size[sel] = np.where(curv > 1e-30, np.minimum(np.maximum(spectral, 1e-8), 1e3),
                                          np.minimum(step_size[sel] * 2.0, 1e3))
                prev_controls[sel], prev_grad[sel] = controls[sel], grad[sel]
                has_prev[sel] = True
                direction = -grad[sel]
                steps = (step_size[sel, None] * _HALVINGS)[:, :, None, None]
            found = _first_better(obj if every else obj.take(sel), e0[sel], controls[sel],
                                  steps, direction, u_set, cost[sel], weight[sel])
            stop = [True] * count       # a row that searched goes on if it moved enough
            if found is not None:
                at, pick, picked, new_cost, new_states, new_measured = found
                rows = go if at is ... else [go[k] for k in at.tolist()]
                moved = ... if len(rows) == count else np.array(rows)
                shift = np.maximum.reduce(np.abs(picked - controls[moved]).reshape(len(rows), -1),
                                          axis=-1)
                for r, d, old, c in zip(rows, shift.tolist(), cost[moved].tolist(),
                                        new_cost.tolist()):
                    stop[r] = d < TOL or old - c < TOL * (1.0 + abs(c))
                if not newton:
                    step_size[moved] = steps[at, pick, 0, 0]
                if len(rows) == count:
                    controls, cost, states, measured = picked, new_cost, new_states, new_measured
                else:
                    controls[moved], cost[moved], states[moved] = picked, new_cost, new_states
                    for a, b in zip(measured, new_measured):
                        a[moved] = b
        # a row whose descent stopped, or ran MAX_ITERS iterations, is done
        # with its penalty weight: it finishes, or goes on with a weight ten
        # times as large while it violates its constraints
        if it >= MAX_ITERS:
            stop = [s or it - r >= MAX_ITERS for s, r in zip(stop, ramped)]
        end = [r for r, s in enumerate(stop) if s]
        if not end:
            continue
        at = ... if len(end) == count else end
        violation = (np.maximum.reduce(ConstraintStack.worst(measured[0][at]), axis=-1).tolist()
                     if measured else [0.0] * len(end))
        ramp = []
        for r, v, w, c in zip(end, violation, weight[at].tolist(), cost[at].tolist()):
            if not (v <= FEASIBILITY_TOL or w >= PENALTY_MAX):
                ramp.append(r)
                ramped[r] = it
            elif not math.isfinite(c):
                raise SolverDiverged("non-finite cost at solution")
            else:
                sols[ids[r]] = FhocpSolution(controls[r], states[r], v <= FEASIBILITY_TOL, v, it)
        if ramp:
            at = ... if len(ramp) == count else ramp
            weight[at] *= 10.0
            cost[at] = obj.cost(states[at], tuple(a[at] for a in measured), controls[at],
                                weight[at])
            if not newton:
                has_prev[at] = False
        keep = [r for r in range(count) if sols[ids[r]] is None]
        if not keep:
            return sols
        if len(keep) < count:
            ids, ramped = [ids[r] for r in keep], [ramped[r] for r in keep]
            e0, controls, states, cost, weight = (
                a.take(keep, axis=0) for a in (e0, controls, states, cost, weight))
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
    ``hess`` is one Hessian per row, or one for all.  Each row with free
    controls solves its own block, the whole Hessian when all are free."""
    rows = len(grad)
    g = grad.reshape(rows, -1)
    eps = np.array([min(_EPS0, math.sqrt(v @ v))
                    for v in moves.reshape(rows, -1)])[:, None, None]
    free = ~(((controls <= u_set.lower + eps) & (grad > 0.0))
             | ((controls >= u_set.upper - eps) & (grad < 0.0))).reshape(rows, -1)
    direction = -g / hess.diagonal(0, -2, -1)
    for r, f in enumerate(free):
        f = f.nonzero()[0]
        if f.size:
            h = hess if hess.ndim == 2 else hess[r]
            direction[r, f] = np.linalg.solve(h.take(f, 0).take(f, 1), -g[r, f])
    return direction.reshape(controls.shape)


def _first_better(obj, e0, controls, steps, direction, u_set, cost, weight):
    """The first candidate ``P(u + a d)`` of each row, over the steps ``a``
    in ``steps`` (candidates, 1, 1), shared, or (rows, candidates, 1, 1),
    that costs less than the row's ``cost``; ``e0``, ``controls`` and
    ``direction`` have a leading row axis.

    Candidate 0 of every row is built and rolled out first, in one batch;
    every other candidate of the rows it does not serve is then rolled out
    in a second one.  A candidate's bits do not depend on its batch.
    Returns the rows that found one, in order, with the candidate's index,
    its controls, cost, rollout and depths, or None; ``...`` and 0 for the
    rows and the index when candidate 0 serves every row.  A rolled-out
    candidate with a non-finite cost raises ``SolverDiverged``."""
    rows = len(cost)
    first = u_set.project(controls + steps[..., 0, :, :] * direction)
    costs, states, measured = obj.total(e0, first, weight)
    if not np.logical_and.reduce(np.isfinite(costs)):
        raise SolverDiverged("non-finite cost during line search")
    better = costs < cost - 1e-12
    if np.count_nonzero(better) == rows:
        return ..., 0, first, costs, states, measured
    rest = (~better).nonzero()[0]
    later = steps[1:] if steps.ndim == 3 else steps[rest, 1:]
    cands = u_set.project(controls[rest, None] + later * direction[rest, None])
    width = cands.shape[1]
    each = np.repeat(rest, width)
    cands = cands.reshape(len(each), *controls.shape[1:])
    more_costs, more_states, more_measured = obj.take(each).total(e0[each], cands, weight[each])
    if not np.logical_and.reduce(np.isfinite(more_costs)):
        raise SolverDiverged("non-finite cost during line search")
    wins = (more_costs < cost[each] - 1e-12).reshape(len(rest), width)
    served = np.logical_or.reduce(wins, axis=-1)
    # each served row's first better candidate takes its candidate 0's place
    pick = wins.argmax(axis=-1)[served]
    won, at = rest[served], served.nonzero()[0] * width + pick
    index = np.zeros(rows, dtype=int)
    index[won] = pick + 1
    better[won] = True
    for a, b in zip((first, costs, states, *measured),
                    (cands, more_costs, more_states, *more_measured)):
        a[won] = b[at]
    found = better.nonzero()[0]
    if found.size == 0:
        return None
    return found, index[found], first[found], costs[found], states[found], tuple(
        a[found] for a in measured)


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


def _series(k):
    """Property: the ``k``-th block of state-sized columns after ``t``."""

    def get(self) -> np.ndarray:
        n = (self.samples.shape[1] - 1) // 4
        return self.samples[:, 1 + k * n:1 + (k + 1) * n]

    return property(get)


@dataclass
class Samples:
    """Closed-loop record, one row ``[t, *x, *x_hat, *u, *delta]`` per sample."""

    samples: np.ndarray
    states = _series(0)
    nominal = _series(1)
    inputs = _series(2)
    deltas = _series(3)

    @staticmethod
    def columns(n: int) -> list:
        """Column names of the samples of an ``n``-dimensional state."""
        return ["t"] + [f"{s}{i}" for s in ("x", "xhat", "u", "delta") for i in range(n)]

    @property
    def ts(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def deviations(self) -> np.ndarray:
        """``|x - x_hat|`` of each sample."""
        d = self.states - self.nominal
        return np.sqrt(np.add.reduce(d * d, axis=-1))

    @property
    def max_deviation(self) -> float:
        """Largest ``|x - x_hat|``; 0.0 for no samples."""
        return float(np.maximum.reduce(self.deviations, initial=0.0))


@dataclass
class Nominal:
    """The nominal run of one navigation attempt, in the error frame of its
    target state ``r``: the nominal input ``u_hat`` held over each sampling
    interval, and the nominal error state ``e_hat = x_hat - r`` at the start
    and after every substep."""

    status: str
    arrival_steps: Optional[int]        # sampling steps until the stop test
    total_steps: int                    # sampling steps actually run
    start: np.ndarray                   # x_hat at the start
    target: np.ndarray                  # r
    held: np.ndarray                    # (total_steps, n): u_hat of each interval
    errors: np.ndarray                  # (total_steps * substeps + 1, n): e_hat
    step: float                         # sampling step
    sim_dt: float                       # substep

    @property
    def arrived(self) -> bool:
        return self.status == ARRIVED

    @property
    def states(self) -> np.ndarray:
        """``x_hat`` at the start and after every substep: ``e_hat + r``."""
        states = self.errors + self.target
        states[0] = self.start
        return states


def reached(pos: np.ndarray, center: np.ndarray, radius: float) -> bool:
    """``navigate``'s stop test ``|pos - center| <= radius``."""
    d = pos - center
    return float(np.sqrt(d.dot(d))) <= radius


def navigate(
    model: DynamicsModel,
    start,
    target: Ball,
    state_constraints: ConstraintSet,
    input_set,
    tube: TubeParams,
    fhocp: FhocpParams,
    max_steps: int,
    settle_steps: int = 0,
    min_duration_steps: int = 0,
    sim_dt: float = 0.01,
) -> Generator[tuple, FhocpSolution, Nominal]:
    """Receding-horizon nominal run from ``start`` towards a region.

    At each sampling instant the shooting problem is solved from the nominal
    error state (warm-started with the shifted previous solution), and its
    first input moves the nominal over the interval; ``track`` then keeps a
    disturbed state in the tube around it.  The stop test
    ``|pos(x_hat) - target.center| <= arrival_radius`` reads the nominal.
    The run ends ``settle_steps`` sampling steps after the stop test first
    passes, but never before ``min_duration_steps`` steps have elapsed, and
    gives up after ``max_steps``.  In that settle window a pure integrator's
    nominal is steered in a straight line onto the target's center by one
    held input, with no shooting problem, and its last error state is 0
    exactly; other models, or a landing input outside the tightened input
    set, keep solving.  Safety is left to the caller.

    A generator driven by ``lockstep``: it yields its shooting problem
    (``solve_fhocp``'s arguments) at each sampling instant, takes its solution
    back, and returns the ``Nominal``.
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

    start = np.asarray(start, dtype=float)
    e = start - target_state
    # e_hat after every substep and u_hat of every interval, as lists of
    # floats; the arrays are built once, at the end
    errors = [e.tolist()]
    held = []

    warm = None
    arrival_steps = end = landing = None
    status = TIMED_OUT

    k = 0
    while k <= max_steps:
        if arrival_steps is None and reached(e[:2], 0.0, arrival_radius):
            arrival_steps = k
            end = max(k + settle_steps, min_duration_steps)
            if model.pure_integrator and end > k:
                # one held input from here onto the center by the run's end
                u_land = e / -((end - k) * h)
                landing = None if u_tight.outside(u_land, 0.0) else u_land.tolist()
        if arrival_steps is not None and k >= end:
            status = ARRIVED
            break
        if k == max_steps:
            break

        if landing is None:
            sol = yield (e, err_model, fhocp, e_set, u_tight, warm)
            if not sol.feasible:
                status = INFEASIBLE
                break
            u_hat = sol.controls[0].tolist()
            warm = np.concatenate((sol.controls[1:], np.zeros((1, model.n))))
        else:
            u_hat = landing
        held.append(u_hat)

        # the nominal over one sampling interval under the held input
        e_hat = errors[-1]
        if model.pure_integrator:
            increment = [integrator_increment(0.0 + a, sim_dt) for a in u_hat]
            for _ in range(substeps):
                e_hat = [a + b for a, b in zip(e_hat, increment)]
                errors.append(e_hat)
        else:
            for _ in range(substeps):
                e_hat = rk4_step(err_model, np.array(e_hat), u_hat, sim_dt).tolist()
                errors.append(e_hat)
        k += 1
        if landing is not None and k == end:
            # landed: the held input's round-off is dropped
            errors[-1] = [0.0] * model.n
        e = np.array(errors[-1])

    return Nominal(status, arrival_steps, k, start, target_state,
                   np.array(held, dtype=float).reshape(k, model.n), np.array(errors),
                   h, sim_dt)


def track(model: DynamicsModel, nominal: Nominal, x_start, tube: TubeParams, input_set,
          disturbance: DisturbanceSpec, seed: int) -> Samples:
    """The disturbed closed loop around ``nominal``, on lists of Python
    floats, from the real state ``x_start``.

    Each substep applies the ancillary law ``u = u_hat - sigma * ((x - r) -
    e_hat)``, with the interval's held nominal input and the nominal error
    state at the substep's start, saturates it (``_float_saturation``), and
    moves the real state by one model step under the disturbance
    (``integrator_increment`` for the pure integrator, ``rk4_step``
    otherwise).  Returns the samples: a start row, one per substep.
    """
    dt = nominal.sim_dt
    substeps = round(nominal.step / dt)
    sigma = tube.sigma
    target = nominal.target.tolist()
    delta_fn = disturbance.generator(nominal.target, seed)
    saturate = _float_saturation(input_set)
    if model.pure_integrator:
        def step(x, u, delta):
            return [a + integrator_increment((0.0 + b) + d, dt) for a, b, d in zip(x, u, delta)]
    else:
        def step(x, u, delta):
            return rk4_step(model, np.array(x), u, dt, delta).tolist()

    x = np.asarray(x_start, dtype=float).tolist()
    n = len(x)
    # one list of floats ``[t, *x, *u, *delta]`` per sample; the nominal
    # columns join them once, at the end
    rows = [[0.0, *x, *[0.0] * (2 * n)]]
    errors = nominal.errors.tolist()
    for k, u_hat in enumerate(nominal.held.tolist()):
        t0 = k * nominal.step
        for j, e_hat in enumerate(errors[k * substeps:(k + 1) * substeps]):
            t = t0 + j * dt
            delta = delta_fn(t, x)
            u = saturate([a - sigma * ((b - r) - d) for a, b, r, d in zip(u_hat, x, target, e_hat)])
            x = step(x, u, delta)
            if not all(map(math.isfinite, x)):
                raise NonFiniteError(f"state became non-finite at t={t + dt}")
            rows.append([t + dt, *x, *u, *delta])
    rows = np.asarray(rows)
    return Samples(np.concatenate((rows[:, :1 + n], nominal.states, rows[:, 1 + n:]), axis=1))


def lockstep(legs) -> list:
    """Run ``navigate`` generators side by side and return their
    ``Nominal`` runs, in order.

    At each sampling step every leg still running yields its shooting
    problem, and all of them are solved in one ``solve_fhocps`` batch; each
    leg's run is bit for bit the one it has on its own.  A single pending
    problem goes through ``solve_fhocp``, its one-problem entry, so that a
    profiler that wraps that name still sees each solve of a one-leg run:
    the abstraction runs every leg here, and execution each leg it cannot
    replay from the abstraction's held inputs (``harness.execute_plan``).
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
