import dataclasses
import hashlib

import numpy as np
import pytest

from tubeplan import controller
from tubeplan.controller import (
    FhocpParams,
    _FhocpObjective,
    _fd_gradient,
    _rollout,
    lockstep,
    make_tube_params,
    navigate,
    saturation_count,
    shift_to_error_frame,
    solve_fhocp,
    track,
)
from tubeplan.dynamics import (
    DisturbanceSpec,
    DynamicsModel,
    demo_nonlinear,
    rk4_step,
    single_integrator,
)
from tubeplan.errors import InvalidParam, SolverDiverged
from tubeplan.geometry import (
    Ball,
    Box,
    ConstraintSet,
    ConstraintStack,
    tighten_input_constraints,
    tighten_state_constraints,
)
from tubeplan.scenario import default_scenario, scenario_from_dict

from conftest import tiny_dict


def test_tube_params_arithmetic():
    tp = make_tube_params(lipschitz=1.0, gain_floor=0.9, sigma_margin=2.0,
                          delta_bound=0.1)
    assert tp.sigma == pytest.approx(1.0 / 0.9 + 2.0)
    assert tp.tube_radius == pytest.approx(0.05)
    tp0 = make_tube_params(0.0, 1.0, 1.0, 0.0)
    assert tp0.sigma == 1.0
    assert tp0.tube_radius == 0.0


def test_tube_params_validation():
    with pytest.raises(InvalidParam):
        make_tube_params(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(InvalidParam):
        make_tube_params(1.0, 1.0, -1.0, 0.1)


def test_arrival_radius():
    p = FhocpParams(1.2, 0.1, 0.5, 0.5, 0.5, 0.1, 3)
    assert p.arrival_radius == pytest.approx(0.1 / np.sqrt(0.5))
    assert p.segments == 12
    # every weight must be positive
    for name in ("state_weight", "terminal_weight", "input_weight"):
        for bad in (0.0, -0.5):
            with pytest.raises(InvalidParam, match=name):
                dataclasses.replace(p, **{name: bad})


def test_horizon_must_be_whole_steps():
    # 1.25 s would be 12 segments of 0.1042 s, 0.11 s one segment of 0.11 s
    for horizon in (1.25, 0.11):
        with pytest.raises(InvalidParam, match="whole number"):
            _params(horizon=horizon, step=0.1)
    assert _params(horizon=0.6, step=0.1).segments == 6


def test_project_input_box_and_ball():
    box = Box([-0.2, -0.2], [0.2, 0.2])
    assert np.allclose(box.project(np.array([0.5, -0.1])), [0.2, -0.1])
    ball = Ball([0.0, 0.0], 1.0)
    p = ball.project(np.array([3.0, 4.0]))
    assert np.linalg.norm(p) == pytest.approx(1.0)
    assert np.allclose(p, [0.6, 0.8])
    assert box.outside(np.array([0.25, 0.0]))
    assert not box.outside(np.array([0.2, 0.2]))


def _edge_inputs(u_set, tol, rng):
    """Random inputs, plus inputs on the set's edge along each axis: on it,
    ``tol`` inside and outside it, and one ulp either side of ``tol``
    outside; with the verdict each edge input must get."""
    rows = [(u, None) for u in rng.uniform(-0.5, 0.5, size=(200, 3))]
    for i in range(3):
        if isinstance(u_set, Box):
            # the other coordinates sit in the middle of the box
            base = 0.5 * (u_set.lower + u_set.upper)
            edges = [(u_set.upper[i], 1.0, np.inf), (u_set.lower[i], -1.0, -np.inf)]
        else:
            base = np.zeros(3)
            edges = [(u_set.radius, 1.0, np.inf), (-u_set.radius, -1.0, -np.inf)]
        for bound, out, away in edges:
            limit = bound + out * tol
            for value, bad in ((bound, False), (bound - out * tol, False),
                               (limit, False), (np.nextafter(limit, -away), False),
                               (np.nextafter(limit, away), True)):
                u = base.copy()
                u[i] = value
                rows.append((u, bad))
    if isinstance(u_set, Ball):
        # off the axes the norm rounds, so only the batching is checked
        d = rng.normal(size=(60, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        for scale in (u_set.radius, u_set.radius + tol,
                      np.nextafter(u_set.radius + tol, np.inf)):
            rows += [(u, None) for u in d * scale]
    return np.array([u for u, _ in rows]), [bad for _, bad in rows]


@pytest.mark.parametrize("u_set", [
    Box([-0.3, -0.2, -0.1], [0.3, 0.2, 0.4]), Ball(np.zeros(3), 0.3),
], ids=["box", "ball"])
def test_batched_input_violation_is_the_per_row_rule(u_set):
    tol = 1e-9
    u, expected = _edge_inputs(u_set, tol, np.random.default_rng(3))
    batched = u_set.outside(u, tol)
    assert batched.shape == (len(u),)
    if isinstance(u_set, Box):
        rule = [bool(np.any(row < u_set.lower - tol) or np.any(row > u_set.upper + tol))
                for row in u]
    else:
        rule = [float(np.sqrt(np.add.reduce(row * row))) > u_set.radius + tol
                for row in u]
    assert batched.tolist() == rule
    assert [bool(u_set.outside(row, tol)) for row in u] == rule
    assert np.array_equal(u_set.outside(u.reshape(-1, 2, 3), tol),
                          batched.reshape(-1, 2))
    checked = [(got, bad) for got, bad in zip(rule, expected) if bad is not None]
    assert len(checked) == 30
    assert all(got == bad for got, bad in checked)


def test_shift_to_error_frame():
    m = single_integrator(2)
    target = np.array([1.0, -1.0])
    em = shift_to_error_frame(m, target)
    e = np.array([0.3, 0.4])
    assert np.allclose(em.f(e), m.f(e + target))
    assert np.allclose(em.g(e), m.g(e + target))
    assert em.pure_integrator


def test_pure_integrator_rollout_is_the_step_loop():
    # the exact path must add the same increments in the same order as
    # stepping the four-stage RK4 once per segment
    fast = shift_to_error_frame(single_integrator(3), np.array([1.0, -1.0, 0.0]))
    ref = single_integrator(3)
    rng = np.random.default_rng(5)
    for h in (0.1, 1.0):
        e0 = rng.normal(size=3)
        controls = rng.normal(size=(72, 12, 3))
        want = np.empty((72, 13, 3))
        want[:, 0] = e = np.broadcast_to(e0, (72, 3))
        for k in range(12):
            e = rk4_step(ref, e, controls[:, k], h)
            want[:, k + 1] = e
        assert np.array_equal(_rollout(fast, e0, controls, h), want)


def _params(**kw):
    defaults = dict(
        horizon=1.2, step=0.1,
        state_weight=0.5, terminal_weight=0.5, input_weight=0.5, terminal_level=0.1, dim=2,
    )
    defaults.update(kw)
    return FhocpParams(**defaults)


# a box no state of these problems reaches: only the terminal penalty acts
UNBOUNDED = ConstraintSet(Box([-1e3, -1e3], [1e3, 1e3]))


def test_solve_fhocp_beats_candidate_controls():
    # optimality sanity: the solver's cost is no worse than a family of
    # hand-picked feasible candidates evaluated with the same objective
    m = single_integrator(2)
    params = _params()
    u_set = Box([-1.0, -1.0], [1.0, 1.0])
    e0 = np.array([0.8, -0.5])
    sol = solve_fhocp(e0, m, params, UNBOUNDED, u_set)
    assert sol.feasible
    # the terminal set is a soft target; from a reachable start it is met
    near = solve_fhocp(np.array([0.1, -0.05]), m, params, UNBOUNDED, u_set)
    e_n = near.nominal[-1]
    level = params.terminal_level + 1e-4
    assert float(params.terminal_weight * (e_n @ e_n)) <= level * level

    obj = _FhocpObjective(m, params, UNBOUNDED.stacked)
    rng = np.random.default_rng(0)
    cands = [np.zeros((12, 2)), np.tile(-e0 / 1.2, (12, 1))]
    cands += [np.clip(np.tile(-e0 / 1.2, (12, 1)) + 0.05 * rng.normal(size=(12, 2)),
                      -1, 1) for _ in range(20)]
    for c in cands:
        cost, states, _ = obj.total(e0[None], c[None], 0.0)
        # candidates that satisfy the terminal constraint must not beat it
        if obj.terminal_excess(states)[0] <= 1e-9:
            assert float(obj.quadratic(sol.nominal[None], sol.controls[None])[0]) <= (
                float(cost[0]) + 1e-6)


def test_solve_fhocp_respects_obstacle():
    m = single_integrator(2)
    params = _params()
    u_set = Box([-1.0, -1.0], [1.0, 1.0])
    e_set = ConstraintSet(Box([-3.0, -3.0], [3.0, 3.0]),
                          [Ball([0.5, 0.06], 0.2)])
    sol = solve_fhocp(np.array([1.0, 0.0]), m, params, e_set, u_set)
    assert sol.feasible
    assert sol.violation <= 1e-6
    for e in sol.nominal:
        assert np.linalg.norm(e - [0.5, 0.06]) >= 0.2 - 1e-5


def _bundled_leg_problem(exclusions):
    # the leg R1 -> R3 of the bundled scenario, in R3's error frame, as
    # navigate sets it up: seven inflated third regions inside the box;
    # the model, the FHOCP parameters and the free space
    scenario = default_scenario()
    model = scenario.model()
    target = scenario.regions["R3"].center
    e_set = tighten_state_constraints(scenario.state_constraints_for("R1", "R3"),
                                      target, scenario.tube_params().tube_radius)
    assert len(e_set.exclusions) == 7
    if exclusions == "none":
        e_set = ConstraintSet(e_set.region, ())
    err_model = shift_to_error_frame(model, model.embed_position(target))
    return err_model, scenario.fhocp_params(), e_set


def _bundled_leg_objective(exclusions):
    model, params, e_set = _bundled_leg_problem(exclusions)
    return _FhocpObjective(model, params, e_set.stacked)


@pytest.mark.parametrize("exclusions", ["seven", "none"])
def test_adjoint_gradient_matches_finite_differences(exclusions):
    obj = _bundled_leg_objective(exclusions)
    free = _bundled_leg_problem("seven")[2]
    rng = np.random.default_rng(11)
    branches = set()
    for i in range(60):
        e0 = rng.uniform(-0.5, 0.5, size=3)
        # starts outside the box, inside an inflated ball, or anywhere
        e0[:2] += rng.uniform(free.region.lower - 0.4, free.region.upper + 0.4)
        if i % 3 == 0:
            ball = free.exclusions[i % 7]
            e0[:2] = ball.center + rng.uniform(-0.6, 0.6, size=2) * ball.radius
        controls = rng.normal(scale=0.4, size=(obj.params.segments, 3))
        weight = 10.0 ** rng.uniform(3, 6)

        _, states, measured = obj.total(e0[None], controls[None], weight)
        grad = obj.gradient(states, measured, controls[None], np.array([weight]))[0]
        oracle = _fd_gradient(obj, e0, controls, weight, 1e-6)
        assert np.max(np.abs(grad - oracle)) <= 1e-6 * np.max(np.abs(oracle))

        if obj.terminal_excess(states)[0] > 0:
            branches.add("terminal")
        depths = measured[0][0]
        active = np.argmax(depths[np.max(depths, axis=-1) > 0], axis=-1)
        branches.update(np.where(active < 2, "lower",
                                 np.where(active < 4, "upper", "ball")).tolist())
    # every penalty branch was active somewhere in the sample
    want = {"terminal", "lower", "upper"}
    if exclusions == "seven":
        want.add("ball")
    assert branches == want


def test_finite_differences_still_drive_other_models(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _fd_gradient(*args)

    monkeypatch.setattr(controller, "_fd_gradient", counting)
    params = _params()
    u_set = Box([-1.0, -1.0], [1.0, 1.0])
    e_set = ConstraintSet(Box([-3.0, -3.0], [3.0, 3.0]), [Ball([0.5, 0.06], 0.2)])
    e0 = np.array([1.0, 0.0])
    sol = solve_fhocp(e0, demo_nonlinear(2), params, e_set, u_set)
    assert len(calls) == sol.iterations > 0
    assert sol.feasible and sol.violation <= 1e-6
    calls.clear()
    sol = solve_fhocp(e0, single_integrator(2), params, e_set, u_set)
    assert sol.feasible and sol.iterations > 0
    assert calls == []


# central differences of the exact gradient along random directions must be
# the Hessian's products: in the box side case the hinge is linear, so its
# Gauss-Newton term is exact too
HESSIAN_CASES = {
    "no_penalty": ([0.03, 0.02, 0.0], [-0.025, -0.017, 0.0]),
    "terminal": ([0.6, 0.3, 0.1], [0.0, 0.0, 0.0]),
    "box_side": ([2.15, 0.5, 0.0], [0.5, 0.0, 0.0]),
}


@pytest.mark.parametrize("case", list(HESSIAN_CASES))
def test_hessian_matches_differences_of_the_gradient(case):
    obj = _bundled_leg_objective("seven")
    m, weight, fd_step = obj.params.segments, 1e4, 1e-6
    rng = np.random.default_rng(17)
    start, rate = HESSIAN_CASES[case]
    e0 = np.array(start)
    controls = np.tile(rate, (m, 1)) + rng.normal(scale=1e-3, size=(m, 3))

    def at(c):
        _, states, measured = obj.total(e0[None], c[None], weight)
        depths = measured[0][0]
        # which penalty is active, and on which constraint
        active = (obj.terminal_excess(states)[0] > 0.0,
                  [(k, int(np.argmax(row))) for k, row in enumerate(depths) if row.max() > 0.0])
        return (obj.gradient(states, measured, c[None], np.array([weight]))[0], states, measured,
                active)

    _, states, measured, active = at(controls)
    hess = obj.hessian(states, measured, np.array([weight]))
    assert active[0] == (case != "no_penalty")
    sides = 4     # two per position coordinate
    assert bool(active[1]) == (case == "box_side")
    assert all(col < sides for _, col in active[1])
    assert (hess is obj.params.hessian) == (case == "no_penalty")
    for _ in range(4):
        v = rng.normal(size=(m, 3))
        plus, minus = at(controls + fd_step * v), at(controls - fd_step * v)
        # the step crosses no kink of the hinges
        assert plus[3] == minus[3] == active
        diff = ((plus[0] - minus[0]) / (2 * fd_step)).ravel()
        hv = (hess @ v.ravel()).ravel()
        assert np.max(np.abs(hv - diff)) <= 1e-6 * np.max(np.abs(hv))


# A convex box-constrained problem: a far-away box and no balls, so only the
# terminal excess can add to the quadratic cost.  The objective the solver
# minimises at its solution, as the spectral projected gradient solver left
# it, with its iterations: the Newton step must do no worse, and where the
# excess stays zero the problem is quadratic and two iterations solve it
CONVEX_PARENT = {
    (0.15, (0.1, 0.05, 0.0)): (0.006540528687720113, 7),
    (1.0, (0.1, 0.05, 0.0)): (0.006540528687720113, 7),
    (1.0, (0.3, 0.2, 0.1)): (0.07325391474809304, 8),
    (0.15, (0.3, 0.2, 0.1)): (0.07694233846724437, 46),
}


@pytest.mark.parametrize("bound, start", list(CONVEX_PARENT))
def test_newton_step_solves_the_convex_case(bound, start):
    model, params = single_integrator(3), default_scenario().fhocp_params()
    e_set = ConstraintSet(Box([-1e3, -1e3], [1e3, 1e3]))
    u_set = Box(-bound * np.ones(3), bound * np.ones(3))
    e0 = np.array(start)
    sol = solve_fhocp(e0, model, params, e_set, u_set)
    obj = _FhocpObjective(model, params, e_set.stacked)
    weight = np.array([controller.PENALTY_WEIGHT])
    cost, states, measured = obj.total(e0[None], sol.controls[None], weight)
    grad = obj.gradient(states, measured, sol.controls[None], weight)[0]
    assert sol.feasible
    assert np.max(np.abs(u_set.project(sol.controls - grad) - sol.controls)) < controller.TOL
    parent_cost, parent_iterations = CONVEX_PARENT[bound, start]
    assert float(cost[0]) <= parent_cost
    if obj.terminal_excess(states)[0] == 0.0:
        assert sol.iterations <= 2
    else:       # the box holds e_m outside the terminal set
        assert bound == 0.15 and sol.iterations < parent_iterations


def _bundled_leg_input_set():
    scenario = default_scenario()
    tube = scenario.tube_params()
    return tighten_input_constraints(scenario.input_set(), tube.sigma, tube.tube_radius)


def _first_better_reference(obj, e0, controls, steps, direction, u_set, cost, weight):
    """``controller._first_better`` written plainly: each row's candidates,
    rolled out on their own, and the first that costs less than the row's
    cost, as ``(row, index, controls, cost, states, depths)``."""
    found = []
    for r in range(len(cost)):
        cands = u_set.project(controls[r] + (steps if steps.ndim == 3 else steps[r])
                              * direction[r])
        costs, states, measured = obj.take([r]).total(e0[r], cands, weight[r])
        better = (costs < cost[r] - 1e-12).nonzero()[0]
        if better.size:
            k = better[0]
            found.append((r, k, cands[k], costs[k], states[k], [a[k] for a in measured]))
    return found


@pytest.mark.parametrize("legs", ["one", "per_row"])
@pytest.mark.parametrize("shared", [True, False], ids=["newton", "spectral"])
def test_line_search_is_the_plain_first_better_candidate(monkeypatch, shared, legs):
    # candidate 0 of every row in one rollout, then every other candidate of
    # the rows it does not serve in one more: the rows, indices, controls,
    # costs, rollouts and depths of each row's candidates rolled out alone,
    # bit for bit, so a candidate's bits do not depend on its batch
    model, params, seven = _bundled_leg_problem("seven")
    u_set = _bundled_leg_input_set()
    rng = np.random.default_rng(23)
    count, m = 32, params.segments
    # starts near the target and controls near their optimum, so that a step
    # long enough to clip onto the input box costs more than a short one
    e0 = np.column_stack([rng.uniform(-0.15, 0.15, size=(count, 2)), np.zeros(count)])
    controls = -e0[:, None] / params.horizon + rng.normal(scale=0.01, size=(count, m, 3))
    weight = 10.0 ** rng.uniform(3, 6, size=count)
    free = (seven.stacked if legs == "one" else
            ConstraintStack.of([seven, ConstraintSet(seven.region, ())] * (count // 2)))
    obj = _FhocpObjective(model, params, free)
    cost, rollout, depths = obj.total(e0, controls, weight)
    # descent directions, long enough to clip onto the input box, and random ones
    direction = np.where((np.arange(count) % 4 < 3)[:, None, None],
                         -obj.gradient(rollout, depths, controls, weight),
                         rng.normal(size=(count, m, 3)))
    direction *= 10.0 ** rng.uniform(-2, 4, size=(count, 1, 1))
    if shared:          # the Newton step's halvings, one set for all rows
        steps = controller._HALVINGS[:, None, None]
    else:               # a spectral step size per row
        steps = (10.0 ** rng.uniform(-1, 1, size=(count, 1))
                 * controller._HALVINGS)[:, :, None, None]
    want = _first_better_reference(obj, e0, controls, steps, direction, u_set, cost, weight)

    calls = []
    total = _FhocpObjective.total

    def counting(self, *args):
        calls.append(args)
        return total(self, *args)

    monkeypatch.setattr(_FhocpObjective, "total", counting)
    rows, index, picked, costs, states, measured = controller._first_better(
        obj, e0, controls, steps, direction, u_set, cost, weight)
    assert len(calls) == 2
    assert rows.tolist() == [w[0] for w in want]
    assert index.tolist() == [w[1] for w in want]
    for got, k in zip((picked, costs, states), (2, 3, 4)):
        assert got.tobytes() == np.array([w[k] for w in want]).tobytes()
    for col, got in enumerate(measured):
        assert got.tobytes() == np.array([w[5][col] for w in want]).tobytes()

    # rows that candidate 0 serves, that a later one serves, and that none
    # serves; and rows searched past candidate 0 whose next candidates clip
    # onto its controls
    served = dict(zip(rows.tolist(), index.tolist()))
    kinds = {"none" if r not in served else "first" if served[r] == 0 else "later"
             for r in range(count)}
    assert kinds == {"first", "later", "none"}
    clipped = [r for r in range(count) if served.get(r) != 0 and np.array_equal(
        *u_set.project(controls[r] + (steps if shared else steps[r])[:2] * direction[r]))]
    assert any(served.get(r, 0) > 1 for r in clipped)

    # when candidate 0 serves every row, the search stops at its one rollout
    first = [r for r, k in served.items() if k == 0]
    calls.clear()
    at, k, *_ = controller._first_better(
        obj.take(first), e0[first], controls[first], steps if shared else steps[first],
        direction[first], u_set, cost[first], weight[first])
    assert (at, k, len(calls)) == (..., 0, 1)


def _pinned_problem(name):
    e_set = ConstraintSet(Box([-3.0, -3.0], [3.0, 3.0]), [Ball([0.5, 0.06], 0.2)])
    e0 = np.array([1.0, 0.0])
    if name == "box":
        return e0, single_integrator(2), _params(), e_set, Box([-0.3, -0.3], [0.3, 0.3])
    if name == "ball":
        return e0, single_integrator(2), _params(), e_set, Ball(np.zeros(2), 1.0)
    if name == "seven":
        return (np.array([0.15, 0.5, 0.0]), *_bundled_leg_problem("seven"),
                _bundled_leg_input_set())
    return e0, demo_nonlinear(2), _params(), e_set, Box([-1.0, -1.0], [1.0, 1.0])


# sha256 of controls.tobytes() and nominal.tobytes(), and the iterations, of
# solve_fhocp on four problems.  "ball" and "demo_nonlinear" take the spectral
# projected gradient step and are pinned as that solver gave them when it
# rolled out all 30 line-search candidates at once and stopped on
# max|grad| < TOL; "box" and "seven", a pure integrator on a box input set,
# are pinned as the projected Newton step gives them
PINNED_SOLVES = {
    "box": ("d19af03aa71c7db5652f3cf4fa26fd38bc48fd868c49fdaee74d251d6dcb1bff",
            "943db464c41b590e079d6a7c2108d93dbba8511d2071c7a3ff22bf43996b1739", 10),
    "ball": ("fb7ac7dcbc4d215565bd2b55e6ef9a430f9bec1c596dba128acee9bc4cceabb8",
             "4811faa61152322d0497c1dabdd039ae195f2fc4da1575297497bdfdf8fd4295", 157),
    "seven": ("defcbca9d7fbf9cb5853286209b6568bbb14df9f9cfbbde2c414ad9a144f283c",
              "bd55a1d241dc99569fee29d0a1a04e5e9f4bcfc8f0832f08d5a3fea87adb9ce5", 7),
    "demo_nonlinear": (
        "fd5552fd099c27edd10ddae0bb29a2ac719296292ecc002f9bc000c8ae433fed",
        "2269361ed282b630bc75620c43e6e025acfd398d1b7b4276e8b0e657df820fb4", 193),
}


@pytest.mark.parametrize("name", list(PINNED_SOLVES))
def test_solver_bits_are_pinned(name):
    sol = solve_fhocp(*_pinned_problem(name))
    got = (hashlib.sha256(sol.controls.tobytes()).hexdigest(),
           hashlib.sha256(sol.nominal.tobytes()).hexdigest(), sol.iterations)
    assert got == PINNED_SOLVES[name]


def test_non_finite_line_search_cost_raises():
    # the drift is infinite past |e| = 2; from rest at |e| = 1 the terminal
    # penalty's gradient is large, so the longest step, which is always
    # rolled out, overshoots
    si = single_integrator(2)

    def f(e):
        return np.where(np.linalg.norm(e, axis=-1, keepdims=True) > 2.0, np.inf,
                        np.zeros_like(e))

    model = DynamicsModel("blows_up", 2, f, si.g)
    with pytest.raises(SolverDiverged, match="line search"), np.errstate(invalid="ignore"):
        solve_fhocp(np.array([1.0, 0.0]), model, _params(), UNBOUNDED,
                    Box([-100.0, -100.0], [100.0, 100.0]), warm_start=np.zeros((12, 2)))


def test_clamped_optimum_stops_without_a_line_search(monkeypatch):
    # the target is far away and every control sits on the input box,
    # pushed outward by the gradient: no step can move, so the first
    # iteration stops before it rolls out a candidate
    calls = []
    total = _FhocpObjective.total

    def counting(self, *args):
        calls.append(args)
        return total(self, *args)

    monkeypatch.setattr(_FhocpObjective, "total", counting)
    clamped = np.full((12, 2), -0.3)
    sol = solve_fhocp(np.array([50.0, 50.0]), single_integrator(2), _params(),
                      UNBOUNDED, Box([-0.3, -0.3], [0.3, 0.3]), warm_start=clamped)
    assert sol.iterations == 1
    assert calls == []
    assert np.array_equal(sol.controls, clamped)
    assert sol.feasible


def _broad_phase_problems():
    """Seeded problems on the bundled leg R1 -> R3, as ``solve_fhocps``
    takes them, and the kind of each start: ``far`` from every constraint,
    or moved so that its clearance is the reach of the projected inputs
    plus an offset, from half the reach below it to a few rounding slacks
    above, from a box ``side`` or a ``ball``, with a warm start towards
    that constraint at full speed."""
    model, params, e_set = _bundled_leg_problem("seven")
    u_set = _bundled_leg_input_set()
    reach = params.horizon * np.hypot(*np.maximum(-u_set.lower, u_set.upper)[:2])
    m = params.segments
    rng = np.random.default_rng(31)
    problems, kinds = [], []

    def add(pos, kind, towards):
        warm = None if towards is None else np.tile([*towards, 0.0], (m, 1))
        problems.append((np.array([*pos, 0.0]), model, params, e_set, u_set, warm))
        kinds.append(kind)

    offsets = (-0.5 * reach, -1e-3, -1e-8, 0.0, 1e-9, 1e-8, 1e-6, 1e-3)
    while len(kinds) < 8 + 2 * 2 * len(offsets):
        pos = rng.uniform(e_set.region.lower, e_set.region.upper)
        depths = e_set.depths(pos)[0]
        if -depths.max() > 2.0 * reach and kinds.count("far") < 8:
            add(pos, "far", None if len(kinds) % 2 else rng.uniform(-1.0, 1.0, size=2))
            continue
        col = int(depths.argmax())
        kind = "side" if col < 4 else "ball"
        if kinds.count(kind) == 2 * len(offsets):
            continue
        starts = []
        for d in offsets:
            moved = pos.copy()
            if kind == "side":              # the side's coordinate moves
                towards = np.eye(2)[col % 2] * (1.0 if col >= 2 else -1.0)
                moved[col % 2] = (e_set.region.lower[col] + reach + d if col < 2
                                  else e_set.region.upper[col - 2] - reach - d)
            else:                           # along the ray from the center
                ball = e_set.exclusions[col - 4]
                towards = (ball.center - pos) / np.linalg.norm(pos - ball.center)
                moved = ball.center - (ball.radius + reach + d) * towards
            if int(e_set.depths(moved)[0].argmax()) != col:
                break                       # another constraint is nearer
            assert abs(e_set.clearance(moved) - (reach + d)) < 1e-12
            starts.append(moved)
        else:
            for moved in starts:
                add(moved, kind, towards)
    return problems, kinds


def _same_solution(a, b):
    return (np.array_equal(a.controls, b.controls) and np.array_equal(a.nominal, b.nominal)
            and (a.feasible, a.violation, a.iterations) == (b.feasible, b.violation, b.iterations))


def test_broad_phase_leaves_every_bit(monkeypatch):
    # each problem, alone and in one lockstep batch, with the broad phase on
    # and forced off, has the same solution bit for bit; the starts just
    # past the rounding slack are culled, those within it measured
    problems, kinds = _broad_phase_problems()
    unreachable, culled = controller._unreachable, []

    def recording(*args):
        clear = unreachable(*args)
        culled.append(clear)
        return clear

    monkeypatch.setattr(controller, "_unreachable", recording)
    lone = [solve_fhocp(*p) for p in problems]
    batch = controller.solve_fhocps(problems)
    assert culled[:len(problems)] == culled[len(problems):]
    monkeypatch.setattr(controller, "_unreachable", lambda *args: False)
    measured = [solve_fhocp(*p) for p in problems]
    for sol, *others in zip(lone, batch, measured, controller.solve_fhocps(problems)):
        assert all(_same_solution(sol, other) for other in others)
    seen = set(zip(kinds, culled))
    assert seen == {("far", True), ("side", True), ("side", False),
                    ("ball", True), ("ball", False)}
    assert len({sol.iterations for sol in lone}) > 2


def test_clear_solve_measures_no_constraint(monkeypatch):
    # a lone start far from every constraint is solved without measuring
    # its set; one whose reach touches a constraint is measured
    calls = []
    for name in ("depths", "contains"):
        method = getattr(ConstraintStack, name)

        def counting(self, *args, method=method, name=name):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(ConstraintStack, name, counting)
    problems, kinds = _broad_phase_problems()
    far = solve_fhocp(*problems[kinds.index("far")])
    assert far.feasible and far.iterations > 0
    assert calls == []
    touching = problems[kinds.index("side")]      # half the reach away
    e0, _, params, e_set, u_set, _ = touching
    assert not controller._unreachable(params, u_set, e_set, e0)
    solve_fhocp(*touching)
    assert calls.count("contains") == 1 and calls.count("depths") > 1


def test_solve_fhocp_infeasible_start():
    m = single_integrator(2)
    params = _params()
    e_set = ConstraintSet(Box([-3.0, -3.0], [3.0, 3.0]),
                          [Ball([0.0, 0.0], 0.5)])
    sol = solve_fhocp(np.array([0.1, 0.0]), m, params, e_set,
                      Box([-1.0, -1.0], [1.0, 1.0]))
    assert not sol.feasible
    assert sol.violation == pytest.approx(0.4)


def _simple_navigation(delta_bound, policy="zero", seed=0, settle=0):
    """The nominal run and the closed loop that tracks it."""
    m = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, delta_bound)
    params = FhocpParams(1.2, 0.1, 0.5, 0.5, 0.5, 0.1, 3)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [])
    u_set = Box(-0.3 * np.ones(3), 0.3 * np.ones(3))
    start = m.embed_position([-1.0, 0.5])
    (nominal,) = lockstep([navigate(m, start, Ball([1.0, -0.5], 0.3), cs, u_set, tube, params,
                                    max_steps=300, settle_steps=settle)])
    return nominal, track(m, nominal, start, tube, u_set, DisturbanceSpec(delta_bound, policy),
                          seed=seed)


def test_navigate_reaches_target_without_disturbance(monkeypatch):
    # with no disturbance the tube has radius 0 and the nominal input rides
    # the input bound, so the samples put inputs on the boundary
    # (``saturation_count``); the ancillary law itself must never clip one
    clipped = []
    float_saturation = controller._float_saturation

    def recording(u_set):
        saturate = float_saturation(u_set)

        def recorded(u):
            projected = saturate(u)
            clipped.append(projected is not u)
            return projected

        return recorded

    monkeypatch.setattr(controller, "_float_saturation", recording)
    nominal, out = _simple_navigation(0.0)
    assert nominal.arrived
    assert out.max_deviation <= 1e-9
    assert len(clipped) == len(out.inputs) - 1 and not any(clipped)
    pos = out.states[-1][:2]
    assert np.linalg.norm(pos - [1.0, -0.5]) <= 0.1 / np.sqrt(0.5) + 1e-9


def test_navigate_under_disturbance_stays_in_tube():
    nominal, out = _simple_navigation(0.05, policy="random", seed=4, settle=10)
    assert nominal.arrived
    assert out.max_deviation <= 0.05 * 1.001 + 10 * 0.01 * 0.05
    assert nominal.arrival_steps + 10 == nominal.total_steps
    assert len(out.ts) == nominal.total_steps * 10 + 1


def test_navigate_hold_keeps_target():
    # after arrival, the settle hold must keep the robot near the target
    nominal, out = _simple_navigation(0.05, policy="worst", seed=1, settle=20)
    assert nominal.arrived
    substeps = round(0.1 / 0.01)
    tail = out.states[nominal.arrival_steps * substeps:]
    dists = np.linalg.norm(tail[:, :2] - [1.0, -0.5], axis=1)
    assert np.max(dists) <= 0.1 / np.sqrt(0.5) + 0.05 + 1e-3


@pytest.mark.parametrize("settle", [1, 10])
def test_integrator_nominal_lands_on_the_center(monkeypatch, settle):
    # after the stop test passes, one held input steers the nominal onto the
    # target state by the run's end, with no shooting problem, when it fits
    # the tightened input set: it does over 10 steps from the arrival radius
    # 0.141, not over 1; the nominal never reads the disturbed state
    problems = []
    solve_all = controller.solve_fhocps

    def counting(batch):
        problems.extend(batch)
        return solve_all(batch)

    monkeypatch.setattr(controller, "solve_fhocps", counting)
    outs = []
    for policy in ("zero", "worst"):
        problems.clear()
        nominal, out = _simple_navigation(0.05, policy=policy, seed=1, settle=settle)
        outs.append(out)
        assert nominal.arrived
        assert len(problems) == nominal.arrival_steps + (settle if settle == 1 else 0)
    assert np.array_equal(outs[0].nominal, outs[1].nominal)
    if settle == 10:
        assert np.array_equal(outs[0].nominal[-1], [1.0, -0.5, 0.0])
        assert np.array_equal(nominal.errors[-1], [0.0, 0.0, 0.0])
        # a straight line: the same increment on each substep of the window
        steps = np.diff(outs[0].nominal[nominal.arrival_steps * 10:], axis=0)
        assert len(steps) == 100 and np.allclose(steps, steps[0], rtol=0.0, atol=1e-15)


def test_navigate_min_duration_holds_longer():
    out, _ = _simple_navigation(0.0)
    m = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, 0.0)
    params = FhocpParams(1.2, 0.1, 0.5, 0.5, 0.5, 0.1, 3)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [])
    scheduled = out.arrival_steps + 15
    (held,) = lockstep([navigate(
        m, m.embed_position([-1.0, 0.5]), Ball([1.0, -0.5], 0.3), cs,
        Box(-0.3 * np.ones(3), 0.3 * np.ones(3)), tube, params,
        max_steps=scheduled, min_duration_steps=scheduled,
    )])
    assert held.arrived
    assert held.total_steps == scheduled == len(held.held)
    assert held.arrival_steps == out.arrival_steps
    assert held.errors.shape == (scheduled * 10 + 1, 3)


def _array_interval(model, input_set):
    """The substep loop of one sampling interval on arrays, as ``navigate``
    and ``track`` ran it before their float loops: the reference.  It writes
    out the ancillary law ``u = u_hat - sigma * (e - e_hat)`` on arrays, and
    every step is the four-stage ``rk4_step``, of ``model`` for the real
    state and of its error-frame model for the nominal one.  Appends one
    sample row per substep to ``rows`` and returns the final real state and
    the nominal error state after each substep."""

    def interval(x, e_hat, u_hat, target, sigma, delta_fn, t0, dt, substeps, rows):
        x, e_hat, u_hat, target = (np.array(v) for v in (x, e_hat, u_hat, target))
        err_model = shift_to_error_frame(model, target)
        errors = []
        for j in range(substeps):
            t = t0 + j * dt
            delta = np.asarray(delta_fn(t, x), dtype=float)
            u = u_hat - sigma * ((x - target) - e_hat)
            if input_set.outside(u):
                u = input_set.project(u)
            x = rk4_step(model, x, u, dt, delta)
            e_hat = rk4_step(err_model, e_hat, u_hat, dt)
            errors.append(e_hat)
            rows.append([t + dt, *x.tolist(), *(e_hat + target).tolist(), *u.tolist(),
                         *delta.tolist()])
        return x, errors

    return interval


@pytest.mark.parametrize("input_set", [
    Box(-0.3 * np.ones(3), 0.3 * np.ones(3)), Ball(np.zeros(3), 0.3),
], ids=["box", "ball"])
@pytest.mark.parametrize("policy", ["zero", "random", "worst", "uniform"])
def test_float_interval_is_the_rk4_step_loop(input_set, policy):
    # the tube is sized for disturbances of 0.001 but they reach 0.2, so the
    # deviation outgrows it and the ancillary law saturates on the long
    # first legs, where the nominal input sits on the tightened bound; the
    # nominal's and the tracking's float loops must give the array
    # reference's bits for every model, interval by interval under the
    # nominal's held inputs
    tube = make_tube_params(0.0, 1.0, 1.0, 0.001)
    params = FhocpParams(1.2, 0.1, 0.5, 0.5, 0.5, 0.1, 3)
    cs = ConstraintSet(Box([-3.0, -3.0], [3.0, 3.0]), [Ball([0.0, 1.2], 0.3)])
    disturbance = DisturbanceSpec(0.2, policy)
    for m, max_steps in ((single_integrator(3), 40), (demo_nonlinear(3), 6)):
        start = m.embed_position([-2.0, 0.5])
        (nominal,) = lockstep([navigate(m, start, Ball([2.0, 0.0], 0.3), cs, input_set, tube,
                                        params, max_steps=max_steps)])
        fast = track(m, nominal, start, tube, input_set, disturbance, seed=5)

        interval = _array_interval(m, input_set)
        delta_fn = disturbance.generator(nominal.target, 5)
        x, errors = start, [nominal.errors[0]]
        rows = [[0.0, *start.tolist(), *start.tolist(), *[0.0] * 6]]
        for k, u_hat in enumerate(nominal.held):
            x, steps = interval(x, errors[-1], u_hat, nominal.target, tube.sigma, delta_fn,
                                k * params.step, 0.01, 10, rows)
            errors += steps
        assert nominal.total_steps == len(nominal.held) >= min(20, max_steps), m.name
        assert np.array_equal(nominal.errors.view(np.int64), np.array(errors).view(np.int64))
        assert np.array_equal(fast.samples.view(np.int64), np.array(rows).view(np.int64))
        assert (saturation_count(fast.inputs, input_set) > 0) == (policy != "zero"), m.name


def test_navigate_steps_other_models_with_rk4():
    # models other than the pure integrator step with rk4_step in the float
    # loop: every sample is one four-stage rk4_step from the one before,
    # under the recorded input and disturbance
    m = demo_nonlinear(3)
    tube = make_tube_params(0.0, 1.0, 1.0, 0.05)
    params = FhocpParams(1.2, 0.1, 0.5, 0.5, 0.5, 0.1, 3)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [])
    u_set = Box(-0.3 * np.ones(3), 0.3 * np.ones(3))
    start = m.embed_position([-1.0, 0.5])
    (nominal,) = lockstep([navigate(m, start, Ball([1.0, -0.5], 0.3), cs, u_set, tube, params,
                                    max_steps=3)])
    out = track(m, nominal, start, tube, u_set, DisturbanceSpec(0.05, "random"), seed=4)
    assert nominal.total_steps == 3 and out.states.shape == (31, 3)
    assert np.allclose(out.ts, np.arange(31) * 0.01)
    for k in range(30):
        step = rk4_step(m, out.states[k], out.inputs[k + 1], 0.01, out.deltas[k + 1])
        assert np.array_equal(step, out.states[k + 1])
    assert np.all(np.linalg.norm(out.deltas, axis=1) <= 0.05)
    # the nominal runs on its own, so the deviation is bounded by the tube
    # radius delta_bound / sigma, not by one interval's disturbance
    assert out.max_deviation <= tube.tube_radius


# sha256 of the closed-loop samples of ``_tiny_legs``' legs, one after the
# other, pinned on x86-64 with numpy 2.4 as the nominal and the real state
# ran in one loop: a change that keeps behaviour keeps these bits
LOCKSTEP_SAMPLES_SHA256 = {
    "box": "c318a2d306e7d631825df924331cfaf2d84ae53d83994fc9a8b52cc68276ad58",
    "ball": "8f900edf3aae460e0b3773a432fed0edb1c5806f398da0435a9dd2f3b5ae1130",
    "demo_nonlinear": "c8238919dcf974f42532ad031a1f569e633149b3e178b814b550d69bdc5c4d1c",
}


def _tiny_legs(kind):
    """Legs of the tiny scenario: every center-to-region leg (self-loops
    included) and A -> B behind an extra ball, which ends InfeasibleFhocp
    midway; tracked under disturbances past the tube, so the ancillary law
    saturates.  ``demo_nonlinear``: two short legs of that model, which take
    finite differences and the spectral step.  Returns a factory of the
    legs' ``navigate`` generators, a function that tracks their nominals,
    and the scenario's input set."""
    data = tiny_dict()
    if kind == "demo_nonlinear":
        data["model"] = "demo_nonlinear"
    else:
        data["input"]["type"] = kind
    scenario = scenario_from_dict(data)
    model, tube, fhocp = scenario.model(), scenario.tube_params(), scenario.fhocp_params()
    names = sorted(scenario.regions)
    legs = [(src, dst, scenario.state_constraints_for(src, dst))
            for src in names for dst in names]
    free = scenario.state_constraints_for("A", "B")
    legs.append(("A", "B", ConstraintSet(free.region, free.exclusions + (Ball([0.0, 0.0], 0.2),))))
    max_steps = 300
    if kind == "demo_nonlinear":
        legs, max_steps = legs[1:3], 4

    def start(src):
        return model.embed_position(scenario.regions[src].center)

    def make():
        return [navigate(model, start(src), scenario.regions[dst], free, scenario.input_set(),
                         tube, fhocp, max_steps, settle_steps=scenario.settle_steps,
                         sim_dt=scenario.sim_dt)
                for src, dst, free in legs]

    def closed_loop(nominals):
        return [track(model, nominal, start(src), tube, scenario.input_set(),
                      DisturbanceSpec(0.3, "random"), seed=i)
                for i, ((src, _, _), nominal) in enumerate(zip(legs, nominals))]

    return make, closed_loop, scenario.input_set()


@pytest.mark.parametrize("kind", ["box", "ball", "demo_nonlinear"])
def test_lockstep_legs_run_as_they_do_alone(monkeypatch, kind):
    # one batch of shooting problems per sampling step must give every leg
    # the nominal it has alone, bit for bit, while legs leave the batch at
    # different steps and rows stop, ramp and search at different times;
    # the closed loop around those nominals keeps its pinned bits
    make, closed_loop, u_set = _tiny_legs(kind)
    iterations = []
    solve_all = controller.solve_fhocps

    def counting(problems):
        sols = solve_all(problems)
        iterations.append(sum(sol.iterations for sol in sols))
        return sols

    monkeypatch.setattr(controller, "solve_fhocps", counting)
    together = lockstep(make())
    batched = sum(iterations)
    iterations.clear()
    alone = [lockstep([leg])[0] for leg in make()]
    assert sum(iterations) == batched > 0
    for a, b in zip(alone, together):
        for name in ("status", "arrival_steps", "total_steps", "held", "errors"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    outs = closed_loop(together)
    digest = hashlib.sha256()
    for out in outs:
        digest.update(out.samples.tobytes())
    assert digest.hexdigest() == LOCKSTEP_SAMPLES_SHA256[kind]
    if kind != "demo_nonlinear":
        assert {nominal.status for nominal in alone} == {controller.ARRIVED,
                                                         controller.INFEASIBLE}
        assert len({nominal.total_steps for nominal in alone}) > 2
        assert any(saturation_count(out.inputs, u_set) for out in outs)
