import numpy as np
import pytest

from tubeplan.controller import (
    FhocpParams,
    _rollout,
    ancillary_control,
    input_violation,
    make_tube_params,
    navigate,
    project_input,
    shift_to_error_frame,
    solve_fhocp,
)
from tubeplan.dynamics import (
    DisturbanceSpec,
    DynamicsModel,
    rk4_step,
    single_integrator,
)
from tubeplan.errors import InvalidParam
from tubeplan.geometry import Ball, Box, ConstraintSet


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


def test_ancillary_law_algebra():
    u = ancillary_control([1.0, 0.0], [0.2, 0.2], [0.5, 0.1], sigma=2.0)
    assert np.allclose(u, [1.0 - 2.0 * 0.3, -2.0 * -0.1])


def test_arrival_radius():
    p = FhocpParams(1.2, 0.1, 0.5 * np.eye(3), 0.5 * np.eye(3),
                    0.5 * np.eye(3), 0.1)
    assert p.arrival_radius == pytest.approx(0.1 / np.sqrt(0.5))
    assert p.segments == 12


def test_project_input_box_and_ball():
    box = Box([-0.2, -0.2], [0.2, 0.2])
    assert np.allclose(project_input(np.array([0.5, -0.1]), box), [0.2, -0.1])
    ball = Ball([0.0, 0.0], 1.0)
    p = project_input(np.array([3.0, 4.0]), ball)
    assert np.linalg.norm(p) == pytest.approx(1.0)
    assert np.allclose(p, [0.6, 0.8])
    assert input_violation(np.array([0.25, 0.0]), box)
    assert not input_violation(np.array([0.2, 0.2]), box)


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
    base = single_integrator(3)
    ref = DynamicsModel("four_stage", 3, base.f, base.g)
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
        state_weight=0.5 * np.eye(2), terminal_weight=0.5 * np.eye(2),
        input_weight=0.5 * np.eye(2), terminal_level=0.1,
    )
    defaults.update(kw)
    return FhocpParams(**defaults)


def test_solve_fhocp_beats_candidate_controls():
    # optimality sanity: the solver's cost is no worse than a family of
    # hand-picked feasible candidates evaluated with the same objective
    m = single_integrator(2)
    params = _params()
    u_set = Box([-1.0, -1.0], [1.0, 1.0])
    e0 = np.array([0.8, -0.5])
    sol = solve_fhocp(e0, m, params, None, u_set)
    assert sol.feasible
    # the terminal set is a soft target; from a reachable start it is met
    near = solve_fhocp(np.array([0.1, -0.05]), m, params, None, u_set)
    e_n = near.nominal[-1]
    level = params.terminal_level + 1e-4
    assert float(e_n @ params.terminal_weight @ e_n) <= level * level

    from tubeplan.controller import _FhocpObjective

    obj = _FhocpObjective(m, params, None)
    rng = np.random.default_rng(0)
    cands = [np.zeros((12, 2)), np.tile(-e0 / 1.2, (12, 1))]
    cands += [np.clip(np.tile(-e0 / 1.2, (12, 1)) + 0.05 * rng.normal(size=(12, 2)),
                      -1, 1) for _ in range(20)]
    for c in cands:
        cost, states = obj.total(e0, c, 0.0)
        # candidates that satisfy the terminal constraint must not beat it
        if obj.terminal_excess(states) <= 1e-9:
            assert sol.cost <= float(cost) + 1e-6


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
    m = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, delta_bound)
    params = FhocpParams(1.2, 0.1, 0.5 * np.eye(3), 0.5 * np.eye(3),
                         0.5 * np.eye(3), 0.1)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [])
    return navigate(
        m, m.embed_position([-1.0, 0.5]), Ball([1.0, -0.5], 0.3), cs,
        Box(-0.3 * np.ones(3), 0.3 * np.ones(3)), tube, params,
        DisturbanceSpec(delta_bound, policy), max_steps=300, seed=seed,
        settle_steps=settle,
    )


def test_navigate_reaches_target_without_disturbance():
    out = _simple_navigation(0.0)
    assert out.arrived
    assert out.max_deviation <= 1e-9
    assert out.saturation_count == 0
    pos = out.states[-1][:2]
    assert np.linalg.norm(pos - [1.0, -0.5]) <= 0.1 / np.sqrt(0.5) + 1e-9


def test_navigate_under_disturbance_stays_in_tube():
    out = _simple_navigation(0.05, policy="random", seed=4, settle=10)
    assert out.arrived
    assert out.max_deviation <= 0.05 * 1.001 + 10 * 0.01 * 0.05
    assert out.arrival_steps + 10 == out.total_steps


def test_navigate_hold_keeps_target():
    # after arrival, the settle hold must keep the robot near the target
    out = _simple_navigation(0.05, policy="worst", seed=1,
                             settle=20)
    assert out.arrived
    substeps = round(0.1 / 0.01)
    tail = out.states[out.arrival_steps * substeps:]
    dists = np.linalg.norm(tail[:, :2] - [1.0, -0.5], axis=1)
    assert np.max(dists) <= 0.1 / np.sqrt(0.5) + 0.05 + 1e-3


def test_navigate_min_duration_holds_longer():
    out = _simple_navigation(0.0)
    m = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, 0.0)
    params = FhocpParams(1.2, 0.1, 0.5 * np.eye(3), 0.5 * np.eye(3),
                         0.5 * np.eye(3), 0.1)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [])
    scheduled = out.arrival_steps + 15
    held = navigate(
        m, m.embed_position([-1.0, 0.5]), Ball([1.0, -0.5], 0.3), cs,
        Box(-0.3 * np.ones(3), 0.3 * np.ones(3)), tube, params,
        DisturbanceSpec(0.0, "zero"), max_steps=scheduled,
        min_duration_steps=scheduled,
    )
    assert held.arrived
    assert held.total_steps == scheduled
    assert held.arrival_steps == out.arrival_steps
