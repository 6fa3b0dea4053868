"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single ``criterion N: PASS`` line on success (visible
under ``pytest -s``); the assertions carry the exact bounds being enforced.
"""

import hashlib
import json
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from tubeplan import abstraction, cli, controller
from tubeplan.abstraction import LEG_TIMEOUT, build_wts, load_wts, scenario_hash
from tubeplan.controller import (
    FhocpParams,
    make_tube_params,
    navigate,
    saturation_count,
    track,
)
from tubeplan.dynamics import (
    DISTURBANCE_POLICIES,
    DisturbanceSpec,
    derive_seed,
    single_integrator,
)
from tubeplan.errors import Unrealizable
from tubeplan.geometry import Ball, Box, ConstraintSet
from tubeplan.harness import (
    execute_plan,
    export_trace,
    import_trace,
    leg_rows,
    stamp_indices,
    verify_trace,
)
from tubeplan.mitl import (
    Always,
    And,
    Atom,
    Eventually,
    Not,
    Or,
    TimedWord,
    Until,
    monitor,
    parse,
    to_string,
)
from tubeplan.scenario import default_scenario, scenario_from_dict
from tubeplan.synthesis import Plan, find_accepting_run, plan_digest, plan_word, synthesize
from tubeplan.tba import accepts_word, build_tba

from conftest import tiny_dict
from test_mitl import _random_formula

F = Fraction

# ---------------------------------------------------------------------------
# criteria 1 and 3: tube bound and constraint transfer on a shared batch
# ---------------------------------------------------------------------------

DELTA_BOUND = 0.05
SIM_DT = 0.01
# tube radius (0.05) with 0.1% closed-loop slack plus an integration
# allowance of 10 simulation steps' worth of disturbance
TUBE_BOUND = DELTA_BOUND * (1.0 + 1e-3) + 10.0 * SIM_DT * DELTA_BOUND
BATCH_RUNS = 500
BATCH_TIME_LIMIT = 60.0


@pytest.fixture(scope="module")
def disturbed_batch():
    """500 seeded closed-loop runs in an obstacle-laden workspace, cycling
    through all three nonzero disturbance policies."""
    model = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, DELTA_BOUND)
    fhocp = FhocpParams(horizon=0.6, step=0.1, state_weight=0.5, terminal_weight=0.5,
                        input_weight=0.5, terminal_level=0.1, dim=3)
    workspace = Box([-2.0, -2.0], [2.0, 2.0])
    obstacles = (Ball([0.8, 0.8], 0.3), Ball([-0.7, -0.5], 0.25),
                 Ball([0.1, -1.1], 0.2))
    constraints = ConstraintSet(workspace, obstacles)
    u_set = Box(-0.5 * np.ones(3), 0.5 * np.ones(3))
    target = Ball([1.5, -1.5], 0.3)
    policies = ("worst", "random", "uniform")
    rng = np.random.default_rng(42)

    def feasible_start():
        while True:
            p = rng.uniform([-1.9, -1.9], [1.9, 1.9])
            if all(np.linalg.norm(p - b.center) > b.radius + tube.tube_radius
                   + 0.1 for b in obstacles):
                return p

    t0 = time.perf_counter()
    max_dev = 0.0
    obstacle_hits = workspace_exits = saturations = 0
    for i in range(BATCH_RUNS):
        start = model.embed_position(feasible_start())
        spec = DisturbanceSpec(DELTA_BOUND, policies[i % len(policies)])
        (nominal,) = navigate([(start, target, constraints)], model, u_set, tube,
                              fhocp, max_steps=6, sim_dt=SIM_DT)
        out = track(model, nominal, start, tube, u_set, spec, seed=derive_seed(7, i))
        max_dev = max(max_dev, out.max_deviation)
        exits, hits = constraints.count_violations(out.states[:, :2])
        obstacle_hits += hits
        workspace_exits += exits
        saturations += saturation_count(out.inputs, u_set)
    elapsed = time.perf_counter() - t0
    return {
        "max_dev": max_dev,
        "obstacle_hits": obstacle_hits,
        "workspace_exits": workspace_exits,
        "saturations": saturations,
        "elapsed": elapsed,
    }


def test_criterion_1_tube_bound(disturbed_batch):
    assert disturbed_batch["max_dev"] <= TUBE_BOUND, (
        f"deviation {disturbed_batch['max_dev']} exceeds {TUBE_BOUND}"
    )
    assert disturbed_batch["elapsed"] <= BATCH_TIME_LIMIT
    print(f"criterion 1 (tube bound): PASS  "
          f"max deviation {disturbed_batch['max_dev']:.4g} <= {TUBE_BOUND} "
          f"over {BATCH_RUNS} runs in {disturbed_batch['elapsed']:.1f}s")


def test_criterion_3_constraint_transfer(disturbed_batch):
    assert disturbed_batch["obstacle_hits"] == 0
    assert disturbed_batch["workspace_exits"] == 0
    assert disturbed_batch["saturations"] == 0
    print("criterion 3 (constraint transfer): PASS  "
          "0 obstacle hits, 0 workspace exits, 0 saturations")


# ---------------------------------------------------------------------------
# criterion 2: arrival radius bound while holding at the target
# ---------------------------------------------------------------------------

def test_criterion_2_arrival_bound():
    model = single_integrator(3)
    tube = make_tube_params(0.0, 1.0, 1.0, DELTA_BOUND)
    fhocp = FhocpParams(horizon=0.6, step=0.1, state_weight=0.5, terminal_weight=0.5,
                        input_weight=0.5, terminal_level=0.1, dim=3)
    workspace = Box([-2.0, -2.0], [2.0, 2.0])
    obstacles = (Ball([0.0, 0.9], 0.3), Ball([-0.2, -0.8], 0.25))
    constraints = ConstraintSet(workspace, obstacles)
    u_set = Box(-0.5 * np.ones(3), 0.5 * np.ones(3))
    # arrival radius + tube radius + slack
    bound = fhocp.arrival_radius + tube.tube_radius + 1e-3
    rng = np.random.default_rng(11)
    step = F(1, 10)

    def clear_point():
        while True:
            p = rng.uniform([-1.8, -1.8], [1.8, 1.8])
            if all(np.linalg.norm(p - b.center) > b.radius + 0.45
                   for b in obstacles):
                return p

    arrived = 0
    for i in range(20):
        start_pos, target_pos = clear_point(), clear_point()
        target = Ball(target_pos, 0.3)
        start = model.embed_position(start_pos)
        (nominal,) = navigate([(start, target, constraints)], model, u_set, tube,
                              fhocp, max_steps=120, settle_steps=10, sim_dt=SIM_DT)
        if not nominal.arrived:
            continue
        arrived += 1
        out = track(model, nominal, start, tube, u_set,
                    DisturbanceSpec(DELTA_BOUND, "random"), seed=derive_seed(3, i))
        hold = out.ts >= float(nominal.arrival_steps * step) - 1e-12
        dists = np.linalg.norm(out.states[hold][:, :2] - target.center,
                               axis=1)
        assert float(np.max(dists)) <= bound, (
            f"pair {i}: hold distance {np.max(dists)} exceeds {bound}"
        )
    assert arrived >= 10, f"only {arrived} of 20 pairs arrived"
    print(f"criterion 2 (arrival bound): PASS  {arrived}/20 arrivals, "
          f"hold distance <= {bound:.4g}")


# ---------------------------------------------------------------------------
# criterion 4: bundled nine-region mission end to end
# ---------------------------------------------------------------------------

FROZEN_WTS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "nexus_wts.json"
# sha256 of the run's other artifacts (seed 0, ``random`` disturbance), pinned
# on x86-64 with numpy 2.4: a change that keeps behaviour keeps these bytes
MISSION_DIGESTS = {
    "plan.json": "678b7bbf2570a93d628fbc79b124e7f493d29431c79c6f6d89ea6e7a1524dec8",
    "trace.tsv": "8d9fdb6ab76fe05114b07d64943e2645cb82e2837285a54b7baa2b703c2c5a10",
    "report.json": "103459968797c577ad3f713e479b0ba5d48abbfc4af7b733dfb325f2ccbfa616",
}


def _counting_after_abstraction(patch):
    """``_counting_solves``, whose count starts again after each
    ``abstraction.build_wts``."""
    counts = _counting_solves(patch)
    build = abstraction.build_wts

    def counting(scenario):
        wts = build(scenario)
        counts.append(0)
        return wts

    patch.setattr(abstraction, "build_wts", counting)
    return counts


def test_criterion_4_default_mission(tmp_path, monkeypatch):
    out = tmp_path / "mission"
    counts = _counting_after_abstraction(monkeypatch)
    t0 = time.perf_counter()
    code = cli.main(["run", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == cli.EXIT_PASS
    # execution replays the nominals the abstraction computed
    assert len(counts) == 2 and counts[-1] == 0
    assert elapsed <= 300.0, f"end-to-end run took {elapsed:.0f}s"
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]

    scenario = default_scenario()
    plan = json.loads((out / "plan.json").read_text())
    stamps = [F(t) for t in plan["stamps"]]

    def visits(prop, lo, hi):
        return [t for s, t in zip(plan["states"], stamps)
                if prop in scenario.label_of(s) and F(lo) <= t <= F(hi)]

    assert visits("mission2", 30, 50), "no mission2 visit inside [30,50]"
    assert visits("mission1", 80, 110), "no mission1 visit inside [80,110]"
    # the same 59 transitions with the same weights as the frozen transition
    # system the benchmark synthesizes on (the file carries older
    # per-transition keys, so the loaded systems are compared, not bytes)
    digest = scenario_hash(scenario)
    assert load_wts(out / "wts.json", digest) == load_wts(FROZEN_WTS, digest)
    for name, want in MISSION_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
    # ``simulate`` replays from the run's cache, and solves again from the
    # frozen one, which carries no held inputs: the same trace either way
    for cache, solved in ((out / "wts.json", False), (FROZEN_WTS, True)):
        counts.append(0)
        trace = tmp_path / "trace.tsv"
        assert cli.main(["simulate", "--wts", str(cache), "--plan", str(out / "plan.json"),
                         "--out", str(trace)]) == cli.EXIT_PASS
        assert (counts[-1] > 0) == solved, cache
        assert trace.read_bytes() == (out / "trace.tsv").read_bytes(), cache
    print(f"criterion 4 (bundled mission): PASS  in {elapsed:.0f}s, "
          f"mission2 at {[float(t) for t in visits('mission2', 30, 50)]}, "
          f"mission1 at {[float(t) for t in visits('mission1', 80, 110)]}")


# ---------------------------------------------------------------------------
# criteria 1 and 4 together: the bundled plan under every disturbance policy
# ---------------------------------------------------------------------------

BUNDLED_RUNS = [("zero", 0), ("random", 0), ("uniform", 0)] + [("worst", s) for s in range(4)]


def _counting_solves(patch):
    """Count the problems passed to ``controller.solve_fhocps``, which every
    solve goes through: a list whose last entry is the running count."""
    counts = [0]
    solve_all = controller.solve_fhocps

    def counting(problems):
        counts[-1] += len(problems)
        return solve_all(problems)

    patch.setattr(controller, "solve_fhocps", counting)
    return counts


@pytest.fixture(scope="module")
def bundled_runs():
    """The bundled plan on the frozen transition system, executed under each
    policy (``worst`` for seeds 0-3), and the problems each execution
    solved."""
    scenario = default_scenario()
    wts = load_wts(FROZEN_WTS, scenario_hash(scenario))
    plan = synthesize(wts, scenario.formula())
    traces, solves = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        counts = _counting_solves(patch)
        for run in BUNDLED_RUNS:
            counts.append(0)
            traces[run] = execute_plan(scenario, wts, plan, *run)
            solves[run] = counts[-1]
    return scenario, plan, traces, solves


def test_bundled_plan_passes_under_worst(bundled_runs):
    # the nominal runs on its own for the whole plan, so the ancillary law
    # holds the real state within the tube radius of it under the worst push
    scenario, plan, traces, _ = bundled_runs
    for seed in range(4):
        report = verify_trace(scenario, plan, traces["worst", seed])
        assert report["pass"], seed
        assert report["max_deviation"] <= scenario.tube_params().tube_radius


def test_bundled_nominal_is_the_same_under_every_policy(bundled_runs):
    _, _, traces, _ = bundled_runs
    zero = traces["zero", 0].nominal
    for run, trace in traces.items():
        assert np.array_equal(trace.nominal, zero), run


def test_bundled_legs_replay_the_abstraction_nominal(bundled_runs):
    # each leg's nominal is the one the abstraction ran for its transition,
    # from the source's center, and an execution solves only the first leg
    # of each transition
    scenario, plan, traces, solves = bundled_runs
    model = scenario.model()
    nominal = {}
    with pytest.MonkeyPatch.context() as patch:
        counts = _counting_solves(patch)
        for src, dst, _ in plan.legs():
            if (src, dst) in nominal:
                continue
            (out,) = navigate(
                [(model.embed_position(scenario.regions[src].center),
                  scenario.regions[dst], scenario.state_constraints_for(src, dst))],
                model, scenario.input_set(), scenario.tube_params(), scenario.fhocp_params(),
                round(LEG_TIMEOUT / scenario.step),
                settle_steps=scenario.settle_steps, sim_dt=scenario.sim_dt)
            nominal[src, dst] = out.states
    first = counts[-1]
    assert len(nominal) < len(plan.legs())          # some leg repeats
    rows = leg_rows(stamp_indices(scenario, plan))
    for run, trace in traces.items():
        for (src, dst, _), leg in zip(plan.legs(), rows):
            assert np.array_equal(trace.nominal[leg], nominal[src, dst]), (run, src, dst)
        assert solves[run] == first > 0, run


@pytest.fixture(scope="module")
def bundled_fresh_wts():
    """The bundled transition system as the abstraction builds it, with the
    held inputs of every transition."""
    return build_wts(default_scenario())


@pytest.mark.parametrize("policy", DISTURBANCE_POLICIES)
def test_bundled_replay_equals_solve(bundled_runs, bundled_fresh_wts, policy):
    # the legs replayed from the held inputs give the samples the frozen
    # system's solved legs give, bit for bit, and make no solve
    scenario, plan, traces, _ = bundled_runs
    frozen = load_wts(FROZEN_WTS, scenario_hash(scenario))
    with pytest.MonkeyPatch.context() as patch:
        counts = _counting_solves(patch)
        for seed in range(2):
            solved = traces.get((policy, seed)) or execute_plan(
                scenario, frozen, plan, policy, seed)
            counts.append(0)
            replayed = execute_plan(scenario, bundled_fresh_wts, plan, policy, seed)
            assert counts[-1] == 0, seed
            assert np.array_equal(replayed.samples.view(np.int64),
                                  solved.samples.view(np.int64)), seed


def _tiny_variant(kind):
    """The tiny scenario with a ball of inputs, or on ``demo_nonlinear``
    cut to region A, whose self-loop is its one leg quick to solve, and a
    plan that runs that loop twice."""
    data = tiny_dict()
    if kind == "ball":
        data["input"]["type"] = "ball"
        scenario = scenario_from_dict(data)
        wts = build_wts(scenario)
        return scenario, wts, synthesize(wts, scenario.formula())
    data["model"] = "demo_nonlinear"
    data["regions"] = {"A": data["regions"]["A"]}
    data["labels"] = {"A": ["home"]}
    data["formula"] = "G[0,inf] home"
    scenario = scenario_from_dict(data)
    wts = build_wts(scenario)
    weight = wts.transitions["A", "A"]
    return scenario, wts, Plan(("A", "A", "A"), (F(0), weight, 2 * weight), 1)


@pytest.mark.parametrize("kind", ["ball", "demo_nonlinear"])
def test_tiny_replay_equals_solve(monkeypatch, kind):
    # a ball of inputs replays every leg; a demo_nonlinear nominal ends off
    # its target's center, so the second loop starts off it and is solved
    scenario, wts, plan = _tiny_variant(kind)
    unheld = replace(wts, held={})
    counts = _counting_solves(monkeypatch)
    for policy, seed in (("random", 0), ("worst", 1)):
        counts.append(0)
        replayed = execute_plan(scenario, wts, plan, policy, seed)
        partly = counts[-1]
        counts.append(0)
        solved = execute_plan(scenario, unheld, plan, policy, seed)
        assert np.array_equal(replayed.samples.view(np.int64),
                              solved.samples.view(np.int64)), (policy, seed)
        assert 0 < counts[-1]
        if kind == "ball":
            assert partly == 0
        else:
            assert 0 < partly < counts[-1]


# ---------------------------------------------------------------------------
# criterion 5: automaton/monitor cross-validation
# ---------------------------------------------------------------------------

# supported fragment: And/Or combinations of G/F/U blocks over propositional
# bodies; constants kept small so random words straddle every window
FRAGMENT_CORPUS = [
    "F[0,2] a",
    "F[1,3] b",
    "F[2,2] a",
    "F[0,inf] (a & b)",
    "F[1/2,7/2] (a | o)",
    "G[0,inf] !o",
    "G[0,3] a",
    "G[1,4] (a | b)",
    "G[2,inf] !b",
    "G[0,0] a",
    "a U[0,2] b",
    "a U[1,3] b",
    "a U[2,2] b",
    "(a | m) U[0,inf] b",
    "!o U[1,4] (a & b)",
    "G[0,inf] !o & F[1,3] m",
    "G[0,inf] !o & F[3,5] m & F[1,2] a",
    "F[0,2] a & F[2,4] b",
    "F[0,2] a | F[2,4] b",
    "G[0,2] a | G[1,3] b",
    "G[0,inf] !o | F[0,1] m",
    "a U[0,3] b & G[0,inf] !o",
    "a U[0,3] b | F[1,2] m",
    "F[1,3] a & G[1,3] b",
    "!F[1,2] o",
    "G[0,5] (a | !b)",
    "!G[0,3] b",
    "G[0,inf] (!o & !m)",
    "F[0,4] (a & !b)",
    "G[1,2] !a & F[0,5] b",
    "F[3,3] m | G[0,1] a",
    "(!o & a) U[1,5] m",
]

WORDS_PER_FORMULA = 1000


def _random_word(rng, cmax):
    n = int(rng.integers(1, 6))
    times = [F(0)]
    for _ in range(n - 1):
        times.append(times[-1] + F(int(rng.integers(1, 2 * (cmax + 2))), 2))
    letters = [frozenset(p for p in ("a", "b", "m", "o") if rng.random() < 0.4)
               for _ in range(n)]
    return TimedWord(tuple(letters), tuple(times))


def test_criterion_5_tba_monitor_agreement():
    assert len(FRAGMENT_CORPUS) >= 30
    rng = np.random.default_rng(2025)
    checked = 0
    for text in FRAGMENT_CORPUS:
        f = parse(text)
        tba = build_tba(f)
        cmax = int(tba.cmax) if tba.cmax else 1
        for _ in range(WORDS_PER_FORMULA):
            w = _random_word(rng, cmax)
            assert accepts_word(tba, w) == monitor(f, w), (text, w)
            checked += 1
    print(f"criterion 5a (TBA vs monitor): PASS  {checked} word checks, "
          "100% agreement")


# --- brute-force point-based evaluator, independent of the monitor ---------

def _constant_sum(f):
    if isinstance(f, Atom):
        return F(0)
    if isinstance(f, Not):
        return _constant_sum(f.child)
    if isinstance(f, (And, Or)):
        return _constant_sum(f.left) + _constant_sum(f.right)
    iv = f.interval
    own = (iv.hi if iv.hi is not None else iv.lo) + 1
    if isinstance(f, Until):
        return own + _constant_sum(f.left) + _constant_sum(f.right)
    return own + _constant_sum(f.child)


def _brute_force(f, w):
    """Evaluate ``f`` on ``w`` by explicit quantification over positions.

    Positions are the word's stamps plus a half-integer grid of stutter
    positions out to a horizon past every window boundary; beyond the
    horizon the held letter makes every verdict constant, represented by a
    sentinel position (index None).
    """
    grid = F(1, 2)
    horizon = w.times[-1] + _constant_sum(f) + 1
    positions = list(w.times)
    t = w.times[-1] + grid
    while t <= horizon:
        positions.append(t)
        t += grid
    letters = list(w.letters) + [w.letters[-1]] * (len(positions) - len(w))
    last = positions[-1]
    cache = {}

    def ev(node, i):
        key = (id(node), i)
        if key in cache:
            return cache[key]
        out = _ev(node, i)
        cache[key] = out
        return out

    def _ev(node, i):
        if i is None:
            return _ev_constant(node)
        t = positions[i]
        if isinstance(node, Atom):
            return node.name in letters[i]
        if isinstance(node, Not):
            return not ev(node.child, i)
        if isinstance(node, And):
            return ev(node.left, i) and ev(node.right, i)
        if isinstance(node, Or):
            return ev(node.left, i) or ev(node.right, i)
        iv = node.interval
        window = [j for j in range(i, len(positions))
                  if iv.contains(positions[j] - t)]
        beyond = iv.intersects_after(last - t)
        if isinstance(node, Eventually):
            return (any(ev(node.child, j) for j in window)
                    or (beyond and ev(node.child, None)))
        if isinstance(node, Always):
            if not all(ev(node.child, j) for j in window):
                return False
            return not beyond or ev(node.child, None)
        if isinstance(node, Until):
            for j in window:
                if ev(node.right, j) and all(ev(node.left, k)
                                             for k in range(i, j)):
                    return True
            return (beyond and ev(node.right, None) and ev(node.left, None)
                    and all(ev(node.left, k) for k in range(i, len(positions))))
        raise TypeError(f"unsupported node {node!r}")

    def _ev_constant(node):
        letter = letters[-1]
        if isinstance(node, Atom):
            return node.name in letter
        if isinstance(node, Not):
            return not ev(node.child, None)
        if isinstance(node, And):
            return ev(node.left, None) and ev(node.right, None)
        if isinstance(node, Or):
            return ev(node.left, None) or ev(node.right, None)
        if isinstance(node, (Eventually, Always)):
            return ev(node.child, None)
        if isinstance(node, Until):
            return ev(node.right, None) and (
                node.interval.contains(0) or ev(node.left, None)
            )
        raise TypeError(f"unsupported node {node!r}")

    return ev(f, 0)


DEPTH2_CORPUS = [
    "a", "!a", "a & b", "a | !b",
    "F[0,2] a", "F[1,3] b", "F[2,2] a", "F[0,inf] b",
    "G[0,2] a", "G[1,3] !b", "G[0,inf] a",
    "a U[0,3] b", "a U[2,2] b", "b U[1,inf] a",
    "!F[1,2] a", "!(a U[0,2] b)", "!G[0,3] b",
    "F[0,2] G[0,2] a", "G[0,inf] F[0,2] a", "F[1,3] (a & b)",
    "G[0,3] (a | b)", "F[0,2] a & G[0,2] b", "(F[0,1] a) U[0,3] b",
    "a U[0,2] (b U[0,2] a)",
]


def _all_words(max_len=4, max_stamp=6):
    alphabet = [frozenset(), frozenset({"a"}), frozenset({"b"}),
                frozenset({"a", "b"})]
    from itertools import combinations, product

    for n in range(1, max_len + 1):
        for rest in combinations(range(1, max_stamp + 1), n - 1):
            times = (F(0),) + tuple(F(t) for t in rest)
            for letters in product(alphabet, repeat=n):
                yield TimedWord(letters, times)


def test_criterion_5_exhaustive_brute_force():
    formulas = [parse(t) for t in DEPTH2_CORPUS]
    words = list(_all_words())
    checked = 0
    for f in formulas:
        for w in words:
            assert monitor(f, w) == _brute_force(f, w), (to_string(f), w)
            checked += 1
    print(f"criterion 5b (monitor vs brute force): PASS  {checked} checks "
          f"over {len(words)} words x {len(formulas)} formulas")


# ---------------------------------------------------------------------------
# criterion 6: geometry exactness
# ---------------------------------------------------------------------------

def test_criterion_6_geometry_exactness():
    rng = np.random.default_rng(6)
    samples = 10_000

    # box (-) ball: y survives erosion exactly when y +- r e_i stays inside
    box = Box([-1.0, -2.0], [2.0, 1.0])
    r = 0.35
    eroded = box.eroded(r)
    assert np.array_equal(eroded.lower, box.lower + r)
    assert np.array_equal(eroded.upper, box.upper - r)
    for p in rng.uniform(-2.5, 2.5, size=(samples, 2)):
        worst = all(
            box.contains(p + r * d, tol=0.0)
            for d in (np.array([1.0, 0]), np.array([-1.0, 0]),
                      np.array([0, 1.0]), np.array([0, -1.0]))
        )
        assert eroded.contains(p, tol=0.0) == worst
    print(f"criterion 6 (geometry exactness): PASS  {samples} sampled "
          "memberships, 0 counterexamples")


# ---------------------------------------------------------------------------
# criterion 7: disturbance-free degeneracy
# ---------------------------------------------------------------------------

def test_criterion_7_zero_disturbance(tiny_zero_scenario, tiny_zero_wts):
    assert tiny_zero_scenario.tube_params().tube_radius == 0.0
    plan = synthesize(tiny_zero_wts, tiny_zero_scenario.formula())
    trace = execute_plan(tiny_zero_scenario, tiny_zero_wts, plan,
                         disturbance="random", seed=1)
    assert trace.max_deviation <= 1e-6
    assert verify_trace(tiny_zero_scenario, plan, trace)["pass"]
    # the plan's stamps are the transition weights, and the samples end
    # exactly at the last one
    step = tiny_zero_scenario.step
    substeps = round(float(step) / tiny_zero_scenario.sim_dt)
    assert len(trace.ts) == plan.stamps[-1] / step * substeps + 1
    # every leg makes its schedule: the robot is inside the arrival radius
    # at one of the leg's sampling instants.  The first leg starts at the
    # exact region center, so it replays the abstraction's step count to
    # the step
    radius = tiny_zero_scenario.fhocp_params().arrival_radius
    pos = trace.states[:, :2]
    start = 0
    for i, (src, dst, weight) in enumerate(plan.legs()):
        assert weight == tiny_zero_wts.transitions[(src, dst)]
        steps = int(weight / step)
        instants = pos[start:start + steps * substeps + 1:substeps]
        center = tiny_zero_scenario.regions[dst].center
        arrived = np.linalg.norm(instants - center, axis=1) <= radius
        assert len(arrived) == steps + 1 and arrived.any()
        if i == 0:
            assert np.argmax(arrived) == steps - tiny_zero_scenario.settle_steps
        start += steps * substeps
    print(f"criterion 7 (zero-disturbance degeneracy): PASS  "
          f"max deviation {trace.max_deviation:.2e} <= 1e-6, exact stamps")


@pytest.mark.parametrize("policy", DISTURBANCE_POLICIES)
def test_zero_disturbance_run_passes(tmp_path, policy):
    # with no disturbance the tube radius is 0, while the real state and
    # the nominal still differ by round-off (about 1e-14 here): the tube
    # tolerance's round-off floor lets ``tubeplan run`` pass
    data = tiny_dict()
    data["disturbance_bound"] = 0.0
    scenario = tmp_path / "zero.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli.main(["run", "--scenario", str(scenario), "--disturbance", policy,
                     "--out", str(out)]) == cli.EXIT_PASS
    assert json.loads((out / "report.json").read_text())["tube_ok"]


@pytest.fixture(scope="module")
def bundled_zero(tmp_path_factory):
    """The bundled scenario with no disturbance, and the cache of its
    abstraction that every run below reads."""
    d = tmp_path_factory.mktemp("bundled_zero")
    data = json.loads(resources.files("tubeplan").joinpath("data/nexus_sml.json")
                      .read_text())
    data["disturbance_bound"] = 0.0
    scenario, wts = d / "zero.json", d / "wts.json"
    scenario.write_text(json.dumps(data))
    assert cli.main(["abstract", "--scenario", str(scenario),
                     "--out", str(wts)]) == cli.EXIT_PASS
    return scenario, wts


@pytest.mark.parametrize("policy", DISTURBANCE_POLICIES)
def test_bundled_zero_disturbance_run_passes(bundled_zero, tmp_path, policy):
    # the nine-region mission with no disturbance: the nominal and the real
    # state differ by round-off (about 2e-14), within the tube tolerance's
    # round-off floor, under every policy
    scenario, wts = bundled_zero
    out = tmp_path / "run"
    assert cli.main(["run", "--scenario", str(scenario), "--wts", str(wts),
                     "--disturbance", policy, "--out", str(out)]) == cli.EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] and report["tube_ok"]
    assert report["max_deviation"] <= report["tube_tolerance"]


# ---------------------------------------------------------------------------
# criterion 8: determinism and round trips
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tiny_scenario, tiny_wts, tmp_path):
    rng = np.random.default_rng(2024)
    for _ in range(200):
        f = _random_formula(rng, depth=4)
        assert parse(to_string(f)) == f

    plan = synthesize(tiny_wts, tiny_scenario.formula())
    a = execute_plan(tiny_scenario, tiny_wts, plan, disturbance="random",
                     seed=12)
    b = execute_plan(tiny_scenario, tiny_wts, plan, disturbance="random",
                     seed=12)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_trace(a, pa)
    export_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()

    loaded = import_trace(pa)
    assert np.array_equal(loaded.states, a.states)
    assert np.array_equal(loaded.ts, a.ts)
    assert loaded.plan_digest == a.plan_digest == plan_digest(plan)
    again = tmp_path / "c.tsv"
    export_trace(loaded, again)
    assert again.read_bytes() == pa.read_bytes()
    print("criterion 8 (determinism & round trips): PASS  200 formula "
          "round-trips, byte-identical traces")


# ---------------------------------------------------------------------------
# criterion 9: synthesis soundness and saturation stability
# ---------------------------------------------------------------------------

def _corpus_wts():
    from tubeplan.abstraction import wts_from_dict

    return wts_from_dict({
        "states": ["s0", "s1", "s2"],
        "initial": "s0",
        "labels": {"s0": ["a"], "s1": ["b", "m"], "s2": ["o"]},
        "transitions": [
            {"source": "s0", "target": "s1", "weight": "3/2"},
            {"source": "s1", "target": "s0", "weight": "1"},
            {"source": "s1", "target": "s2", "weight": "1/2"},
            {"source": "s2", "target": "s0", "weight": "2"},
            {"source": "s0", "target": "s0", "weight": "1/2"},
            {"source": "s1", "target": "s1", "weight": "1/2"},
        ],
    })


def test_criterion_9_synthesis_soundness():
    wts = _corpus_wts()
    realizable = 0
    for text in FRAGMENT_CORPUS:
        f = parse(text)
        tba = build_tba(f)
        verdicts = []
        for slack in (1, 10):
            try:
                find_accepting_run(wts, tba, saturation_slack=slack)
                verdicts.append(True)
            except Unrealizable:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1], (
            f"saturation slack changed the verdict for {text}"
        )
        if verdicts[0]:
            plan = synthesize(wts, f)
            assert monitor(f, plan_word(plan, wts)), text
            realizable += 1

    # deadline shorter than every transition weight: provably unrealizable
    from tubeplan.abstraction import wts_from_dict

    slow = wts_from_dict({
        "states": ["s0", "s1"],
        "initial": "s0",
        "labels": {"s0": [], "s1": ["m"]},
        "transitions": [
            {"source": "s0", "target": "s1", "weight": "3/2"},
            {"source": "s1", "target": "s0", "weight": "3/2"},
            {"source": "s0", "target": "s0", "weight": "3/2"},
            {"source": "s1", "target": "s1", "weight": "3/2"},
        ],
    })
    assert all(weight > 1 for weight in slow.transitions.values())
    with pytest.raises(Unrealizable):
        synthesize(slow, parse("F[0,1] m"))
    print(f"criterion 9 (synthesis soundness): PASS  "
          f"{realizable}/{len(FRAGMENT_CORPUS)} realizable plans all pass "
          "the monitor; verdicts stable under saturation slack 1 -> 10")
