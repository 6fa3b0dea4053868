"""A seeded end-to-end sweep: every plan the pipeline returns passes verify.

Each draw is a scenario around the tiny one: 2-4 regions on jittered slots
of a cross, a box or a ball input, a disturbance bound in {0, 0.01, 0.02,
0.04} and one of five flat formula shapes.  The pipeline abstracts it,
synthesizes a plan, and executes that plan under every disturbance policy;
``verify_trace`` must pass each run.  The draws use the single integrator
only: the tiny scenario's ``demo_nonlinear`` abstraction alone takes 8-13 s
on a 2-core machine (342 shooting solves with finite-difference gradients),
too long for tier-1.
"""

import numpy as np
import pytest

from tubeplan.abstraction import build_wts
from tubeplan.dynamics import DISTURBANCE_POLICIES
from tubeplan.harness import execute_plan, verify_trace
from tubeplan.scenario import scenario_from_dict
from tubeplan.synthesis import synthesize

from conftest import tiny_dict

SWEEP_SEED = 12
DRAWS = 12
# execution seeds per policy
RUN_SEEDS = (0,)

# the tiny scenario's two regions and its hazard, and a fourth slot below
SLOTS = ((-0.9, 0.0), (0.9, 0.0), (0.0, 1.0), (0.0, -1.0))
# the label of each drawn region, in turn; the first one is the initial one
LABELS = ("home", "goal", "hazard", "mid")
BOUNDS = (0.0, 0.01, 0.02, 0.04)


def _formula(rng, shape: str):
    """The formula of ``shape`` with drawn windows, and the fewest regions
    its atoms need."""
    t = int(rng.choice((20, 30, 40)))
    if shape == "F":
        return f"F[0,{t}] goal", 2
    if shape == "F & G!":
        return f"F[0,{t}] goal & G[0,inf] !hazard", 3
    if shape == "U":
        return f"!hazard U[0,{t}] goal", 3
    if shape == "F & F":
        return f"F[0,{t}] goal & F[{t},{t + 30}] home", 2
    lo = int(rng.choice((20, 30)))
    return f"G[{lo},{lo + 10}] (goal | hazard)", 3


SHAPES = ("F", "F & G!", "U", "F & F", "G of an Or")


def draw_scenario(rng) -> dict:
    """One scenario dict drawn around the tiny scenario."""
    data = tiny_dict()
    formula, need = _formula(rng, SHAPES[int(rng.integers(len(SHAPES)))])
    n = int(rng.integers(need, 5))
    slots = rng.permutation(len(SLOTS))[:n]
    data["regions"] = {
        f"R{i}": {"center": [round(c + float(rng.uniform(-0.1, 0.1)), 3)
                             for c in SLOTS[slot]],
                  "radius": round(float(rng.uniform(0.25, 0.3)), 3)}
        for i, slot in enumerate(slots)}
    data["labels"] = {f"R{i}": [LABELS[i]] for i in range(n)}
    data["initial_region"] = "R0"
    data["input"] = {"type": str(rng.choice(("box", "ball"))), "bound": 0.3}
    data["disturbance_bound"] = float(rng.choice(BOUNDS))
    data["formula"] = formula
    return data


def _draws():
    rng = np.random.default_rng(SWEEP_SEED)
    return [draw_scenario(rng) for _ in range(DRAWS)]


def test_every_synthesized_plan_passes_verify():
    # every fixed draw is realizable: its plan runs under every policy
    runs = 0
    for data in _draws():
        scenario = scenario_from_dict(data)
        wts = build_wts(scenario)
        plan = synthesize(wts, scenario.formula())
        for policy in DISTURBANCE_POLICIES:
            for seed in RUN_SEEDS:
                trace = execute_plan(scenario, wts, plan, disturbance=policy, seed=seed)
                report = verify_trace(scenario, plan, trace)
                assert report["pass"], (data, policy, seed, report)
                runs += 1
    assert runs == DRAWS * len(DISTURBANCE_POLICIES) * len(RUN_SEEDS) == 48


def test_draws_cover_the_sweep():
    # the fixed draws include every shape's formula, both input sets, every
    # disturbance bound, and 2, 3 and 4 regions
    draws = _draws()
    assert {d["input"]["type"] for d in draws} == {"box", "ball"}
    assert {d["disturbance_bound"] for d in draws} == set(BOUNDS)
    assert {len(d["regions"]) for d in draws} == {2, 3, 4}
    heads = {d["formula"].split("[")[0] for d in draws}
    assert heads == {"F", "!hazard U", "G"}
    assert any("& G" in d["formula"] for d in draws)
    assert any("home" in d["formula"] for d in draws)


@pytest.mark.parametrize("seed", range(3))
def test_drawn_scenarios_are_valid(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        scenario_from_dict(draw_scenario(rng))
