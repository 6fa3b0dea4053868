from fractions import Fraction

import numpy as np
import pytest

from tubeplan import controller
from tubeplan.abstraction import (
    Wts,
    build_wts,
    load_wts,
    save_wts,
    scenario_hash,
    wts_from_dict,
    wts_to_dict,
)
from tubeplan.dynamics import DisturbanceSpec
from tubeplan.errors import (
    AbstractionError,
    NoTransition,
    UnknownTransition,
    ValidationError,
)
from tubeplan.scenario import scenario_from_dict

from conftest import tiny_dict

F = Fraction


def test_tiny_wts_structure(tiny_scenario, tiny_wts):
    wts = tiny_wts
    assert wts.states == ("A", "B", "H")
    assert wts.initial == "A"
    assert ("A", "B") in wts.transitions
    assert ("B", "A") in wts.transitions
    for s in wts.states:
        assert (s, s) in wts.transitions
    assert wts.label_of("B") == frozenset({"goal"})
    assert wts.scenario_hash == scenario_hash(tiny_scenario)


def test_weights_are_arrival_plus_settle(tiny_scenario, tiny_wts):
    step = tiny_scenario.step
    settle = tiny_scenario.settle_steps
    for (src, dst), weight in tiny_wts.transitions.items():
        arrival_steps = weight / step - settle
        assert arrival_steps.denominator == 1 and arrival_steps >= 0
        assert weight > 0
    # self-loops arrive immediately: weight is exactly the settle hold
    assert tiny_wts.transitions[("A", "A")] == settle * step


def test_abstraction_runs_no_closed_loop(monkeypatch, tiny_scenario):
    # a transition is decided on the nominal alone: with the tracking loop
    # and every disturbance generator failing, the weights are unchanged
    def closed_loop(*args, **kwargs):
        raise AssertionError("the abstraction ran a closed loop")

    monkeypatch.setattr(controller, "track", closed_loop)
    monkeypatch.setattr(DisturbanceSpec, "generator", closed_loop)
    wts = build_wts(tiny_scenario)
    assert {f"{src}->{dst}": str(w) for (src, dst), w in wts.transitions.items()} == {
        "A->A": "1", "A->B": "36/5", "A->H": "9/2",
        "B->A": "36/5", "B->B": "1", "B->H": "9/2",
        "H->A": "9/2", "H->B": "9/2", "H->H": "1",
    }


def test_symmetric_legs_have_close_weights(tiny_wts):
    # A and B mirror each other, so the two legs should take the same time
    # up to a sampling step or two
    ab = tiny_wts.weight_of("A", "B")
    ba = tiny_wts.weight_of("B", "A")
    assert abs(ab - ba) <= F(2, 10)


def test_weight_queries(tiny_wts):
    with pytest.raises(UnknownTransition):
        tiny_wts.weight_of("A", "Z")
    with pytest.raises(NoTransition):
        # H sits off to the side but every pair here is reachable, so make
        # a copy without one edge
        smaller = wts_from_dict({
            "states": ["A", "B"],
            "initial": "A",
            "labels": {"A": [], "B": []},
            "transitions": [
                {"source": "A", "target": "B", "weight": "3/2"},
            ],
        })
        smaller.weight_of("B", "A")


def test_build_is_deterministic(tiny_scenario, tiny_wts):
    again = build_wts(tiny_scenario)
    assert wts_to_dict(again) == wts_to_dict(tiny_wts)


def test_save_load_round_trip(tiny_wts, tmp_path):
    path = tmp_path / "wts.json"
    save_wts(tiny_wts, path)
    loaded = load_wts(path, expected_hash=tiny_wts.scenario_hash)
    assert wts_to_dict(loaded) == wts_to_dict(tiny_wts)
    assert loaded.weight_of("A", "B") == tiny_wts.weight_of("A", "B")
    with pytest.raises(AbstractionError):
        load_wts(path, expected_hash="somethingelse")
    # every transition's held inputs, a row per step of its weight, bit for bit
    assert loaded.held.keys() == tiny_wts.transitions.keys()
    for pair, rows in tiny_wts.held.items():
        assert rows.shape == (tiny_wts.transitions[pair] * 10, 3)
        assert np.array_equal(loaded.held[pair].view(np.int64), rows.view(np.int64))


def test_held_inputs_leave_equality_alone(tiny_wts):
    # a system loaded from a file without them (an older cache) is the same
    # system, and solves its legs again when executed
    data = wts_to_dict(tiny_wts)
    for item in data["transitions"]:
        del item["held"]
    bare = wts_from_dict(data)
    assert bare.held == {} and bare == tiny_wts


def test_hash_tracks_relevant_fields():
    a = scenario_from_dict(tiny_dict())
    changed = tiny_dict()
    changed["disturbance_bound"] = 0.01
    b = scenario_from_dict(changed)
    assert scenario_hash(a) != scenario_hash(b)
    # the formula does not influence the abstraction
    reworded = tiny_dict()
    reworded["formula"] = "F[0,10] home & G[0,inf] !hazard"
    c = scenario_from_dict(reworded)
    assert scenario_hash(a) == scenario_hash(c)


def test_nonpositive_weight_rejected():
    # a file's weight is one of the file's problems; a system built in code
    # checks its own
    with pytest.raises(ValidationError, match="'A' -> 'A' has nonpositive weight 0"):
        wts_from_dict({
            "states": ["A"],
            "initial": "A",
            "labels": {"A": []},
            "transitions": [{"source": "A", "target": "A", "weight": "0"}],
        })
    with pytest.raises(AbstractionError):
        Wts(("A",), "A", {}, {("A", "A"): F(0)})
