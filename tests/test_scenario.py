from fractions import Fraction

import numpy as np
import pytest

from tubeplan.errors import ValidationError
from tubeplan.geometry import Ball, Box
from tubeplan.scenario import (
    default_scenario,
    load_scenario,
    parse_rational,
    rational_str,
    scenario_from_dict,
)

from conftest import tiny_dict

F = Fraction


def test_rational_helpers():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational(2) == F(2)
    assert parse_rational(0.5) == F(1, 2)
    assert rational_str(F(7, 2)) == "7/2"
    assert rational_str(F(4)) == "4"


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_booleans(value):
    with pytest.raises(ValidationError, match=f"cannot read {value}"):
        parse_rational(value)


def test_default_scenario_loads():
    s = default_scenario()
    assert len(s.regions) == 9
    assert s.initial_region in s.regions
    assert s.step == F(1, 10)
    assert s.horizon == F(6, 5)
    assert s.settle_steps == 20
    assert isinstance(s.input_set(), Box)
    f = s.formula()
    assert f is not None
    # every atom in the task is carried by some region
    bound = set().union(*s.labels.values())
    from tubeplan.mitl import atoms_of

    assert atoms_of(f) <= bound


def test_tube_params_from_declared_constants():
    s = scenario_from_dict(tiny_dict())
    tube = s.tube_params()
    assert tube.sigma == 1.0
    assert tube.tube_radius == pytest.approx(0.02)


def test_tube_params_estimated_when_missing():
    data = tiny_dict()
    data["lipschitz"] = None
    data["gain_floor"] = None
    s = scenario_from_dict(data)
    tube = s.tube_params()
    # the single integrator has zero Lipschitz constant and unit gain,
    # deflated by the sampling safety factor
    assert tube.sigma == pytest.approx(1.0)
    assert tube.tube_radius == pytest.approx(0.02)


def test_state_constraints_exclude_third_regions():
    s = scenario_from_dict(tiny_dict())
    cs = s.state_constraints_for("A", "B")
    assert len(cs.exclusions) == 1          # only H
    (h,) = cs.exclusions
    assert np.allclose(h.center, [0.0, 1.0])
    assert h.radius == pytest.approx(0.35)  # inflated by the robot radius
    assert np.allclose(cs.region.lower, [-1.45, -1.45])


def test_validation_aggregates_problems():
    data = tiny_dict()
    data["regions"]["B"]["center"] = [-0.85, 0.0]     # overlaps A
    data["formula"] = "F[0,10] nowhere"               # unbound atom
    data["fhocp"]["terminal_level"] = -1              # bad weight
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    text = str(err.value)
    assert "disjoint" in text
    assert "nowhere" in text
    assert "terminal_level" in text
    assert len(err.value.problems) >= 3


def test_validation_region_too_small():
    data = tiny_dict()
    data["regions"]["A"]["radius"] = 0.15             # below eta+arrival+tube
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert any("radius" in p for p in err.value.problems)


def test_validation_unknown_model_and_missing_fields():
    with pytest.raises(ValidationError) as err:
        scenario_from_dict({"model": "hovercraft"})
    probs = err.value.problems
    assert any("unknown model" in p for p in probs)
    assert any("workspace" in p for p in probs)


def test_validation_grid_mismatch():
    data = tiny_dict()
    data["sim_dt"] = 0.03
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert any("sim_dt" in p for p in err.value.problems)


def test_validation_bad_formula_position():
    data = tiny_dict()
    data["formula"] = "F[5,2] goal"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert any("formula" in p for p in err.value.problems)


def test_load_scenario_file(tmp_path):
    import json

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(tiny_dict()))
    s = load_scenario(path)
    assert s.name == "tiny_pair"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_input_ball_variant():
    data = tiny_dict()
    data["input"] = {"type": "ball", "bound": 0.4}
    s = scenario_from_dict(data)
    u = s.input_set()
    assert isinstance(u, Ball)
    assert u.radius == pytest.approx(0.4)
