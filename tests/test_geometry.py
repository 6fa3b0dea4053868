import numpy as np
import pytest

from tubeplan.errors import EmptySetError, InvalidParam
from tubeplan.geometry import (
    Ball,
    Box,
    ConstraintSet,
    erode_box_by_ball,
    inflate_ball,
    tighten_input_constraints,
    tighten_state_constraints,
)


def test_erode_box_exact():
    box = Box([-2.0, -1.0], [2.0, 3.0])
    e = erode_box_by_ball(box, 0.5)
    assert np.array_equal(e.lower, [-1.5, -0.5])
    assert np.array_equal(e.upper, [1.5, 2.5])


def test_erode_box_empty():
    with pytest.raises(EmptySetError):
        erode_box_by_ball(Box([0.0, 0.0], [1.0, 1.0]), 0.6)


def test_box_validation():
    with pytest.raises(InvalidParam):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidParam):
        Ball([0.0], -0.1)


def test_erosion_membership_property():
    # every eroded-box point plus every radius-r offset stays in the box
    rng = np.random.default_rng(42)
    box = Box([-2.0, -1.5, 0.0], [1.0, 2.5, 4.0])
    eroded = erode_box_by_ball(box, 0.4)
    pts = rng.uniform(eroded.lower, eroded.upper, size=(10_000, eroded.dim))
    dirs = rng.normal(size=(10_000, 3))
    dirs *= 0.4 / np.linalg.norm(dirs, axis=1, keepdims=True)
    moved = pts + dirs
    assert np.all(moved >= box.lower - 1e-12)
    assert np.all(moved <= box.upper + 1e-12)


def test_inflation_membership_property():
    # any point within r of the original ball lies in the inflated ball
    rng = np.random.default_rng(7)
    ball = Ball([0.5, -0.25], 0.8)
    big = inflate_ball(ball, 0.3)
    dirs = rng.normal(size=(10_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 0.8 * np.sqrt(rng.uniform(size=(10_000, 1)))
    inside = ball.center + radii * dirs
    offsets = rng.normal(size=(10_000, 2))
    offsets *= 0.3 * rng.uniform(size=(10_000, 1)) / np.linalg.norm(
        offsets, axis=1, keepdims=True
    )
    for p in (inside + offsets)[:200]:
        assert big.contains(p)
    dists = np.linalg.norm(inside + offsets - big.center, axis=1)
    assert np.all(dists <= big.radius + 1e-9)


def test_constraint_set_membership_and_violation():
    cs = ConstraintSet(
        Box([-1.0, -1.0], [1.0, 1.0]),
        [Ball([0.0, 0.0], 0.25)],
    )
    assert cs.contains([0.5, 0.5])
    assert not cs.contains([0.0, 0.1])       # inside the exclusion
    assert not cs.contains([1.2, 0.0])       # outside the region
    assert cs.violation([0.5, 0.5]) == 0.0
    assert cs.violation([0.0, 0.0]) == pytest.approx(0.25)
    assert cs.violation([1.3, 0.0]) == pytest.approx(0.3)


def test_tighten_state_constraints_shift_and_margin():
    cs = ConstraintSet(
        Box([-2.0, -2.0], [2.0, 2.0]),
        [Ball([1.0, 1.0], 0.5)],
    )
    tightened = tighten_state_constraints(cs, [0.5, -0.5], 0.1)
    assert np.allclose(tightened.region.lower, [-2.4, -1.4])
    assert np.allclose(tightened.region.upper, [1.4, 2.4])
    (b,) = tightened.exclusions
    assert np.allclose(b.center, [0.5, 1.5])
    assert b.radius == pytest.approx(0.6)


def test_tighten_state_constraints_soundness_sampled():
    # e in tightened set  =>  e + shift + tube-deviation in the original set
    rng = np.random.default_rng(3)
    cs = ConstraintSet(Box([-2.0, -2.0], [2.0, 2.0]), [Ball([0.8, 0.0], 0.4)])
    shift = np.array([0.3, -0.2])
    tube = 0.15
    tightened = tighten_state_constraints(cs, shift, tube)
    count = 0
    while count < 10_000:
        e = rng.uniform(tightened.region.lower, tightened.region.upper)
        if not tightened.contains(e, tol=0.0):
            continue
        d = rng.normal(size=2)
        d *= tube / np.linalg.norm(d)
        assert cs.contains(e + shift + d, tol=1e-9)
        count += 1


def test_tighten_input_constraints_box_and_ball():
    box = Box([-0.2, -0.2, -0.2], [0.2, 0.2, 0.2])
    t = tighten_input_constraints(box, 1.0, 0.05)
    assert np.allclose(t.lower, -0.15)
    assert np.allclose(t.upper, 0.15)
    ball = Ball([0.0, 0.0], 1.0)
    tb = tighten_input_constraints(ball, 2.0, 0.25)
    assert tb.radius == pytest.approx(0.5)
    with pytest.raises(EmptySetError):
        tighten_input_constraints(Ball([0.0], 0.1), 2.0, 0.25)
