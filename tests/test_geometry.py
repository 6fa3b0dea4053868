import numpy as np
import pytest

from tubeplan.errors import EmptySetError, InvalidParam
from tubeplan.geometry import (
    DEFAULT_TOL,
    Ball,
    Box,
    ConstraintSet,
    inflate_ball,
    tighten_input_constraints,
    tighten_state_constraints,
)


def test_erode_box_exact():
    box = Box([-2.0, -1.0], [2.0, 3.0])
    e = box.eroded(0.5)
    assert np.array_equal(e.lower, [-1.5, -0.5])
    assert np.array_equal(e.upper, [1.5, 2.5])


def test_erode_box_empty():
    with pytest.raises(EmptySetError):
        Box([0.0, 0.0], [1.0, 1.0]).eroded(0.6)


def test_box_validation():
    with pytest.raises(InvalidParam):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidParam):
        Ball([0.0], -0.1)


def test_erosion_membership_property():
    # every eroded-box point plus every radius-r offset stays in the box
    rng = np.random.default_rng(42)
    box = Box([-2.0, -1.5, 0.0], [1.0, 2.5, 4.0])
    eroded = box.eroded(0.4)
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
    # clearance: the distance to the nearest side or ball surface, negative
    # past one, so no point within it of the start is past a constraint
    assert cs.clearance([0.5, 0.6]) == pytest.approx(0.4)                 # the upper y side
    assert cs.clearance([0.3, 0.4]) == pytest.approx(0.25)                # the ball
    assert cs.clearance([0.0, 0.1]) == pytest.approx(-0.15)
    assert cs.clearance([1.3, 0.0]) == pytest.approx(-0.3)
    rng = np.random.default_rng(8)
    for p in rng.uniform(-1.0, 1.0, size=(200, 2)):
        near = p + cs.clearance(p) * rng.uniform(-1.0, 1.0, size=(50, 2)) / np.sqrt(2.0)
        assert np.all(np.max(cs.depths(near)[0], axis=-1) <= 1e-12) or cs.clearance(p) < 0


def _loop_counts(cs, pts):
    # the per-ball loop ConstraintSet.count_violations ran before it
    # stacked its balls
    box = cs.region
    inside = np.all((pts >= box.lower - DEFAULT_TOL) & (pts <= box.upper + DEFAULT_TOL),
                    axis=-1)
    hit = np.zeros(inside.shape, dtype=bool)
    for b in cs.exclusions:
        hit |= np.linalg.norm(pts - b.center, axis=-1) <= b.radius
    return int(np.count_nonzero(~inside)), int(np.count_nonzero(hit))


def _loop_violation(cs, pts):
    # the per-ball loop of ConstraintSet.violation, over many points at once
    # with the row-wise norm that the solver's penalty always used; the norm
    # of a single vector goes through BLAS ``dot`` and can differ in the
    # last bit
    box = cs.region
    worst = np.maximum(np.max(box.lower - pts, axis=-1), np.max(pts - box.upper, axis=-1))
    for b in cs.exclusions:
        worst = np.maximum(worst, b.radius - np.linalg.norm(pts - b.center, axis=-1))
    return np.maximum(worst, 0.0)


def _loop_contains(cs, p):
    return cs.region.contains(p) and all(
        float(np.linalg.norm(p - b.center)) > b.radius - DEFAULT_TOL
        for b in cs.exclusions)


@pytest.mark.parametrize("balls", [0, 1, 7])
def test_stacked_depths_match_the_per_ball_loops(balls):
    # dyadic centres and radii 5k/8, so the 3-4-5 offsets below land
    # exactly on a ball's boundary and a side's points exactly on the side
    rng = np.random.default_rng(balls)
    box = Box([-2.0, -1.5], [2.5, 3.0])
    centers = rng.integers(-16, 20, size=(balls, 2)) / 8
    radii = 5 * rng.integers(1, 4, size=balls) / 8
    cs = ConstraintSet(box, [Ball(c, r) for c, r in zip(centers, radii)])
    assert cs.centers.shape == (balls, 2) and cs.radii.shape == (balls,)

    random = rng.uniform(box.lower - 0.5, box.upper + 0.5, size=(2000, 2))
    edges = []
    for c, r in zip(centers, radii):
        k = r / 5
        edges += [c + k * np.array(d) for d in
                  [(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (-3, 4), (4, -3)]]
    out_lo = np.nextafter(box.lower - DEFAULT_TOL, -np.inf)   # first exits
    out_up = np.nextafter(box.upper + DEFAULT_TOL, np.inf)
    for side in (box.lower, box.upper, box.lower - DEFAULT_TOL, box.upper + DEFAULT_TOL,
                 out_lo, out_up):
        for axis in (0, 1):
            p = rng.uniform(box.lower, box.upper, size=(20, 2))
            p[:, axis] = side[axis]
            edges += list(p)
    edges = np.array(edges)
    if balls:
        depths, _, _ = cs.depths(edges[:7])
        assert np.all(depths[:, 4] == 0.0)      # on the first ball's boundary

    for pts in (random, edges):
        assert cs.count_violations(pts) == _loop_counts(cs, pts)
        assert np.array_equal(cs.violation(pts), _loop_violation(cs, pts))
    for p in random:
        assert cs.contains(p) == _loop_contains(cs, p)
        assert cs.violation(p) == _loop_violation(cs, p[None])[0]
    # every constraint is exercised: exits, hits and both verdicts
    exits, hits = cs.count_violations(edges)
    assert exits > 0 and (hits > 0) == (balls > 0)
    assert 0 < sum(cs.contains(p) for p in random) < len(random)


@pytest.mark.parametrize("balls", [0, 1, 7])
def test_one_leg_stack_broadcasts_over_rows(balls):
    # the solver holds one set's stack for any number of rows: taking rows
    # of it gives it back, and each row's depths are the set's own
    rng = np.random.default_rng(balls)
    box = Box([-2.0, -1.5], [2.5, 3.0])
    cs = ConstraintSet(box, [Ball(c, r) for c, r in
                             zip(rng.uniform(-1.0, 1.0, size=(balls, 2)),
                                 rng.uniform(0.2, 0.8, size=balls))])
    assert cs.stacked.take([0, 0, 0]) is cs.stacked
    points = rng.uniform(box.lower - 0.5, box.upper + 0.5, size=(3, 13, 2))
    stacked = cs.stacked.depths(points)
    for row in range(3):
        for got, want in zip(stacked, cs.depths(points[row])):
            assert np.array_equal(got[row], want)


def test_ball_of_another_dimension_is_rejected():
    with pytest.raises(InvalidParam):
        ConstraintSet(Box([0.0, 0.0], [1.0, 1.0]), [Ball([0.5, 0.5, 0.0], 0.1)])


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
