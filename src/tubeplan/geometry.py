"""Exact set algebra for balls and axis-aligned boxes.

Everything the constraint-tightening arithmetic needs: ball inflation,
erosion by a ball, and the composed tightening of state/input constraint
sets by a tube radius.  An input set, a ``Box`` or a ``Ball``, owns its
projection, saturation test and erosion, so no caller asks which it holds.
All values are plain double-precision; membership tests take an explicit
tolerance so sampled property tests stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySetError, InvalidParam

DEFAULT_TOL = 1e-9


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise InvalidParam(f"expected a 1-d vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with ``center`` and nonnegative ``radius``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise InvalidParam(f"ball radius must be >= 0, got {self.radius}")

    @property
    def abs_bound(self) -> np.ndarray:
        """Bound on ``|u_i|`` of each coordinate of every point of the ball."""
        return np.abs(self.center) + self.radius

    def project(self, u):
        """Nearest point of the ball to each ``u`` (radial scaling)."""
        v = u - self.center
        nrm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
        scale = np.where(nrm > self.radius, self.radius / np.maximum(nrm, 1e-300), 1.0)
        return self.center + scale * v

    def outside(self, u, tol: float = DEFAULT_TOL):
        """Whether each ``u`` lies farther than ``radius + tol`` from the center."""
        v = u - self.center
        return np.sqrt(np.add.reduce(v * v, axis=-1)) > self.radius + tol

    def eroded(self, r: float) -> "Ball":
        """Pontryagin difference ball ``-`` ball: shrink the radius by ``r``."""
        if r < 0:
            raise InvalidParam(f"erosion radius must be >= 0, got {r}")
        radius = self.radius - r
        if radius < 0:
            raise EmptySetError(f"ball of radius {self.radius} eroded by {r} is empty")
        return Ball(self.center, radius)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{x : lower <= x <= upper}`` (component-wise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower)
        up = _as_vector(self.upper)
        if lo.shape != up.shape:
            raise InvalidParam("box bounds must have equal dimension")
        if np.any(lo > up):
            raise InvalidParam(f"box lower bound exceeds upper: {lo} > {up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        p = _as_vector(point)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def translate(self, shift) -> "Box":
        s = _as_vector(shift)
        return Box(self.lower + s, self.upper + s)

    @property
    def abs_bound(self) -> np.ndarray:
        """Bound on ``|u_i|`` of each coordinate of every point of the box."""
        return np.maximum(-self.lower, self.upper)

    def project(self, u):
        """Nearest point of the box to each ``u`` (a clamp)."""
        return np.minimum(np.maximum(u, self.lower), self.upper)

    def outside(self, u, tol: float = DEFAULT_TOL):
        """Whether some coordinate of each ``u`` lies more than ``tol`` past a bound."""
        return np.any((u < self.lower - tol) | (u > self.upper + tol), axis=-1)

    def eroded(self, r: float) -> "Box":
        """Pontryagin difference box ``-`` ball: move each bound inward by ``r``."""
        if r < 0:
            raise InvalidParam(f"erosion radius must be >= 0, got {r}")
        lo = self.lower + r
        up = self.upper - r
        if np.any(lo > up):
            raise EmptySetError(f"box of widths {self.widths} eroded by {r} is empty")
        return Box(lo, up)


@dataclass(frozen=True)
class ConstraintSet:
    """A kept-inside box minus a list of kept-outside balls.

    Membership is box containment plus *strict* exteriority with respect to
    every exclusion ball (contact counts as violation).  The balls are
    stacked once into ``centers`` (k, dim) and ``radii`` (k,), so every
    measure below is one broadcast over all constraints.
    """

    region: Box
    exclusions: tuple = field(default_factory=tuple)
    centers: np.ndarray = field(init=False, compare=False, repr=False)
    radii: np.ndarray = field(init=False, compare=False, repr=False)
    side_slopes: np.ndarray = field(init=False, compare=False, repr=False)
    stacked: "ConstraintStack" = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        exclusions = tuple(self.exclusions)
        dim = self.region.dim
        if any(b.center.shape != (dim,) for b in exclusions):
            raise InvalidParam(f"every exclusion ball must have the box's dimension {dim}")
        object.__setattr__(self, "exclusions", exclusions)
        object.__setattr__(self, "centers",
                           np.array([b.center for b in exclusions]).reshape(-1, dim))
        object.__setattr__(self, "radii", np.array([b.radius for b in exclusions]))
        # d(depth)/d(p) of the box columns of ``depths``: -1, then +1
        object.__setattr__(self, "side_slopes", np.concatenate([-np.eye(dim), np.eye(dim)]))
        # this set alone as a ``ConstraintStack``, for the stacked solver
        object.__setattr__(self, "stacked", ConstraintStack(
            self.region.lower[None, None], self.region.upper[None, None],
            self.centers[None, None], self.radii[None, None], self.side_slopes))

    def depths(self, points):
        """Signed depths past each constraint, shape (..., 2*dim + exclusions).

        Columns: ``lower - p`` per side, ``p - upper`` per side, then
        ``radius - |p - center|`` per exclusion ball.  Returns the depths,
        the offsets ``p - center`` of shape (..., exclusions, dim) and
        their lengths.
        """
        return _depths(points, self.region.lower, self.region.upper,
                       self.centers, self.radii)

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        return bool(self.stacked.contains(_as_vector(point)[None], tol)[0])

    def clearance(self, point) -> float:
        """How far ``point`` may move before it reaches a constraint: minus
        its worst ``depths`` column, each of which is 1-Lipschitz in the
        point; negative past one."""
        return -float(np.maximum.reduce(self.depths(np.asarray(point, dtype=float))[0], axis=None))

    @staticmethod
    def worst(depths):
        """Worst penetration depth of each row of ``depths`` (as ``depths``
        returns them), shape (...,); 0.0 when feasible."""
        return np.maximum(np.maximum.reduce(depths, axis=-1), 0.0)

    def violation(self, points):
        """Worst penetration depth of each point, shape (...,); 0.0 when
        feasible."""
        return self.worst(self.depths(np.asarray(points, dtype=float))[0])

    def count_violations(self, points) -> tuple:
        """``(workspace_exits, exclusion_hits)`` over points of shape (k, dim).

        An exit is a point outside the region (tolerance ``DEFAULT_TOL``); a
        hit is a point inside or on some exclusion ball, counted once however
        many balls it touches.
        """
        p = np.asarray(points, dtype=float)
        box = self.region
        inside = np.all((p >= box.lower - DEFAULT_TOL) & (p <= box.upper + DEFAULT_TOL),
                        axis=-1)
        _, _, dist = self.depths(p)
        hit = np.any(dist <= self.radii, axis=-1)
        return int(np.count_nonzero(~inside)), int(np.count_nonzero(hit))


def _depths(points, lower, upper, centers, radii):
    """``ConstraintSet.depths`` on the arrays of one set or of a stack."""
    offsets = points[..., None, :] - centers
    dist = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))
    depths = np.concatenate([lower - points, points - upper, radii - dist], axis=-1)
    return depths, offsets, dist


@dataclass(frozen=True)
class ConstraintStack:
    """Constraint sets of one dimension on a leading leg axis.

    ``lower`` and ``upper`` have shape (legs, 1, dim), ``centers`` (legs, 1,
    balls, dim) and ``radii`` (legs, 1, balls), where ``balls`` is the most
    exclusions any set has; a set with fewer is padded with balls of radius
    ``-inf``, which no point is inside.  ``depths`` of points (legs, k, dim)
    are each set's ``ConstraintSet.depths`` followed by the padded columns,
    whose depth is ``-inf``, so each row has the same worst depth and the
    same deepest column, bit for bit.  A stack of one leg broadcasts over
    any number of rows.
    """

    lower: np.ndarray
    upper: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    side_slopes: np.ndarray

    @classmethod
    def of(cls, sets) -> "ConstraintStack":
        if len(sets) == 1:
            return sets[0].stacked
        balls = max(len(s.exclusions) for s in sets)
        dim = sets[0].region.dim
        centers = np.zeros((len(sets), 1, balls, dim))
        radii = np.full((len(sets), 1, balls), -np.inf)
        for i, s in enumerate(sets):
            centers[i, 0, :len(s.exclusions)] = s.centers
            radii[i, 0, :len(s.exclusions)] = s.radii
        return cls(np.array([s.region.lower for s in sets])[:, None],
                   np.array([s.region.upper for s in sets])[:, None],
                   centers, radii, sets[0].side_slopes)

    def take(self, legs) -> "ConstraintStack":
        """The stack of the sets at ``legs``, in that order; the stack itself
        when it has one leg."""
        if len(self.lower) == 1:
            return self
        return ConstraintStack(*(a.take(legs, axis=0) for a in (
            self.lower, self.upper, self.centers, self.radii)), self.side_slopes)

    def depths(self, points):
        return _depths(points, self.lower, self.upper, self.centers, self.radii)

    def contains(self, points, tol: float = DEFAULT_TOL):
        """Whether each leg's point, of shape (legs, dim), lies in its set:
        inside the box within ``tol`` and more than ``tol`` outside every
        exclusion ball."""
        p = points[:, None]
        _, _, dist = self.depths(p)
        box = (p >= self.lower - tol) & (p <= self.upper + tol)
        hit = dist <= self.radii - tol
        return (np.logical_and.reduce(box.reshape(len(p), -1), axis=-1)
                & ~np.logical_or.reduce(hit.reshape(len(p), -1), axis=-1))

    worst = staticmethod(ConstraintSet.worst)


def inflate_ball(b: Ball, r: float) -> Ball:
    """Minkowski sum of a ball with the origin-centred ball of radius ``r``."""
    if r < 0:
        raise InvalidParam(f"inflation radius must be >= 0, got {r}")
    return Ball(b.center, b.radius + r)


def tighten_state_constraints(
    x_set: ConstraintSet, target_shift, tube_radius: float
) -> ConstraintSet:
    """Shift a constraint set into the error frame and tighten by the tube.

    The region is translated by ``-target_shift`` and eroded by
    ``tube_radius``; every exclusion ball is translated the same way and
    inflated by ``tube_radius``, so any point of the result plus any tube
    deviation plus the shift lands back in the original set.
    """
    if tube_radius < 0:
        raise InvalidParam(f"tube radius must be >= 0, got {tube_radius}")
    shift = _as_vector(target_shift)
    region = x_set.region.translate(-shift).eroded(tube_radius)
    exclusions = tuple(
        Ball(b.center - shift, b.radius + tube_radius) for b in x_set.exclusions
    )
    return ConstraintSet(region, exclusions)


def tighten_input_constraints(u_set, sigma: float, tube_radius: float):
    """Erode the input set (box or ball) by ``sigma * tube_radius``."""
    if sigma <= 0:
        raise InvalidParam(f"sigma must be > 0, got {sigma}")
    if tube_radius < 0:
        raise InvalidParam(f"tube radius must be >= 0, got {tube_radius}")
    return u_set.eroded(sigma * tube_radius)
