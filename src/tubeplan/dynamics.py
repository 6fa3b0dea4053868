"""Robot models, one batched RK4 step, and tube-sizing constants.

Models are control-affine, ``xdot = f(x) + g(x) u + delta``, with ``f`` and
``g`` vectorised over a leading batch axis so the shooting solver can roll
out many perturbed control sequences at once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AssumptionViolated,
    InternalError,
    InvalidParam,
)
from .geometry import Box

DISTURBANCE_POLICIES = (
    "zero",
    "worst",    # full-magnitude push away from the target
    "random",   # one draw from the bound ball, held for RANDOM_HOLD seconds
    "uniform",  # a fresh draw from the bound ball at every step
)
RANDOM_HOLD = 0.1


@dataclass(frozen=True)
class DynamicsModel:
    """Control-affine model.

    ``f`` maps states of shape ``(..., n)`` to drifts of the same shape;
    ``g`` maps them to input gains of shape ``(..., n, n)``.  The first two
    state coordinates are the workspace position (the ones the geometric
    constraints talk about).  ``pure_integrator`` declares that
    ``f == 0`` and ``g == I`` (which the callables cannot show), so the
    controller may step with ``integrator_increment``, on arrays in the
    solver's rollout and on floats in the closed loop, and take the exact
    adjoint gradient; only ``single_integrator`` sets it.
    """

    name: str
    n: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    pure_integrator: bool = False

    def embed_position(self, pos) -> np.ndarray:
        """Full state whose workspace coordinates equal ``pos``, zeros elsewhere."""
        x = np.zeros(self.n)
        x[:2] = np.asarray(pos, dtype=float)
        return x

    def derivative(self, x: np.ndarray, u: np.ndarray, delta=None) -> np.ndarray:
        gu = np.einsum("...ij,...j->...i", self.g(x), u)
        out = self.f(x) + gu
        if delta is not None:
            out = out + delta
        return out


def single_integrator(n: int = 3) -> DynamicsModel:
    """Omnidirectional single integrator ``xdot = u + delta``."""

    eye = np.eye(n)

    def f(x):
        return np.zeros_like(x)

    def g(x):
        return np.broadcast_to(eye, np.shape(x)[:-1] + (n, n))

    return DynamicsModel("single_integrator", n, f, g, pure_integrator=True)


def demo_nonlinear(n: int = 3) -> DynamicsModel:
    """State-dependent drift and gain, for exercising the general machinery.

    ``f(x) = -0.1 * x * |x|``, ``g(x) = (1 + 0.1 |x|) I``.
    """

    def f(x):
        x = np.asarray(x, dtype=float)
        return -0.1 * x * np.linalg.norm(x, axis=-1, keepdims=True)

    eye = np.eye(n)

    def g(x):
        x = np.asarray(x, dtype=float)
        scale = 1.0 + 0.1 * np.linalg.norm(x, axis=-1)
        return scale[..., None, None] * eye

    return DynamicsModel("demo_nonlinear", n, f, g)


MODEL_FACTORIES = {
    "single_integrator": single_integrator,
    "demo_nonlinear": demo_nonlinear,
}


def rk4_step(model: DynamicsModel, x, u, dt: float, delta=None) -> np.ndarray:
    """One classical RK4 step, batched over leading axes of ``x`` and ``u``.

    The input ``u`` and the disturbance ``delta`` are held constant through
    the four stages (piecewise-constant signals keep runs bit-reproducible).
    For a pure integrator the four stages are equal, and ``x +
    integrator_increment((0.0 + u) + delta, dt)`` gives the same bits.
    """
    k1 = model.derivative(x, u, delta)
    k2 = model.derivative(x + dt / 2 * k1, u, delta)
    k3 = model.derivative(x + dt / 2 * k2, u, delta)
    k4 = model.derivative(x + dt * k3, u, delta)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrator_increment(k, dt: float):
    """RK4's increment ``dt/6 * (k1 + 2 k2 + 2 k3 + k4)`` when the four
    stages are one ``k``, as for ``xdot = u + delta``; on a float or an array.

    Every stage is ``k = (0 + u) + delta``: callers add the zero drift first,
    as ``DynamicsModel.derivative`` does, which keeps its signed zeros.
    """
    return dt / 6 * (k + 2 * k + 2 * k + k)


LIPSCHITZ_SAFETY = 1.2
MIN_EIG_SAFETY = 0.9


def estimate_lipschitz(model: DynamicsModel, domain: Box, samples: int, seed) -> float:
    """Sampled Lipschitz bound for f and g over ``domain``, inflated by 1.2.

    Uses random point pairs plus tight pairs (x, x + 1e-4 * direction) so the
    local slope of smooth maps is captured.  The domain box lives in the
    position coordinates; remaining state coordinates are sampled in the
    same numeric range.
    """
    if samples < 2:
        raise InvalidParam("need at least 2 samples")
    rng = np.random.default_rng(seed)
    dim = model.n
    lo = np.resize(domain.lower, dim)
    hi = np.resize(domain.upper, dim)
    pts_a = rng.uniform(lo, hi, size=(samples, dim))
    pts_b = rng.uniform(lo, hi, size=(samples, dim))
    dirs = rng.normal(size=(samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    near_b = pts_a + 1e-4 * dirs
    best = 0.0
    for a, b in ((pts_a, pts_b), (pts_a, near_b)):
        dx = np.linalg.norm(a - b, axis=1)
        ok = dx > 1e-12
        a, b, dx = a[ok], b[ok], dx[ok]
        df = np.linalg.norm(model.f(a) - model.f(b), axis=1)
        dg = np.linalg.norm(model.g(a) - model.g(b), axis=(1, 2))
        if dx.size:
            best = max(best, float(np.max(df / dx)), float(np.max(dg / dx)))
    return LIPSCHITZ_SAFETY * best


def min_eig_g(model: DynamicsModel, domain: Box, samples: int, seed) -> float:
    """Sampled lower bound on the symmetric part of g, deflated by 0.9."""
    if samples < 1:
        raise InvalidParam("need at least 1 sample")
    rng = np.random.default_rng(seed)
    dim = model.n
    lo = np.resize(domain.lower, dim)
    hi = np.resize(domain.upper, dim)
    pts = rng.uniform(lo, hi, size=(samples, dim))
    pts[0] = np.clip(np.zeros(dim), lo, hi)  # include the origin-most point
    gs = model.g(pts)
    sym = 0.5 * (gs + np.swapaxes(gs, -1, -2))
    eigs = np.linalg.eigvalsh(sym)
    worst = float(np.min(eigs))
    if worst <= 0:
        raise AssumptionViolated(
            f"symmetric part of g has eigenvalue {worst} <= 0 in the domain"
        )
    return MIN_EIG_SAFETY * worst


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bound and generator policy for the disturbance signal."""

    bound: float
    policy: str = "zero"

    def __post_init__(self):
        if self.bound < 0:
            raise InvalidParam(f"disturbance bound must be >= 0, got {self.bound}")
        if self.policy not in DISTURBANCE_POLICIES:
            raise InvalidParam(
                f"unknown policy {self.policy!r}; choose from {DISTURBANCE_POLICIES}"
            )

    def generator(self, target, seed) -> Callable[[float, list], list]:
        """Deterministic ``delta(t, x)`` whose norm never exceeds the bound,
        as a list of floats; ``x`` is a sequence of floats.

        ``target`` is the full state the robot is steered to; the ``worst``
        policy pushes away from it, and its size sets the state dimension.
        """
        target = np.asarray(target, dtype=float)
        n = target.shape[0]
        bound = self.bound
        if self.policy == "zero" or bound == 0.0:
            zero = [0.0] * n
            return lambda t, x: zero
        if self.policy == "worst":
            def radial(t, x):
                v = np.asarray(x, dtype=float) - target
                nrm = np.linalg.norm(v)
                if nrm < 1e-12:
                    return [float(bound)] + [0.0] * (n - 1)
                d = bound / nrm * v
                while np.linalg.norm(d) > bound:    # rounded past it: one ulp towards 0
                    d = np.nextafter(d, 0.0)
                return d.tolist()

            return radial

        rng = np.random.default_rng(seed)
        hold = RANDOM_HOLD if self.policy == "random" else None
        state = {"next_t": -np.inf, "value": [0.0] * n}

        def draw():
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            r = bound * rng.uniform() ** (1.0 / n)
            d = r * v
            if np.linalg.norm(d) > bound:
                raise InternalError(
                    f"disturbance draw {d} exceeds the bound {bound}"
                )
            return d.tolist()

        def gen(t, x):
            if hold is None:
                return draw()
            if t >= state["next_t"] - 1e-12:
                state["value"] = draw()
                state["next_t"] = t + hold
            return state["value"]

        return gen


def derive_seed(seed: int, *parts) -> int:
    """Stable sub-seed derivation for independent generator streams."""
    h = hashlib.sha256(repr((int(seed),) + tuple(parts)).encode()).digest()
    return int.from_bytes(h[:8], "big")
