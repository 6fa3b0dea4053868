import numpy as np
import pytest

from tubeplan.dynamics import (
    DisturbanceSpec,
    DynamicsModel,
    demo_nonlinear,
    derive_seed,
    estimate_lipschitz,
    integrator_increment,
    min_eig_g,
    rk4_step,
    single_integrator,
)
from tubeplan.errors import InvalidParam
from tubeplan.geometry import Box


def test_single_integrator_shapes():
    m = single_integrator(3)
    x = np.zeros((5, 3))
    assert m.f(x).shape == (5, 3)
    assert m.g(x).shape == (5, 3, 3)
    assert np.allclose(m.g(x)[2], np.eye(3))


def _integrate(model, x0, u, T, dt):
    """Final state after ``T / dt`` RK4 steps with the input ``u`` held."""
    x = np.asarray(x0, dtype=float)
    for _ in range(round(T / dt)):
        x = rk4_step(model, x, u, dt)
    return x


def test_integrate_exponential_decay():
    # drift -x with zero input gives xdot = -x; compare against exp(-1)
    eye = np.eye(2)
    m = DynamicsModel("decay", 2, lambda x: -x,
                      lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (2, 2)))
    x1 = _integrate(m, [1.0, 2.0], np.zeros(2), 1.0, 0.01)
    assert np.allclose(x1, np.exp(-1.0) * np.array([1.0, 2.0]), atol=1e-8)


def test_integrate_fourth_order():
    # halving dt should shrink the RK4 error by about 2**4; the drift makes
    # the flow nonlinear (RK4 is exact on the single integrator)
    m = demo_nonlinear(1)
    u = np.array([0.3])
    exact = _integrate(m, [0.5], u, 2.0, 0.0005)[0]
    errs = [abs(float(_integrate(m, [0.5], u, 2.0, dt)[0] - exact))
            for dt in (0.1, 0.05)]
    assert errs[1] < errs[0] / 10.0  # comfortably better than 3rd order


def test_rk4_step_batch_matches_rows():
    # the shooting solver rolls out many control sets in one call; each row
    # must come out bit for bit as if stepped alone
    m = demo_nonlinear(3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3))
    u = rng.normal(size=(6, 3))
    d = 0.05 * rng.normal(size=(6, 3))
    batch = rk4_step(m, x, u, 0.1, d)
    for i in range(6):
        assert np.array_equal(batch[i], rk4_step(m, x[i], u[i], 0.1, d[i]))
    assert np.array_equal(rk4_step(m, x, u, 0.1)[2], rk4_step(m, x[2], u[2], 0.1))


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
def test_pure_integrator_step_is_bit_identical(dt):
    # the pure-integrator paths add integrator_increment of the stage
    # ``(0 + u) + delta`` to the state, on arrays and on floats; both must
    # give the four-stage rk4_step's bits
    m = single_integrator(3)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-3, 3)
        u = rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-3, 3)
        d = 0.05 * rng.normal(size=(7, 3))
        x[0] = u[0] = -0.0  # the four stages add the zero drift: +0.0
        for delta in (None, d):
            k = 0.0 + u if delta is None else (0.0 + u) + delta
            got = x + integrator_increment(k, dt)
            want = rk4_step(m, x, u, dt, delta)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            row = None if delta is None else delta[3]
            assert np.array_equal(x[3] + integrator_increment(k[3], dt),
                                  rk4_step(m, x[3], u[3], dt, row))
            for i in (0, 3):
                floats = [a + integrator_increment(b, dt) for a, b in zip(x[i].tolist(),
                                                                          k[i].tolist())]
                assert np.array_equal(floats, want[i])
                assert np.array_equal(np.signbit(floats), np.signbit(want[i]))


def test_lipschitz_single_integrator_is_zero():
    box = Box([-2.0, -2.0], [2.0, 2.0])
    assert estimate_lipschitz(single_integrator(3), box, 500, seed=0) == 0.0


def test_lipschitz_demo_model_vs_grid_oracle():
    # oracle: max finite-difference slope over a dense grid of pairs
    m = demo_nonlinear(2)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 13),
                                np.linspace(-1, 1, 13)), axis=-1).reshape(-1, 2)
    best = 0.0
    for i in range(len(grid)):
        dx = np.linalg.norm(grid - grid[i], axis=1)
        ok = dx > 1e-9
        df = np.linalg.norm(m.f(grid) - m.f(grid[i]), axis=1)
        dg = np.linalg.norm(m.g(grid) - m.g(grid[i]), axis=(1, 2))
        best = max(best, float(np.max(df[ok] / dx[ok])),
                   float(np.max(dg[ok] / dx[ok])))
    est = estimate_lipschitz(m, box, 4000, seed=11)
    # inflated estimate should dominate the grid slope, but not wildly
    assert est >= best * 0.95
    assert est <= best * 2.0


def test_min_eig_single_integrator():
    box = Box([-2.0, -2.0], [2.0, 2.0])
    assert min_eig_g(single_integrator(3), box, 200, seed=1) == pytest.approx(0.9)


def test_disturbance_policies_respect_bound():
    for policy in ("uniform", "random"):
        spec = DisturbanceSpec(0.07, policy)
        gen = spec.generator(np.zeros(3), seed=5)
        for k in range(200):
            d = gen(0.01 * k, np.zeros(3))
            assert np.linalg.norm(d) <= 0.07 + 1e-12


def test_worst_case_radial_points_away_from_target():
    target = np.array([1.0, 0.0, 0.0])
    spec = DisturbanceSpec(0.05, "worst")
    gen = spec.generator(target, seed=0)
    x = np.array([2.0, 0.0, 0.0])
    d = gen(0.0, x)
    assert np.allclose(d, [0.05, 0.0, 0.0])
    assert np.linalg.norm(gen(0.0, target)) == pytest.approx(0.05)


def test_worst_case_push_never_exceeds_the_bound():
    # the radial push bound / |v| * v rounds past the bound on many states;
    # the generator's push must stay within it by the norm test that the
    # random draws raise on, and point the same way
    bound, target = 0.05, np.array([0.4, -1.3, 0.2])
    gen = DisturbanceSpec(bound, "worst").generator(target, seed=0)
    rng = np.random.default_rng(2024)
    rounded_past = 0
    for x in rng.uniform(-6.0, 6.0, size=(20_000, 3)):
        v = x - target
        rounded_past += bool(np.linalg.norm(bound / np.linalg.norm(v) * v) > bound)
        d = np.array(gen(0.0, x.tolist()))
        assert np.linalg.norm(d) <= bound
        assert np.allclose(d, bound / np.linalg.norm(v) * v, rtol=1e-15, atol=0.0)
    assert rounded_past > 1000


def test_random_hold_is_piecewise_constant():
    spec = DisturbanceSpec(0.1, "random")
    gen = spec.generator(np.zeros(2), seed=9)
    a = gen(0.00, np.zeros(2))
    b = gen(0.05, np.zeros(2))
    c = gen(0.11, np.zeros(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_policy():
    gen = DisturbanceSpec(0.3, "zero").generator(np.zeros(4), seed=2)
    assert np.array_equal(gen(1.0, np.ones(4)), np.zeros(4))


def test_disturbance_validation():
    with pytest.raises(InvalidParam):
        DisturbanceSpec(-0.1, "zero")
    with pytest.raises(InvalidParam):
        DisturbanceSpec(0.1, "sinusoid")


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
    assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)
    assert derive_seed(3, "a") != derive_seed(4, "a")
