"""Closed-form kernels, harmonic extension, and normalization."""

import math

import numpy as np
import pytest

import poisskern as pk


# ---------------------------------------------------------------------------
# dimensional constants


def test_dimensional_constants():
    assert pk.ball_constant(2) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
    assert pk.ball_constant(3) == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)
    assert pk.halfspace_constant(2) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert pk.halfspace_constant(3) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
    assert pk.halfspace_constant(4) == pytest.approx(1.0 / math.pi**2, rel=1e-15)


def _assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_model_kernels_and_separations_equal_the_numpy_norms_bit_for_bit():
    # Reference copies of the kernel expressions written with numpy's own
    # axis-1 norm and sum; ratio separations are the 1-D norm of each pair.
    rng = np.random.default_rng(11)

    def ball_reference(x, T, center, radius):
        inradius = np.linalg.norm(x - center)
        sep = np.linalg.norm(T - x[None, :], axis=1)
        return pk.ball_constant(x.size) * (radius**2 - inradius**2) / (radius * sep**x.size)

    def halfspace_reference(x, T):
        sq = np.sum((T[:, :-1] - x[None, :-1]) ** 2, axis=1) + x[-1] ** 2
        return pk.halfspace_constant(x.size) * x[-1] / sq ** (x.size / 2.0)

    for d in (2, 3, 5, 9):
        T = rng.standard_normal((5000, d))
        T /= np.linalg.norm(T, axis=1)[:, None]
        for scale in (0.0, 0.3, 0.999):
            x = scale * T[0] + 1e-3 * rng.standard_normal(d) * (scale < 0.9)
            _assert_bits_equal(pk.poisson_ball(d, x, T[1:]), ball_reference(x, T[1:], np.zeros(d), 1.0))
    center, radius = np.array([0.3, -1.2, 2.0]), 2.5
    T = rng.standard_normal((5000, 3))
    T = center + radius * T / np.linalg.norm(T, axis=1)[:, None]
    x = center + np.array([0.5, 0.1, -0.7])
    _assert_bits_equal(pk.ball_kernel(center, radius)(x, T), ball_reference(x, T, center, radius))
    for d in (2, 3, 9):
        T = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-3, 3, size=(5000, d))
        T[:, -1] = 0.0
        for height in (1e-4, 0.3, 7.0):
            x = np.append(rng.standard_normal(d - 1), height)
            _assert_bits_equal(pk.poisson_halfspace(d, x, T), halfspace_reference(x, T))

    for domain, base, targets in (
        (pk.Ball(2), [0.0, -1.0], [[np.cos(a), np.sin(a)] for a in np.linspace(0.1, 6.2, 13)]),
        (pk.Ball(3), [0.0, 0.0, -1.0], [[0.6, 0.0, 0.8], [0.0, -0.6, 0.8], [1.0, 0.0, 0.0]]),
        (pk.Halfspace(2), [0.0, 0.0], [[t, 0.0] for t in np.linspace(-3.1, 2.9, 11)]),
    ):
        kernel = pk.model_kernel(domain)
        sweep = pk.normal_sweep(domain, kernel, base, list(np.geomspace(0.5, 1e-4, 9)), targets)
        report = pk.derivative_report(domain, kernel, base, 0.05, [0.0, 0.1, 0.35, 0.8], orders=(1, 2))
        records = sweep.records + report.records
        want = [float(np.linalg.norm(np.array(r.x) - np.array(r.y))) for r in records]
        _assert_bits_equal([r.separation for r in records], want)


# ---------------------------------------------------------------------------
# reference kernel values


def test_poisson_ball_reference_values():
    assert pk.poisson_ball(2, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-12
    )
    assert pk.poisson_ball(3, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == pytest.approx(
        1.0 / (4 * math.pi), rel=1e-12
    )
    assert pk.poisson_ball(2, [0.5, 0.0], [1.0, 0.0]) == pytest.approx(
        3.0 / (2 * math.pi), rel=1e-12
    )


def test_poisson_halfspace_reference_values():
    assert pk.poisson_halfspace(2, [0.0, 1.0], [0.0, 0.0]) == pytest.approx(
        1.0 / math.pi, rel=1e-12
    )
    assert pk.poisson_halfspace(3, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]) == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-12
    )
    assert pk.poisson_halfspace(2, [0.0, 2.0], [0.0, 0.0]) == pytest.approx(
        1.0 / (2 * math.pi), rel=1e-12
    )


def test_poisson_ball_rotation_symmetry():
    rng = np.random.default_rng(4)
    th = 0.9
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for _ in range(10):
        x = 0.8 * rng.normal(size=2)
        x *= rng.uniform() / max(np.linalg.norm(x), 1.0)
        t = rng.normal(size=2)
        t /= np.linalg.norm(t)
        assert pk.poisson_ball(2, x, t) == pytest.approx(
            pk.poisson_ball(2, R @ x, R @ t), rel=1e-13
        )


def test_poisson_halfspace_translation_and_homogeneity():
    x = np.array([0.3, -0.2, 0.7])
    t = np.array([1.0, 2.0, 0.0])
    shift = np.array([5.0, -3.0, 0.0])
    v = pk.poisson_halfspace(3, x, t)
    assert pk.poisson_halfspace(3, x + shift, t + shift) == pytest.approx(v, rel=1e-13)
    lam = 2.5
    assert pk.poisson_halfspace(3, lam * x, lam * t) == pytest.approx(
        v / lam**2, rel=1e-13
    )


def test_poisson_ball_batch_targets():
    x = np.array([0.2, 0.1])
    ts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    vals = pk.poisson_ball(2, x, ts)
    assert vals.shape == (3,)
    for i in range(3):
        assert vals[i] == pk.poisson_ball(2, x, ts[i])


def test_kernel_validation_errors():
    with pytest.raises(pk.InvalidInputError):
        pk.poisson_ball(2, [1.0, 0.0], [1.0, 0.0])  # x on the boundary
    with pytest.raises(pk.InvalidInputError):
        pk.poisson_ball(2, [1.5, 0.0], [1.0, 0.0])  # x outside
    with pytest.raises(pk.InvalidInputError):
        pk.poisson_ball(2, [0.0, 0.0], [0.5, 0.0])  # t off the circle
    with pytest.raises(pk.InvalidInputError):
        pk.poisson_halfspace(2, [0.0, -1.0], [0.0, 0.0])  # x below the boundary
    with pytest.raises(pk.InvalidInputError):
        pk.poisson_halfspace(2, [0.0, 1.0], [0.0, 0.5])  # t off the hyperplane
    for d in (1, -1):
        with pytest.raises(pk.DimensionMismatchError):
            pk.poisson_ball(d, [0.5], [1.0])


def test_general_ball_kernel_translation_scaling_law():
    # P_{B(c,r)}(x,t) = r^{-(d-1)} P_{B(0,1)}((x-c)/r, (t-c)/r)
    c = np.array([1.0, -2.0])
    r = 3.0
    k = pk.ball_kernel(c, r)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        x = c + r * 0.6 * rng.uniform() * u
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        t = c + r * v
        expected = pk.poisson_ball(2, (x - c) / r, (t - c) / r) / r
        assert k(x, t) == pytest.approx(expected, rel=1e-12)


def test_model_kernel_dispatch():
    assert pk.model_kernel(pk.Ball(2))([0.0, 0.0], [1.0, 0.0]) == pytest.approx(
        1.0 / (2 * math.pi)
    )
    assert pk.model_kernel(pk.Halfspace(2))([0.0, 1.0], [0.0, 0.0]) == pytest.approx(
        1.0 / math.pi
    )
    with pytest.raises(pk.DomainUnsupportedError):
        pk.model_kernel(pk.Ellipse([2.0, 1.0]))


# ---------------------------------------------------------------------------
# harmonic extension and normalization


def test_normalization_on_bounded_models():
    assert pk.kernel_normalization(pk.Ball(2), [0.3, 0.4], 1024) == pytest.approx(
        1.0, abs=1e-12
    )
    assert pk.kernel_normalization(
        pk.Ball(3, center=[1.0, 0.0, 0.0], radius=2.0), [1.5, 0.3, -0.4], 48
    ) == pytest.approx(1.0, abs=1e-12)


def test_normalization_on_truncated_halfspaces():
    T = 50.0
    got = pk.kernel_normalization(pk.Halfspace(2), [0.0, 1.0], 1024, truncation=T)
    assert got == pytest.approx((2 / math.pi) * math.atan(T), abs=1e-12)
    T3 = 40.0
    got3 = pk.kernel_normalization(pk.Halfspace(3), [0.0, 0.0, 1.0], 256, truncation=T3)
    assert got3 == pytest.approx(1.0 - 1.0 / math.sqrt(1.0 + T3 * T3), abs=1e-12)


def test_harmonic_extension_reproduces_harmonic_polynomials():
    d = pk.Ball(2)
    x = np.array([0.25, -0.1])
    assert pk.harmonic_extend(d, lambda t: np.ones(len(t)), x, 256) == pytest.approx(
        1.0, abs=1e-12
    )
    assert pk.harmonic_extend(d, lambda t: t[:, 0], x, 256) == pytest.approx(
        0.25, abs=1e-12
    )
    # x^2 - y^2 is harmonic
    got = pk.harmonic_extend(d, lambda t: t[:, 0] ** 2 - t[:, 1] ** 2, x, 256)
    assert got == pytest.approx(0.25**2 - 0.1**2, abs=1e-12)
    b3 = pk.Ball(3)
    x3 = np.array([0.1, 0.2, -0.3])
    assert pk.harmonic_extend(b3, lambda t: t[:, 2], x3, 48) == pytest.approx(
        -0.3, abs=1e-10
    )


def test_harmonic_extension_takes_batch_boundary_data():
    d = pk.Ball(2)
    x = np.array([0.2, 0.0])
    got = pk.harmonic_extend(d, lambda T: T[:, 0] ** 3, x, 512)
    # cos^3 has harmonic extension (3/4) r cos + (1/4) r^3 cos(3theta)
    expected = 0.75 * 0.2 + 0.25 * 0.2**3
    assert got == pytest.approx(expected, abs=1e-10)
    # boundary data is called once, on all nodes: a scalar result is rejected
    # by its shape, and per-node data fails with its own error and no retry
    with pytest.raises(pk.InvalidInputError, match=r"boundary_data returned shape \(\) for 512 nodes"):
        pk.harmonic_extend(d, lambda T: 1.0, x, 512)
    calls = []

    def per_node(t):
        calls.append(np.shape(t))
        return float(t[0]) ** 3

    with pytest.raises(TypeError):
        pk.harmonic_extend(d, per_node, x, 512)
    assert calls == [(512, 2)]


def test_extension_validation_and_refinement_guard():
    d = pk.Ball(2)
    with pytest.raises(pk.InvalidInputError):
        pk.harmonic_extend(d, lambda t: np.ones(len(t)), [1.5, 0.0], 64)
    with pytest.raises(pk.RefinementNeededError):
        pk.harmonic_extend(d, lambda t: np.ones(len(t)), [0.9999, 0.0], 16)
    with pytest.raises(pk.InvalidInputError):
        pk.kernel_normalization(pk.Halfspace(2), [0.0, 1.0], 64)  # needs truncation


def test_halfspace_truncation_tail():
    x = np.array([0.0, 1.0])
    T = 30.0
    exact_tail = 1.0 - (2 / math.pi) * math.atan(T)
    assert pk.halfspace_truncation_tail(2, x, T) == pytest.approx(exact_tail, rel=1e-12)
    x3 = np.array([0.0, 0.0, 1.0])
    true_tail3 = 1.0 / math.sqrt(1.0 + 900.0)
    bound = pk.halfspace_truncation_tail(3, x3, 30.0)
    assert bound >= true_tail3
    assert bound <= 2.0 * true_tail3


# ---------------------------------------------------------------------------
# the batch evaluator shape


@pytest.mark.parametrize(
    "make, dim",
    [(lambda d: pk.ball_kernel(np.zeros(d), 1.0), 2), (lambda d: pk.ball_kernel(np.zeros(d), 1.0), 3),
     (pk.halfspace_kernel, 2), (pk.halfspace_kernel, 3)],
    ids=["ball2", "ball3", "halfspace2", "halfspace3"],
)
def test_kernel_batch_rows_equal_one_point_calls(make, dim):
    rng = np.random.default_rng(11 + dim)
    k = make(dim)
    for _ in range(5):
        T = rng.normal(size=(40, dim))
        if make is pk.halfspace_kernel:
            T[:, -1] = 0.0
            x = rng.normal(size=dim)
            x[-1] = abs(x[-1]) + 1e-3
        else:
            T /= np.linalg.norm(T, axis=1)[:, None]
            x = rng.uniform(-0.5, 0.5, size=dim)
        values = k(x, T)
        assert values.shape == (40,)
        for t, v in zip(T, values):
            assert k(x, t) == v  # bit for bit


@pytest.mark.parametrize("dim", [2, 3])
def test_unit_ball_evaluators_agree_and_share_one_tolerance(dim):
    evaluators = [
        lambda x, t: pk.poisson_ball(dim, x, t),
        pk.ball_kernel(np.zeros(dim), 1.0),
        pk.model_kernel(pk.Ball(dim)),
    ]
    rng = np.random.default_rng(dim)
    T = rng.normal(size=(30, dim))
    T /= np.linalg.norm(T, axis=1)[:, None]
    x = rng.uniform(-0.4, 0.4, size=dim)
    first = evaluators[0](x, T)
    for evaluate in evaluators[1:]:
        np.testing.assert_array_equal(evaluate(x, T), first)
    near, far = np.zeros(dim), np.zeros(dim)
    near[0], far[0] = 1.0 + 5e-10, 1.0 + 2e-9
    for evaluate in evaluators:
        assert evaluate(x, near) > 0.0
        with pytest.raises(pk.InvalidInputError, match="off the sphere"):
            evaluate(x, far)


def test_kernel_errors_name_the_offending_row():
    with pytest.raises(pk.InvalidInputError, match=r"t\[2\] = \[0\.5, 0\.0\] is off the sphere"):
        pk.poisson_ball(2, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    x = [1.0 - 1e-12, 0.0]
    with pytest.raises(pk.InvalidInputError, match=r"singular at x = t\[1\]"):
        pk.ball_kernel([0.0, 0.0], 1.0)(x, [[0.0, 1.0], x])
    with pytest.raises(pk.InvalidInputError, match=r"t\[1\] = \[1\.0, 0\.5\] is off the hyperplane"):
        pk.poisson_halfspace(2, [0.0, 1.0], [[0.0, 0.0], [1.0, 0.5]])
    with pytest.raises(pk.InvalidInputError, match=r"singular at x = t\[1\]"):
        pk.poisson_halfspace(2, [0.3, 1e-200], [[1.0, 0.0], [0.3, 0.0]])
