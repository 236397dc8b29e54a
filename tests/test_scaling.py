"""Boundary dilation, transferred defining functions, and the pullback identity."""

import math

import numpy as np
import pytest

import poisskern as pk
from poisskern import scaling


def _disc_frame(eps=0.1, base=(0.0, -1.0)):
    return pk.boundary_frame(pk.Ball(2), np.asarray(base, dtype=float), eps)


# ---------------------------------------------------------------------------
# the dilation


def test_phi_eps_maps_base_to_origin_and_probe_to_last_axis():
    d = pk.Ball(2)
    fr = pk.boundary_frame(d, [0.0, -1.0], 0.25)
    np.testing.assert_allclose(pk.phi_eps(fr, fr.base), [0.0, 0.0], atol=1e-15)
    probe = fr.base + fr.epsilon * fr.inward_normal
    np.testing.assert_allclose(pk.phi_eps(fr, probe), [0.0, 1.0], atol=1e-14)


def test_phi_eps_inverse_round_trip_scalar_and_batch():
    fr = _disc_frame(0.07)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    S = pk.phi_eps(fr, X)
    np.testing.assert_allclose(pk.phi_eps_inverse(fr, S), X, atol=1e-13)
    x = np.array([0.3, -0.5])
    s = pk.phi_eps(fr, x)
    assert s.shape == (2,)
    np.testing.assert_allclose(pk.phi_eps_inverse(fr, s), x, atol=1e-14)


@pytest.mark.parametrize("kind", ["disc", "ball3", "ellipse"])
def test_frame_maps_of_one_point_equal_batch_rows(kind):
    if kind == "ellipse":
        domain = pk.Ellipse([2.0, 1.0])
        base = domain.boundary_point(0.7)
    else:
        domain = pk.Ball(2 if kind == "disc" else 3)
        base = [0.6, 0.8] if kind == "disc" else [0.0, 0.6, 0.8]
    fr = pk.boundary_frame(domain, base, 0.05)
    tdf = pk.transfer_defining_function(fr, domain)
    X = np.random.default_rng(3).normal(size=(500, domain.dim))
    S, Y, V = pk.phi_eps(fr, X), pk.phi_eps_inverse(fr, X), tdf(X)
    for i, x in enumerate(X):
        np.testing.assert_array_equal(pk.phi_eps(fr, x), S[i])
        np.testing.assert_array_equal(pk.phi_eps_inverse(fr, x), Y[i])
        assert tdf(x) == V[i]
    X[2, -1] = np.nan
    for evaluate in (lambda P: pk.phi_eps(fr, P), lambda P: pk.phi_eps_inverse(fr, P), tdf):
        with pytest.raises(pk.InvalidInputError, match=r"\[2\] has non-finite coordinates"):
            evaluate(X)
        with pytest.raises(pk.DimensionMismatchError, match=f"point of dimension {domain.dim}"):
            evaluate(np.zeros(domain.dim + 1))


def test_phi_eps_is_a_similarity_with_ratio_one_over_eps():
    fr = _disc_frame(0.2)
    a = np.array([0.1, -0.4])
    b = np.array([-0.3, 0.2])
    d_orig = np.linalg.norm(a - b)
    d_scaled = np.linalg.norm(pk.phi_eps(fr, a) - pk.phi_eps(fr, b))
    assert d_scaled == pytest.approx(d_orig / 0.2, rel=1e-13)


# ---------------------------------------------------------------------------
# transferred defining function


def test_transferred_function_vanishes_at_origin_with_exact_linear_part():
    for domain, base in [
        (pk.Ball(2), [0.0, -1.0]),
        (pk.Ball(3, center=[1.0, 0.0, 0.0], radius=2.0), [3.0, 0.0, 0.0]),
        (pk.Ellipse([2.0, 1.0]), [0.0, 1.0]),
        (pk.Halfspace(2), [0.4, 0.0]),
    ]:
        for eps in (0.3, 0.1, 0.01):
            fr = pk.boundary_frame(domain, np.asarray(base, dtype=float), eps)
            tdf = pk.transfer_defining_function(fr, domain)
            assert abs(tdf(np.zeros(domain.dim))) < 1e-12
            np.testing.assert_allclose(
                tdf.gradient_at_zero,
                -np.eye(domain.dim)[-1],
                atol=1e-14,
            )


def test_transferred_function_matches_curvature_expansion_on_disc():
    # For the disc the exact transfer is (sqrt(1 - 2 eps s2 + eps^2 |s|^2) - 1)/eps;
    # to first order in eps this is -s2 + (eps/2) s1^2 (curvature term only).
    grid = np.stack(
        np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)), axis=-1
    ).reshape(-1, 2)
    grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
    for eps in (0.1, 0.05):
        fr = _disc_frame(eps)
        tdf = pk.transfer_defining_function(fr, pk.Ball(2))
        vals = tdf(grid)
        model = -grid[:, 1] + 0.5 * eps * grid[:, 0] ** 2
        assert np.abs(vals - model).max() <= eps**2


def test_transferred_function_exact_value_along_the_normal():
    # Along the normal axis the distance defining function transfers exactly
    # to -s2, for every eps.
    fr = _disc_frame(0.1)
    tdf = pk.transfer_defining_function(fr, pk.Ball(2))
    for s2 in (-0.5, 0.25, 1.0):
        assert tdf(np.array([0.0, s2])) == pytest.approx(-s2, abs=1e-14)


def test_linearization_gap_law_on_disc():
    # The sup of |rho_eps(s) + s2| over the unit ball equals eps/2 exactly,
    # attained on the shell; the grid max sits just below it.
    d = pk.Ball(2)
    gaps = {}
    for eps in (0.2, 0.1, 0.05, 0.025):
        fr = pk.boundary_frame(d, [1.0, 0.0], eps)
        tdf = pk.transfer_defining_function(fr, d)
        gaps[eps] = pk.linearization_gap(tdf, 1.0)
        assert gaps[eps] <= eps / 2 + 1e-15
        assert gaps[eps] == pytest.approx(eps / 2, abs=1e-6)
    assert gaps[0.05] / gaps[0.1] == pytest.approx(0.5, abs=1e-5)


def test_linearization_gap_vanishes_on_halfspace():
    h = pk.Halfspace(2)
    for eps in (0.25, 0.125, 0.0625):  # exactly representable scalings
        fr = pk.boundary_frame(h, [0.3, 0.0], eps)
        tdf = pk.transfer_defining_function(fr, h)
        assert pk.linearization_gap(tdf, 1.0) == 0.0
    for eps in (0.1, 0.05, 0.025):  # rounding leaves at most one ulp
        fr = pk.boundary_frame(h, [0.3, 0.0], eps)
        tdf = pk.transfer_defining_function(fr, h)
        assert pk.linearization_gap(tdf, 1.0) <= 1e-15


def test_linearization_gap_halves_on_ellipse_at_every_base():
    e = pk.Ellipse([2.0, 1.0])
    for theta in (0.0, 0.7, np.pi / 2):
        base = e.boundary_point(theta)
        fr1 = pk.boundary_frame(e, base, 0.1)
        fr2 = pk.boundary_frame(e, base, 0.05)
        g1 = pk.linearization_gap(pk.transfer_defining_function(fr1, e), 1.0)
        g2 = pk.linearization_gap(pk.transfer_defining_function(fr2, e), 1.0)
        assert 0.4 <= g2 / g1 <= 0.6


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_halton_equals_scipy_unscrambled_halton(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    reference = qmc.Halton(d=dim, scramble=False).random(3700)
    np.testing.assert_array_equal(scaling._halton(3700, dim), reference)


def _scipy_gap_grid(dim, radius):
    """The gap grid as built with scipy's Halton sequence and normal quantile."""
    qmc = pytest.importorskip("scipy.stats").qmc
    ndtri = pytest.importorskip("scipy.special").ndtri

    def directions(n, d):
        raw = qmc.Halton(d=d, scramble=False).random(n + 64)
        good = raw[np.all((raw > 0.0) & (raw < 1.0), axis=1)][:n]
        g = ndtri(good[:, :dim])
        return g / np.linalg.norm(g, axis=1)[:, None], good

    dirs, good = directions(3584, dim + 1)
    interior = dirs * (radius * good[:, dim] ** (1.0 / dim))[:, None]
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(512) / 512
        shell_dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        shell_dirs, _ = directions(512, dim)
    return np.concatenate([interior, radius * shell_dirs], axis=0)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_gap_grid_matches_scipy_construction(dim, radius):
    grid = scaling._gap_grid(dim, radius)
    reference = _scipy_gap_grid(dim, radius)
    assert grid.shape == reference.shape == (4096, dim)
    assert np.abs(grid - reference).max() <= 1e-15
    assert not grid.flags.writeable


def test_linearization_gap_input_validation():
    fr = _disc_frame(0.1)
    tdf = pk.transfer_defining_function(fr, pk.Ball(2))
    with pytest.raises(pk.InvalidInputError):
        pk.linearization_gap(tdf, 0.0)
    with pytest.raises(pk.InvalidInputError):
        pk.linearization_gap(tdf, -1.0)


def test_linearization_gap_rejects_a_non_finite_radius():
    tdf = pk.transfer_defining_function(_disc_frame(0.1), pk.Ball(2))
    for radius in (math.inf, math.nan):
        with pytest.raises(pk.InvalidInputError, match=f"radius must be positive and finite, got {radius}"):
            pk.linearization_gap(tdf, radius)


# ---------------------------------------------------------------------------
# pullback identity and surrogate


def test_pullback_identity_exact_on_models():
    rng = np.random.default_rng(21)
    worst = 0.0
    d = pk.Ball(2)
    kd = pk.model_kernel(d)
    b3 = pk.Ball(3)
    k3 = pk.model_kernel(b3)
    h = pk.Halfspace(2)
    kh = pk.model_kernel(h)
    for eps in (0.5, 0.1, 0.01):
        fr = pk.boundary_frame(d, [0.0, -1.0], eps)
        sk = pk.scaled_model_kernel(d, fr)
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            x = 0.9 * np.sqrt(rng.uniform()) * np.array([np.cos(ang), np.sin(ang)])
            tang = rng.uniform(0, 2 * np.pi)
            t = np.array([np.cos(tang), np.sin(tang)])
            worst = max(worst, abs(pk.kernel_pullback(fr, sk, x, t) / kd(x, t) - 1.0))
        fr3 = pk.boundary_frame(b3, [0.0, 0.0, 1.0], eps)
        sk3 = pk.scaled_model_kernel(b3, fr3)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = 0.9 * rng.uniform() ** (1 / 3) * u
            v = rng.normal(size=3)
            t = v / np.linalg.norm(v)
            worst = max(worst, abs(pk.kernel_pullback(fr3, sk3, x, t) / k3(x, t) - 1.0))
        frh = pk.boundary_frame(h, [0.0, 0.0], eps)
        skh = pk.scaled_model_kernel(h, frh)
        for _ in range(20):
            x = np.array([rng.uniform(-2, 2), rng.uniform(0.05, 2)])
            t = np.array([rng.uniform(-3, 3), 0.0])
            worst = max(worst, abs(pk.kernel_pullback(frh, skh, x, t) / kh(x, t) - 1.0))
    assert worst < 1e-12


def test_scaled_model_kernel_geometry():
    # dilating the unit disc by 1/eps about a boundary frame yields the disc
    # of radius 1/eps centered at the image of the center
    d = pk.Ball(2)
    fr = pk.boundary_frame(d, [0.0, -1.0], 0.3)
    sk = pk.scaled_model_kernel(d, fr)
    center_image = pk.phi_eps(fr, np.zeros(2))
    np.testing.assert_allclose(np.linalg.norm(center_image), 1 / 0.3, rtol=1e-13)
    # kernel at the scaled center equals the uniform density on that circle
    val = sk(center_image, center_image + np.array([1 / 0.3, 0.0]))
    assert val == pytest.approx(1.0 / (2 * np.pi / 0.3), rel=1e-12)


def test_halfspace_surrogate_exact_on_halfspace():
    h = pk.Halfspace(2)
    kh = pk.model_kernel(h)
    fr = pk.boundary_frame(h, [0.7, 0.0], 0.1)
    x = np.array([1.3, 0.4])
    t = np.array([-0.5, 0.0])
    assert pk.halfspace_surrogate(fr, x, t) == pytest.approx(kh(x, t), rel=1e-13)
    xt, tt = fr.rotation @ (x - fr.base), fr.rotation @ (t - fr.base)
    assert pk.halfspace_surrogate(fr, x, t) == pk.poisson_halfspace(2, xt, tt)  # bit for bit


def test_halfspace_surrogate_first_order_accuracy_on_disc():
    d = pk.Ball(2)
    kd = pk.model_kernel(d)
    P = np.array([0.0, -1.0])
    fr = pk.boundary_frame(d, P, 0.1)
    for h in (0.2, 0.1, 0.05, 0.01):
        x = P + h * np.array([0.0, 1.0])
        got = pk.halfspace_surrogate(fr, x, P)
        assert got == pytest.approx(1.0 / (math.pi * h), rel=1e-13)
        rel_err = abs(got - kd(x, P)) / kd(x, P)
        assert rel_err <= 0.6 * h
        # exact disc kernel on the normal axis is (1/pi)(1 - h/2)/h
        assert rel_err == pytest.approx((h / 2) / (1 - h / 2), rel=1e-10)
    # slightly off the normal axis the surrogate stays within a few percent
    x = np.array([0.0, -0.99])
    tau = np.array([math.sin(0.02), -math.cos(0.02)])
    assert pk.halfspace_surrogate(fr, x, tau) == pytest.approx(kd(x, tau), rel=0.05)


def test_surrogate_rejects_exterior_probe():
    fr = _disc_frame(0.1)
    with pytest.raises(pk.InvalidInputError):
        pk.halfspace_surrogate(fr, np.array([0.0, -1.2]), np.array([0.0, -1.0]))
