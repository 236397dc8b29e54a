"""Domains: defining functions, signed distance, projection, frames, quadrature."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import poisskern as pk
from poisskern.geometry import _ellipse_feet, _gauss_legendre, _norms, _sum_squares, as_point, inward_normal


# ---------------------------------------------------------------------------
# point validation


def test_as_point_accepts_lists_and_rejects_bad_shapes():
    p = as_point([1.0, 2.0])
    assert p.shape == (2,) and p.dtype == np.float64
    with pytest.raises(pk.DimensionMismatchError):
        as_point([[1.0, 2.0]])
    with pytest.raises(pk.DimensionMismatchError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(pk.InvalidInputError):
        as_point([1.0, np.nan])


# ---------------------------------------------------------------------------
# balls


def test_ball_defining_function_and_membership():
    b = pk.Ball(2, center=[1.0, -2.0], radius=3.0)
    assert b.rho([1.0, -2.0]) == -3.0
    assert b.rho([4.0, -2.0]) == 0.0
    assert b.contains([1.0, 0.0])
    assert not b.contains([5.0, -2.0])
    assert b.signed_distance([1.0, 1.0]) == 0.0
    assert b.signed_distance([1.0, -1.0]) == -2.0
    np.testing.assert_allclose(b.rho_grad([4.0, -2.0]), [1.0, 0.0])
    assert b.diameter() == 6.0 and b.bounded()


def test_ball_projection_and_center_tie():
    b = pk.Ball(2)
    foot, nu = b.project_to_boundary([0.5, 0.0])
    np.testing.assert_allclose(foot, [1.0, 0.0])
    np.testing.assert_allclose(nu, [-1.0, 0.0])
    foot, nu = b.project_to_boundary([3.0, 4.0])
    np.testing.assert_allclose(foot, [0.6, 0.8])
    with pytest.raises(pk.ProjectionAmbiguityError):
        b.project_to_boundary([0.0, 0.0])
    foot, _ = b.project_to_boundary([0.0, 0.0], tie_break=[0.0, -2.0])
    np.testing.assert_allclose(foot, [0.0, -1.0])


def test_ball_validation():
    with pytest.raises(pk.InvalidInputError):
        pk.Ball(2, radius=0.0)
    with pytest.raises(pk.InvalidInputError):
        pk.Ball(2, radius=-1.0)
    with pytest.raises(pk.InvalidInputError):
        pk.Ball()


# ---------------------------------------------------------------------------
# halfspaces


def test_halfspace_geometry():
    h = pk.Halfspace(3)
    assert h.rho([0.0, 0.0, 2.0]) == -2.0
    assert h.contains([1.0, 1.0, 0.1])
    assert not h.contains([0.0, 0.0, -0.1])
    assert h.signed_distance([5.0, -2.0, 0.7]) == -0.7
    foot, nu = h.project_to_boundary([3.0, 4.0, 5.0])
    np.testing.assert_allclose(foot, [3.0, 4.0, 0.0])
    np.testing.assert_allclose(nu, [0.0, 0.0, 1.0])
    assert h.diameter() == math.inf and not h.bounded()


# ---------------------------------------------------------------------------
# ellipses


def test_ellipse_feet_against_dense_boundary_sampling():
    a, b = 2.0, 1.0
    theta = np.linspace(0.0, 2.0 * np.pi, 400001)
    boundary = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    rng = np.random.default_rng(1)
    pts = np.stack(
        [rng.uniform(-3.0, 3.0, size=60), rng.uniform(-2.0, 2.0, size=60)], axis=1
    )
    feet, _, dist, _ = _ellipse_feet(pts, a, b)
    on_curve = (feet[:, 0] / a) ** 2 + (feet[:, 1] / b) ** 2 - 1.0
    assert np.abs(on_curve).max() < 1e-12
    for i in range(60):
        brute = np.min(np.hypot(boundary[:, 0] - pts[i, 0], boundary[:, 1] - pts[i, 1]))
        assert dist[i] <= brute + 1e-12
        assert dist[i] == pytest.approx(brute, abs=1e-7)


def test_ellipse_feet_near_major_axis_converge():
    # the regime where the unshifted multiplier iteration loses precision
    pts = np.array([[1.2, 1e-13], [0.8, -1e-9], [-0.5, 1e-6], [1.49, 0.0]])
    feet, _, dist, _ = _ellipse_feet(pts, 2.0, 1.0)
    on_curve = (feet[:, 0] / 2.0) ** 2 + feet[:, 1] ** 2 - 1.0
    assert np.abs(on_curve).max() < 1e-12
    assert np.all(dist > 0.0)


def _ellipse_feet_full_array(P, a, b):
    """The nearest-point solve with every row iterating to the end (reference)."""
    P = np.asarray(P, dtype=float)
    p = np.abs(P[:, 0])
    q = np.abs(P[:, 1])
    sx = np.where(P[:, 0] >= 0.0, 1.0, -1.0)
    sy = np.where(P[:, 1] >= 0.0, 1.0, -1.0)
    fx = np.empty_like(p)
    fy = np.empty_like(q)
    on_axis = q == 0.0
    generic = ~on_axis
    if np.any(on_axis):
        pa = p[on_axis]
        fxa = np.empty_like(pa)
        fya = np.empty_like(pa)
        off = pa < (a * a - b * b) / a
        xo = a * a * pa[off] / (a * a - b * b) if np.any(off) else np.empty(0)
        fxa[off] = xo
        fya[off] = b * np.sqrt(np.maximum(0.0, 1.0 - (xo / a) ** 2))
        fxa[~off] = a
        fya[~off] = 0.0
        fx[on_axis] = fxa
        fy[on_axis] = fya
    if np.any(generic):
        pg = p[generic]
        qg = q[generic]
        shift = a * a - b * b
        u = b * qg
        done = np.zeros(u.shape, dtype=bool)
        for _ in range(100):
            ra = a * pg / (u + shift)
            rb = b * qg / u
            F = ra * ra + rb * rb - 1.0
            dF = -2.0 * (ra * ra / (u + shift) + rb * rb / u)
            step = F / dF
            done |= (np.abs(F) < 1e-13) | (np.abs(step) <= np.finfo(float).eps * u)
            if np.all(done):
                break
            u = np.where(done, u, u - step)
        fx[generic] = a * a * pg / (u + shift)
        fy[generic] = b * b * qg / u
    feet = np.stack([sx * fx, sy * fy], axis=1)
    mirror = np.stack([sx * fx, -sy * fy], axis=1)
    return feet, mirror, np.hypot(p - fx, q - fy), np.hypot(p - fx, q + fy)


def _ellipse_test_points(a, b, rng):
    """Points for the ellipse with semi-axes a >= b along x and y: interior
    points 1e-6 .. 1 below the boundary, exterior points, and points exactly on
    or within 1e-12 of the major axis."""
    theta = rng.uniform(0.0, 2.0 * np.pi, 6000)
    depth = np.minimum(10.0 ** rng.uniform(-6.0, 0.0, 6000), 0.9 * b)
    boundary = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    normal = np.stack([np.cos(theta) / a, np.sin(theta) / b], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    exterior = rng.uniform(-3.0, 3.0, size=(1000, 2)) * [a, b]
    on_axis = np.stack([rng.uniform(-1.2 * a, 1.2 * a, 500), np.zeros(500)], axis=1)
    near_axis = on_axis + [0.0, 1.0] * rng.uniform(-1e-12, 1e-12, (500, 1))
    return np.concatenate([boundary - depth[:, None] * normal, exterior, on_axis, near_axis])


def _assert_bits_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g.view(np.int64), w.view(np.int64))


def test_ellipse_feet_equal_the_full_array_iteration_bit_for_bit(monkeypatch):
    # Converged rows leave the Newton loop early; no row's arithmetic may change.
    rng = np.random.default_rng(9)
    walk_batches = []  # every batch a real walk on the ellipse (2, 1) asks for
    monkeypatch.setattr(
        "poisskern.geometry._ellipse_feet",
        lambda P, a, b: walk_batches.append(P.copy()) or _ellipse_feet(P, a, b),
    )
    pk.run_walks(pk.Ellipse([2.0, 1.0]), [0.5, 0.2], pk.WosConfig(walkers=3000, seed=4, stop_tolerance=1e-4))
    monkeypatch.undo()
    assert len(walk_batches) > 10
    for P in walk_batches + [_ellipse_test_points(2.0, 1.0, rng)]:
        _assert_bits_equal(_ellipse_feet(P, 2.0, 1.0), _ellipse_feet_full_array(P, 2.0, 1.0))
    # swapped axes: the ellipse (1, 3) solves on (y, x) with a = 3, b = 1
    X = _ellipse_test_points(3.0, 1.0, rng)[:, ::-1]
    feet, dist, rival, rival_dist = pk.Ellipse([1.0, 3.0])._nearest(X)
    ref_feet, ref_rival, ref_dist, ref_rival_dist = _ellipse_feet_full_array(X[:, ::-1], 3.0, 1.0)
    _assert_bits_equal(
        [feet[:, ::-1].copy(), dist, rival[:, ::-1].copy(), rival_dist],
        [ref_feet, ref_dist, ref_rival, ref_rival_dist],
    )


def test_row_norms_equal_the_axis1_norm_bit_for_bit():
    # 1 column is the 2-D halfspace's tangential part; from 8 on numpy sums pairwise.
    rng = np.random.default_rng(2)
    for d in range(1, 12):
        V = rng.standard_normal((20000, d)) * 10.0 ** rng.integers(-8, 9, size=(20000, d))
        for rows in (V, V[:1], V[:7], V[::3]):
            _assert_bits_equal([_sum_squares(rows)], [np.sum(rows * rows, axis=1)])
            _assert_bits_equal([_norms(rows)], [np.linalg.norm(rows, axis=1)])


def test_ellipse_on_axis_branches():
    e = pk.Ellipse([2.0, 1.0])
    # beyond the evolute cusp (|x| >= (a^2-b^2)/a = 1.5): vertex is nearest
    foot, _ = e.project_to_boundary([1.7, 0.0])
    np.testing.assert_allclose(foot, [2.0, 0.0])
    # inside the cusp: nearest points leave the axis; a tie across the axis
    with pytest.raises(pk.ProjectionAmbiguityError):
        e.project_to_boundary([0.5, 0.0])
    foot, _ = e.project_to_boundary([0.5, 0.0], tie_break=[0.0, 1.0])
    assert foot[1] > 0.0
    np.testing.assert_allclose(foot, [2.0 / 3.0, np.sqrt(1 - 1.0 / 9.0)], atol=1e-12)
    # center ties across the minor axis
    with pytest.raises(pk.ProjectionAmbiguityError):
        e.project_to_boundary([0.0, 0.0])
    foot, _ = e.project_to_boundary([0.0, 0.0], tie_break=[1.0, -1.0])
    np.testing.assert_allclose(foot, [0.0, -1.0])


def test_ellipse_signed_distance_signs_and_normals():
    e = pk.Ellipse([2.0, 1.0])
    assert e.signed_distance([0.0, 0.5]) == pytest.approx(-0.5)
    assert e.signed_distance([3.0, 0.0]) == pytest.approx(1.0)
    foot, nu = e.project_to_boundary([0.0, 2.0])
    np.testing.assert_allclose(foot, [0.0, 1.0])
    np.testing.assert_allclose(nu, [0.0, -1.0])
    # inward normal is parallel to -grad(rho) at the foot
    foot, nu = e.project_to_boundary([1.9, 0.4])
    g = e.rho_grad(foot)
    np.testing.assert_allclose(nu, -g / np.linalg.norm(g))


def test_ellipse_axis_swap_and_validation():
    tall = pk.Ellipse([1.0, 2.0])
    foot, _ = tall.project_to_boundary([0.0, 1.7])
    np.testing.assert_allclose(foot, [0.0, 2.0])
    with pytest.raises(pk.InvalidInputError):
        pk.Ellipse([1.0, 1.0])
    with pytest.raises(pk.DomainUnsupportedError):
        pk.Ellipse([3.0, 2.0, 1.0])
    with pytest.raises(pk.InvalidInputError):
        pk.Ellipse([2.0, -1.0])


def test_ellipse_parametrization_helpers():
    e = pk.Ellipse([2.0, 1.0])
    np.testing.assert_allclose(e.boundary_point(0.0), [2.0, 0.0])
    np.testing.assert_allclose(e.boundary_point(np.pi / 2), [0.0, 1.0], atol=1e-15)
    assert e.boundary_speed(0.0) == pytest.approx(1.0)  # |(-a sin, b cos)| at 0
    assert e.boundary_speed(np.pi / 2) == pytest.approx(2.0)
    assert e.min_curvature_radius() == pytest.approx(0.5)  # b^2/a
    assert e.diameter() == 4.0


# ---------------------------------------------------------------------------
# implicit domains


def _ellipse_implicit():
    return pk.ImplicitPolynomial(
        {(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0},
        bounding_box=[[-2.5, -1.5], [2.5, 1.5]],
        interior_point=[0.0, 0.0],
    )


def test_implicit_polynomial_matches_exact_ellipse():
    imp = _ellipse_implicit()
    exact = pk.Ellipse([2.0, 1.0])
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(-2.4, 2.4, 25), rng.uniform(-1.4, 1.4, 25)], axis=1)
    # keep clear of the medial axis, where ties are legitimate
    pts = pts[np.abs(pts[:, 1]) > 0.05]
    for p in pts:
        sd_imp = imp.signed_distance(p)
        sd_exact = exact.signed_distance(p)
        assert sd_imp == pytest.approx(sd_exact, abs=1e-9)
        f_imp, n_imp = imp.project_to_boundary(p)
        f_exact, n_exact = exact.project_to_boundary(p)
        np.testing.assert_allclose(f_imp, f_exact, atol=1e-8)
        np.testing.assert_allclose(n_imp, n_exact, atol=1e-8)


def test_implicit_polynomial_gradient_and_hessian_are_exact():
    imp = _ellipse_implicit()
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(imp.rho_grad(x), [0.5 * 0.7, 2.0 * (-0.3)])
    np.testing.assert_allclose(imp.rho_hess(x), [[0.5, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(
        imp.rho_batch(np.array([[0.0, 0.0], [2.0, 0.0]])), [-1.0, 0.0]
    )


def test_implicit_seed_grid_is_flowed_once_and_read_only():
    imp = _ellipse_implicit()
    x = np.array([0.4, 0.2])
    first = imp.signed_distance(x)
    grid = imp._flowed_grid
    assert not grid.flags.writeable
    assert imp.signed_distance(x) == first
    assert imp._flowed_grid is grid
    assert _ellipse_implicit().signed_distance(x) == first


def test_implicit_detects_ambiguous_projection():
    imp = _ellipse_implicit()
    with pytest.raises(pk.ProjectionAmbiguityError):
        imp.project_to_boundary([0.0, 0.0])
    foot, _ = imp.project_to_boundary([0.0, 0.0], tie_break=[0.0, 1.0])
    np.testing.assert_allclose(foot, [0.0, 1.0], atol=1e-9)


def test_implicit_validation():
    with pytest.raises(pk.InvalidInputError):
        pk.Implicit(
            rho=lambda X: np.sum(X * X, axis=1) - 1.0,
            grad=lambda X: 2.0 * X,
            hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
            bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
            interior_point=[5.0, 5.0],  # outside the box
        )
    with pytest.raises(pk.InvalidInputError):
        pk.Implicit(
            rho=lambda X: np.sum(X * X, axis=1) - 1.0,
            grad=lambda X: 2.0 * X,
            hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
            bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
            interior_point=[1.5, 0.0],  # not actually interior
        )
    with pytest.raises(pk.InvalidInputError, match=r"rho must be a batch callable"):
        pk.Implicit(
            rho=lambda X: float(np.sum(X * X) - 1.0),  # one value, not one per row
            grad=lambda X: 2.0 * X,
            hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
            bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
            interior_point=[0.0, 0.0],
        )
    with pytest.raises(pk.InvalidInputError):
        pk.ImplicitPolynomial(
            {(2, 0): 1.0},
            bounding_box=[[0.0, 0.0], [0.0, 1.0]],  # degenerate box
            interior_point=[0.0, 0.5],
        )


def test_implicit_nonconvergence_names_the_point(monkeypatch):
    # Every start of the points with x = -0.7 is made to fail; the error names
    # the first of them.
    newton = pk.Implicit._newton

    def stalls_at_x_minus_0_7(self, P, Y):
        Y, converged = newton(self, P, Y)
        return Y, converged & (P[:, 0] != -0.7)

    monkeypatch.setattr(pk.Implicit, "_newton", stalls_at_x_minus_0_7)
    imp = _ellipse_implicit()
    with pytest.raises(pk.ConvergenceError, match=re.escape("point [-0.7, 0.5] did not converge")):
        imp.signed_distance_batch([[0.5, 0.2], [-0.7, 0.5], [-0.7, 0.4]])


def test_implicit_distance_batch_memory_is_bounded():
    # The point-to-start distance table is built in row blocks, so the peak
    # stays bounded as the batch grows.
    imp = _ellipse_implicit()
    rng = np.random.default_rng(1)
    X = rng.uniform([-2.4, -1.4], [2.4, 1.4], size=(10_000, 2))
    imp.signed_distance_batch(X[:2])  # flows the seed grid outside the measurement
    tracemalloc.start()
    try:
        sd = imp.signed_distance_batch(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(sd))
    assert peak < 64 * 2**20


def test_implicit_ball_in_three_dimensions():
    imp = pk.Implicit(
        rho=lambda X: np.sum(X * X, axis=1) - 1.0,
        grad=lambda X: 2.0 * X,
        hess=lambda X: np.broadcast_to(2.0 * np.eye(3), (len(X), 3, 3)),
        bounding_box=[[-1.5] * 3, [1.5] * 3],
        interior_point=[0.0, 0.0, 0.0],
    )
    sd = imp.signed_distance([0.5, 0.0, 0.0])
    assert sd == pytest.approx(-0.5, abs=1e-9)
    foot, nu = imp.project_to_boundary([0.0, 0.25, 0.0])
    np.testing.assert_allclose(foot, [0.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(nu, [0.0, -1.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# frames and rotations


def test_rotation_to_last_axis_properties():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 4, 6):
        for _ in range(20):
            nu = rng.normal(size=dim)
            nu /= np.linalg.norm(nu)
            Q = pk.rotation_to_last_axis(nu)
            np.testing.assert_allclose(Q @ Q.T, np.eye(dim), atol=1e-12)
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(Q @ nu, np.eye(dim)[-1], atol=1e-12)


def test_rotation_reference_value_on_disc():
    # inward normal (-1, 0) at base (1, 0) maps to +e2 via [[0,1],[-1,0]]
    Q = pk.rotation_to_last_axis(np.array([-1.0, 0.0]))
    np.testing.assert_allclose(Q, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_boundary_frame_construction_and_validation():
    d = pk.Ball(2)
    fr = pk.boundary_frame(d, [1.0, 0.0], 0.1)
    np.testing.assert_allclose(fr.base, [1.0, 0.0])
    np.testing.assert_allclose(fr.inward_normal, [-1.0, 0.0])
    assert fr.epsilon == 0.1
    np.testing.assert_allclose(fr.rotation @ fr.inward_normal, [0.0, 1.0], atol=1e-15)
    with pytest.raises(pk.InvalidInputError):
        pk.boundary_frame(d, [0.5, 0.0], 0.1)  # not a boundary point
    with pytest.raises(pk.InvalidInputError):
        pk.boundary_frame(d, [1.0, 0.0], 0.0)
    with pytest.raises(pk.InvalidInputError):
        pk.boundary_frame(d, [1.0, 0.0], 3.0)  # probe point escapes the domain


def test_off_boundary_base_is_named_by_every_normal_caller():
    d = pk.Ball(2)
    base = [0.5, 0.0]
    frame = pk.BoundaryFrame(
        base=np.array(base), inward_normal=np.array([-1.0, 0.0]),
        rotation=pk.rotation_to_last_axis(np.array([-1.0, 0.0])), epsilon=0.1,
    )
    calls = [
        lambda: pk.boundary_frame(d, base, 0.1),
        lambda: pk.normal_sweep(d, pk.model_kernel(d), base, [0.1], [[1.0, 0.0]]),
        lambda: pk.derivative_report(d, pk.model_kernel(d), base, 0.1, [0.2]),
        lambda: pk.transfer_defining_function(frame, d),
    ]
    for call in calls:
        with pytest.raises(pk.InvalidInputError, match=re.escape("base point [0.5, 0.0] is not on the boundary")):
            call()
    cubed = pk.Implicit(  # (|x|^2 - 1)^3: a disc whose gradient vanishes on the boundary
        rho=lambda X: (np.sum(X * X, axis=1) - 1.0) ** 3,
        grad=lambda X: 6.0 * ((np.sum(X * X, axis=1) - 1.0) ** 2)[:, None] * X,
        hess=lambda X: np.zeros((len(X), 2, 2)),
        bounding_box=[[-1.5, -1.5], [1.5, 1.5]],
        interior_point=[0.0, 0.0],
    )
    with pytest.raises(pk.InvalidInputError, match=re.escape("degenerate gradient at the base point [1.0, 0.0]")):
        inward_normal(cubed, [1.0, 0.0])


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: pk.harmonic_extend(pk.Ball(2), lambda t: np.ones(len(t)), [1.5, 0.0], 64),
         ["x = [1.5, 0.0] must be strictly inside", "signed distance 0.5"]),
        (lambda: pk.kernel_ratio(pk.Ball(2), pk.model_kernel(pk.Ball(2)), [0.0, 1.2], [1.0, 0.0]),
         ["x = [0.0, 1.2] must be strictly inside", "signed distance 0.2"]),
        (lambda: pk.derivative_ratio(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)),
                                     [0.3, -0.1], [0.0, 0.0], 1, [1.0, 0.0]),
         ["x = [0.3, -0.1] must be strictly inside", "signed distance 0.1"]),
        (lambda: pk.halfspace_truncation_tail(2, [0.2, -0.5], 10.0),
         ["x = [0.2, -0.5]", "x_d = -0.5"]),
        (lambda: pk.halfspace_surrogate(pk.boundary_frame(pk.Ball(2), [0.0, -1.0], 0.1),
                                        [0.0, -1.2], [0.0, -1.0]),
         ["x = [0.0, -1.2]", "frame base [0.0, -1.0]", "height -0.2"]),
        (lambda: pk.boundary_quadrature(pk.Halfspace(2), 64), ["got None"]),
        (lambda: pk.Ball(2, center=[1.0, -2.0]).rho_grad([1.0, -2.0]), ["point [1.0, -2.0]"]),
    ],
    ids=["harmonic_extend", "kernel_ratio", "derivative_ratio", "truncation_tail",
         "surrogate", "halfspace_rule", "ball_gradient"],
)
def test_errors_name_the_rejected_input(call, named):
    with pytest.raises(pk.InvalidInputError) as info:
        call()
    for text in named:
        assert text in str(info.value)


def test_boundary_frame_dataclass_validation():
    with pytest.raises(pk.InvalidInputError):
        pk.BoundaryFrame(
            base=np.array([1.0, 0.0]),
            inward_normal=np.array([-2.0, 0.0]),  # not unit
            rotation=np.eye(2),
            epsilon=0.1,
        )
    with pytest.raises(pk.InvalidInputError):
        pk.BoundaryFrame(
            base=np.array([1.0, 0.0]),
            inward_normal=np.array([-1.0, 0.0]),
            rotation=np.eye(2),  # does not send nu to e2
            epsilon=0.1,
        )
    with pytest.raises(pk.InvalidInputError):
        pk.BoundaryFrame(
            base=np.array([1.0, 0.0]),
            inward_normal=np.array([-1.0, 0.0]),
            rotation=np.array([[0.0, 1.0], [1.0, 0.0]]),  # reflection, det -1
            epsilon=0.1,
        )


def test_boundary_frame_on_ellipse_and_implicit():
    e = pk.Ellipse([2.0, 1.0])
    fr = pk.boundary_frame(e, [0.0, 1.0], 0.05)
    np.testing.assert_allclose(fr.inward_normal, [0.0, -1.0], atol=1e-15)
    imp = _ellipse_implicit()
    fri = pk.boundary_frame(imp, [0.0, 1.0], 0.05)
    np.testing.assert_allclose(fri.inward_normal, [0.0, -1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_rule_container():
    nodes = np.array([[1.0, 0.0], [0.0, 1.0]])
    rule = pk.QuadratureRule(nodes=nodes, weights=np.array([0.5, 0.5]), spacing=1.0)
    assert len(rule) == 2
    pairs = list(rule)
    np.testing.assert_allclose(pairs[0][0], [1.0, 0.0])
    assert pairs[1][1] == 0.5
    assert rule.total == 1.0
    with pytest.raises(pk.InvalidInputError):
        pk.QuadratureRule(nodes=nodes, weights=np.array([0.5, -0.5]), spacing=1.0)
    with pytest.raises(pk.DimensionMismatchError):
        pk.QuadratureRule(nodes=nodes, weights=np.array([0.5]), spacing=1.0)


def test_circle_quadrature_exactness():
    d = pk.Ball(2, center=[1.0, 2.0], radius=3.0)
    rule = pk.boundary_quadrature(d, 64)
    assert rule.total == pytest.approx(2 * np.pi * 3.0, rel=1e-15)
    assert np.allclose(np.hypot(rule.nodes[:, 0] - 1.0, rule.nodes[:, 1] - 2.0), 3.0)
    # trapezoid rule on the circle integrates low harmonics exactly
    integral = np.sum(rule.weights * (rule.nodes[:, 0] - 1.0) ** 2)
    assert integral == pytest.approx(np.pi * 3.0**3, rel=1e-13)


def test_sphere_quadrature_exactness():
    b = pk.Ball(3, center=[0.0, 0.0, 1.0], radius=2.0)
    rule = pk.boundary_quadrature(b, 24)
    assert rule.total == pytest.approx(4 * np.pi * 4.0, rel=1e-13)
    # smooth polynomial integrates to its exact surface integral
    z = rule.nodes[:, 2] - 1.0
    assert np.sum(rule.weights * z**2) == pytest.approx(4 * np.pi * 16.0 / 3.0, rel=1e-12)


def test_ellipse_quadrature_perimeter():
    e = pk.Ellipse([2.0, 1.0])
    rule = pk.boundary_quadrature(e, 256)
    assert rule.total == pytest.approx(9.688448220547675, abs=1e-12)
    on_curve = (rule.nodes[:, 0] / 2.0) ** 2 + rule.nodes[:, 1] ** 2 - 1.0
    assert np.abs(on_curve).max() < 1e-14


def test_halfspace_quadrature_requires_truncation():
    h = pk.Halfspace(2)
    with pytest.raises(pk.InvalidInputError):
        pk.boundary_quadrature(h, 64)
    rule = pk.boundary_quadrature(h, 64, truncation=10.0)
    assert rule.total == pytest.approx(20.0, rel=1e-13)
    assert np.all(rule.nodes[:, 1] == 0.0)
    h3 = pk.Halfspace(3)
    rule3 = pk.boundary_quadrature(h3, 32, truncation=5.0)
    assert rule3.total == pytest.approx(np.pi * 25.0, rel=1e-12)


def test_quadrature_resolution_floor_and_unsupported_domains():
    d = pk.Ball(2)
    with pytest.raises(pk.InvalidInputError):
        pk.boundary_quadrature(d, 4)
    with pytest.raises(pk.DomainUnsupportedError):
        pk.boundary_quadrature(_ellipse_implicit(), 64)
    with pytest.raises(pk.DomainUnsupportedError):
        pk.boundary_quadrature(pk.Ball(4), 16)


@pytest.mark.parametrize("n", [8, 9, 64, 65, 1024, 1025, 2048])
def test_gauss_legendre_matches_numpy_and_is_exact(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 2e-16
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    if n % 2:
        assert nodes[n // 2] == 0.0
    assert abs(np.sum(weights) - 2.0) <= 1e-15
    for j in range(min(n, 40)):
        assert abs(np.sum(weights * nodes ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-14


def test_gauss_legendre_is_cached_and_read_only():
    nodes, weights = _gauss_legendre(64)
    again = _gauss_legendre(64)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_halfspace_weights_match_extended_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    n = 2048
    rule = pk.boundary_quadrature(pk.Halfspace(2), n, truncation=1.0)
    with mpmath.workdps(40):
        for i in (0, n // 2):
            # Newton on the recurrence for P_n in 40-digit arithmetic.
            x = mpmath.mpf(float(rule.nodes[i, 0]))
            for _ in range(10):
                p_prev, p = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                dp = n * (x * p - p_prev) / (x * x - 1)
                dx = p / dp
                x -= dx
                if abs(dx) < mpmath.mpf("1e-35"):
                    break
            exact = 2 / ((1 - x * x) * dp * dp)
            assert float(abs(rule.weights[i] - exact) / exact) <= 1e-9


def test_halfspace_quadrature_builds_without_a_dense_matrix():
    # A dense 2048 x 2048 eigenproblem alone would take 32 MB.
    _gauss_legendre.cache_clear()
    tracemalloc.start()
    try:
        rule = pk.boundary_quadrature(pk.Halfspace(2), 2048, truncation=10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rule) == 2048
    assert peak < 4 * 2**20


def test_domain_descriptors_round_trip_core_fields():
    assert pk.Ball(2).descriptor() == {
        "kind": "ball",
        "dim": 2,
        "center": [0.0, 0.0],
        "radius": 1.0,
    }
    assert pk.Halfspace(3).descriptor() == {"kind": "halfspace", "dim": 3}
    desc = pk.Ellipse([2.0, 1.0]).descriptor()
    assert desc["kind"] == "ellipse" and desc["semi_axes"] == [2.0, 1.0]


# ---------------------------------------------------------------------------
# one-point queries are rows of batch queries


def _implicit_disc():
    return pk.Implicit(
        rho=lambda X: X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0,
        grad=lambda X: 2.0 * X,
        hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
        bounding_box=[[-1.5, -1.5], [1.5, 1.5]],
        interior_point=[0.0, 0.0],
    )


def _batch_case(kind):
    """(domain, points, a point whose projection ties or None)."""
    rng = np.random.default_rng(0)
    if kind == "ball":
        return pk.Ball(3, center=[0.0, 1.0, 0.0], radius=2.0), rng.normal(size=(40, 3)), [0.0, 1.0, 0.0]
    if kind == "halfspace":
        return pk.Halfspace(3), rng.normal(size=(40, 3)), None
    if kind == "ellipse":
        X = np.vstack([rng.uniform([-2.5, -1.5], [2.5, 1.5], size=(40, 2)), [[1.7, 0.0], [-3.0, 0.0]]])
        return pk.Ellipse([2.0, 1.0]), X, [0.5, 0.0]
    if kind == "implicit":
        return _implicit_disc(), np.array([[0.3, 0.4], [-0.9, 0.1], [1.2, -0.5]]), [0.0, 0.0]
    # the README's implicit ellipse
    return _ellipse_implicit(), np.array([[0.5, 0.3], [-1.9, -0.2], [1.0, 1.2]]), [0.0, 0.0]


@pytest.mark.parametrize("kind", ["ball", "halfspace", "ellipse", "implicit", "implicit_polynomial"])
def test_one_point_queries_equal_batch_rows(kind):
    domain, X, tied = _batch_case(kind)
    rho = domain.rho_batch(X)
    grad = domain.rho_grad_batch(X)
    sd = domain.signed_distance_batch(X)
    feet, normals = domain.project_batch(X)
    for i, x in enumerate(X):
        assert domain.rho(x) == rho[i]
        np.testing.assert_array_equal(domain.rho_grad(x), grad[i])
        assert domain.contains(x) == (rho[i] < 0.0)
        assert domain.signed_distance(x) == sd[i]
        foot, nu = domain.project_to_boundary(x)
        np.testing.assert_array_equal(foot, feet[i])
        np.testing.assert_array_equal(nu, normals[i])
    if tied is not None:
        with pytest.raises(pk.ProjectionAmbiguityError, match=re.escape(f"point {tied}")):
            domain.project_batch(np.vstack([X[:2], tied]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["ball", "halfspace", "ellipse", "implicit_polynomial"])
def test_non_finite_rows_are_rejected_by_name(kind, bad):
    domain, X, _ = _batch_case(kind)
    X = X[:3].copy()
    X[1, 0] = bad
    named = re.escape(f"points[1] has non-finite coordinates: {X[1].tolist()}")
    for query in (domain.rho_batch, domain.signed_distance_batch, domain.project_batch):
        with pytest.raises(pk.InvalidInputError, match=named):
            query(X)
