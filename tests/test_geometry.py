"""Domains: defining functions, signed distance, projection, frames, quadrature."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import poisskern as pk
from poisskern import geometry
from poisskern.geometry import (
    _distances, _ellipse_feet, _ellipse_quadrant_feet, _gauss_legendre, as_point,
    boundary_distance, boundary_distance_batch, inward_normal,
)


# ---------------------------------------------------------------------------
# point validation


def test_only_domain_writes_the_validating_queries():
    # Subclasses implement the private primitives on validated batches; the
    # public queries, each validating its input once, live in Domain alone.
    public = {"rho_batch", "rho_grad_batch", "signed_distance_batch", "project_batch",
              "signed_distance", "project_to_boundary"}
    subclasses = [c for c in vars(geometry).values()
                  if isinstance(c, type) and issubclass(c, pk.Domain) and c is not pk.Domain]
    assert {c.__name__ for c in subclasses} == {"Ball", "Halfspace", "Ellipse", "Implicit", "ImplicitPolynomial"}
    for cls in subclasses:
        assert not public & set(vars(cls)), cls.__name__


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
    """The nearest-point solve on the full array, converged rows frozen by a mask (reference)."""
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
    # the mirror foot is a rival only inside the evolute
    inside = (a * p) ** (2.0 / 3.0) + (b * q) ** (2.0 / 3.0) < (a * a - b * b) ** (2.0 / 3.0)
    return feet, mirror, np.hypot(p - fx, q - fy), np.where(inside, np.hypot(p - fx, q + fy), np.inf)


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
    # Walk batches, settled walkers and fuzzed points: no row's arithmetic may change.
    rng = np.random.default_rng(9)
    quadrant_batches = []  # the first-quadrant batch a real walk on the ellipse (2, 1) projects
    walk_batches = []  # the walk positions it takes jump radii at
    monkeypatch.setattr(
        "poisskern.geometry._ellipse_quadrant_feet",
        lambda p, q, a, b: quadrant_batches.append(np.stack([p, q], axis=1))
        or _ellipse_quadrant_feet(p, q, a, b),
    )
    radii = pk.Ellipse._jump_radii
    monkeypatch.setattr(
        pk.Ellipse, "_jump_radii",
        lambda self, X: walk_batches.append(np.array(X)) or radii(self, X),
    )
    pk.run_walks(pk.Ellipse([2.0, 1.0]), [0.5, 0.2], pk.WosConfig(walkers=3000, seed=4, stop_tolerance=1e-4))
    monkeypatch.undo()
    # walk steps solve no nearest-point problem; only the settled walkers are projected
    assert len(quadrant_batches) == 1 and len(walk_batches) > 10
    for P in quadrant_batches + walk_batches + [_ellipse_test_points(2.0, 1.0, rng)]:
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
            _assert_bits_equal([_distances(rows, squared=True)], [np.sum(rows * rows, axis=1)])
            _assert_bits_equal([_distances(rows)], [np.linalg.norm(rows, axis=1)])


def test_row_reductions_do_not_depend_on_the_memory_layout():
    # Walks hand domains the transpose of a coordinate-major pool: a Fortran-order
    # batch gives the bits numpy's axis-1 reductions give the same rows in C
    # order, pairwise sums from 8 columns on included.
    rng = np.random.default_rng(3)
    for d in range(1, 13):
        V = rng.standard_normal((3000, d)) * 10.0 ** rng.integers(-8, 9, size=(3000, d))
        p = rng.standard_normal(d)
        F = np.asfortranarray(V)
        for rows in (V, F, F[::2], V[::3]):
            C = np.ascontiguousarray(rows)
            D = C - p
            _assert_bits_equal(
                [_distances(rows, squared=True), _distances(rows),
                 _distances(rows, p, squared=True), _distances(rows, p)],
                [np.sum(C * C, axis=1), np.linalg.norm(C, axis=1), np.sum(D * D, axis=1), np.linalg.norm(D, axis=1)],
            )


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


@pytest.mark.parametrize("axes", [(2.0, 1.0), (0.002, 0.001)])
@pytest.mark.parametrize("q", [5e-324, 1e-310, 1e-306])
def test_ellipse_feet_at_subnormal_heights_lie_on_the_boundary(axes, q):
    # A Newton start b q below the smallest normal float overflows 1 / u, so
    # such heights take the on-axis branch, with no floating-point warning.
    e, a = pk.Ellipse(axes), axes[0]
    P = np.stack([np.linspace(0.0, 1.5 * a, 3001), np.full(3001, q)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        feet, _ = e.project_batch(P, tie_break=[0.0, 1.0])
        assert np.abs(e.rho_batch(feet)).max() <= 1e-13
        assert e.signed_distance([1.7 * a / 2.0, q]) == pytest.approx(-0.15 * a, rel=1e-12)


def test_ellipse_mirror_rival_only_inside_the_evolute():
    e = pk.Ellipse([2.0, 1.0])
    # Beyond the evolute the nearest point is unique: this settled walk point
    # next to the vertex used to raise a false tie with its mirror foot.
    x = [1.9999743341585705, 6.301583975623995e-08]
    foot, _ = e.project_to_boundary(x)
    assert foot[1] > 0.0 and abs(e.rho(foot)) < 1e-13
    _, _, _, mirror_dist = _ellipse_feet(np.array([x, [1.6, 1e-9], [1.0, 0.3]]), 2.0, 1.0)
    assert np.isinf(mirror_dist[:2]).all() and np.isfinite(mirror_dist[2])
    # inside it the mirror foot is a rival, and near the axis a tie
    with pytest.raises(pk.ProjectionAmbiguityError, match=re.escape("point [0.5, 1e-09]")):
        e.project_to_boundary([0.5, 1e-9])


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


def test_implicit_hessian_bounds():
    # The polynomial's bound is the spectral norm of its entrywise bounds,
    # exact for a quadratic with a diagonal Hessian.
    assert _ellipse_implicit().hess_bound == 2.0
    assert _implicit_polynomial_ball3().hess_bound == 2.0
    saddle = pk.ImplicitPolynomial({(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (0, 0): -1.0},
                                   [[-2.0, -2.0], [2.0, 2.0]], [0.0, 0.0])
    assert saddle.hess_bound == pytest.approx(3.0)  # [[2, 1], [1, 2]]
    with pytest.raises(pk.InvalidInputError, match="degree below 2"):
        pk.ImplicitPolynomial({(0, 1): -1.0, (0, 0): -1.0}, [[-2.0, -2.0], [2.0, 2.0]], [0.0, 0.0])
    disc = dict(
        rho=lambda X: np.sum(X * X, axis=1) - 1.0,
        grad=lambda X: 2.0 * X,
        hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
        bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
        interior_point=[0.0, 0.0],
    )
    with pytest.raises(TypeError, match="hess_bound"):
        pk.Implicit(**disc)
    for bad in (0.0, -1.0, math.inf, math.nan, True, "2"):
        with pytest.raises(pk.InvalidInputError, match=re.escape(f"hess_bound must be positive and finite, got {bad!r}")):
            pk.Implicit(**disc, hess_bound=bad)


def _implicit_polynomial_ball3():
    return pk.ImplicitPolynomial(
        {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0},
        bounding_box=[[-1.5] * 3, [1.5] * 3],
        interior_point=[0.0, 0.0, 0.0],
    )


def _implicit_sphere(d):
    coefficients = {tuple(2 * (j == k) for j in range(d)): 1.0 for k in range(d)}
    coefficients[(0,) * d] = -1.0
    return pk.ImplicitPolynomial(coefficients, [[-1.5] * d, [1.5] * d], [0.0] * d)


def test_implicit_sphere_in_eight_dimensions_projects_from_at_most_4096_seeds():
    # The seed grid keeps within 4096 rows through d = 12; in d = 8 it is the 256 box corners.
    for d in range(2, 13):
        assert _implicit_sphere(d)._flowed_grid.shape[0] <= 4096, d
    imp = _implicit_sphere(8)
    assert imp._flowed_grid.shape[0] == 256
    rng = np.random.default_rng(8)
    u = rng.normal(size=(20, 8))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.uniform(0.3, 1.4, 20)
    X = r[:, None] * u
    assert np.max(np.abs(imp.signed_distance_batch(X) - (r - 1.0))) <= 1e-12
    feet, normals = imp.project_batch(X)
    for got, want in ((feet, u), (normals, -u)):  # inward normals
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("kind", ["ball", "halfspace", "ellipse", "swapped_ellipse", "implicit_polynomial",
                                  "implicit_ball3"])
def test_jump_radii_are_inscribed_and_tend_to_the_distance(kind):
    domain = {
        "ball": pk.Ball(3, center=[0.0, 1.0, 0.0], radius=2.0), "halfspace": pk.Halfspace(3),
        "ellipse": pk.Ellipse([2.0, 1.0]), "swapped_ellipse": pk.Ellipse([1.0, 3.0]),
        "implicit_polynomial": _ellipse_implicit(), "implicit_ball3": _implicit_polynomial_ball3(),
    }[kind]
    rng = np.random.default_rng(4)
    X = rng.uniform(-3.0, 3.0, size=(4000, domain.dim))
    inside = domain.rho_batch(X) < 0.0
    X = np.vstack([X[inside][:60], X[~inside][:20]])
    feet, normals = domain.project_batch(X[:60])
    depth = 10.0 ** rng.uniform(-7.0, -3.0, 60)
    near = feet + depth[:, None] * normals  # points at known small depths
    radii = domain._jump_radii(np.vstack([X, near]))
    delta = -domain.signed_distance_batch(X[:60])
    assert np.all(radii[60:80] == 0.0)
    assert np.all((0.0 < radii[:60]) & (radii[:60] <= delta * (1.0 + 1e-12)))
    assert np.all((radii[80:] <= depth * (1.0 + 1e-6)) & (radii[80:] >= depth * (1.0 - 1e-2)))


def _two_reduction_jump_radii(domain, X):
    """Implicit jump radii with the bounding-box distance as two axis-1 ``np.min`` reductions."""
    X = np.ascontiguousarray(X)
    lo, hi = domain.bounding_box
    edge = np.minimum(np.min(X - lo, axis=1), np.min(hi - X, axis=1))
    radii = geometry._inscribed_radii(domain.rho_batch(X), _distances(domain.rho_grad_batch(X)), domain.hess_bound)
    return np.minimum(radii, np.maximum(edge, 0.0))


@pytest.mark.parametrize("kind", ["readme_ellipse", "cut_box_ellipse", "ellipsoid3"])
def test_implicit_jump_radii_equal_the_two_reduction_clip(kind):
    ellipse = {(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0}
    domain = {
        "readme_ellipse": _ellipse_implicit(),
        # A box that cuts the domain: near its x edges the clip binds.
        "cut_box_ellipse": pk.ImplicitPolynomial(ellipse, [[-1.5, -1.5], [1.5, 1.5]], [0.0, 0.0]),
        "ellipsoid3": pk.ImplicitPolynomial({(2, 0, 0): 0.25, (0, 2, 0): 1.0, (0, 0, 2): 1 / 2.25, (0, 0, 0): -1.0},
                                            [[-2.5, -1.5, -2.0], [2.5, 1.5, 2.0]], [0.0, 0.0, 0.0]),
    }[kind]
    lo, hi = domain.bounding_box
    rng = np.random.default_rng(7)
    X = rng.uniform(1.1 * lo, 1.1 * hi, size=(3000, domain.dim))  # rows inside and outside the box
    rows = rng.integers(0, 3000, 400)
    X[rows[:200], rows[:200] % domain.dim] = lo[rows[:200] % domain.dim]  # rows on the box's edge
    X[rows[200:], rows[200:] % domain.dim] = hi[rows[200:] % domain.dim]
    outside = np.any((X < lo) | (X > hi), axis=1)
    assert outside.any() and not outside.all()
    want = _two_reduction_jump_radii(domain, X)
    for layout in (X, np.ascontiguousarray(X.T).T):  # the walk hands over a coordinate-major pool
        got = domain._jump_radii(layout)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.any(want[~outside] > 0.0) and np.all(want[outside] == 0.0)
    unclipped = geometry._inscribed_radii(domain.rho_batch(X), _distances(domain.rho_grad_batch(X)), domain.hess_bound)
    assert np.any(want < unclipped) == (kind == "cut_box_ellipse")  # inside a box, a valid bound never needs it


def test_implicit_polynomial_gradient_and_hessian_are_exact():
    imp = _ellipse_implicit()
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(imp.rho_grad(x), [0.5 * 0.7, 2.0 * (-0.3)])
    np.testing.assert_allclose(imp.rho_hess(x), [[0.5, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(
        imp.rho_batch(np.array([[0.0, 0.0], [2.0, 0.0]])), [-1.0, 0.0]
    )


def _polynomial_tables_written_out(imp, X, rows):
    """Each table row at each point: the sum over its terms, left to right
    from 0.0, of the coefficient times the powers multiplied in axis order."""
    out = np.empty((len(X), len(rows)))
    for i, x in enumerate(X.tolist()):
        for r, row in enumerate(rows):
            total = 0.0
            for c, e in zip(imp._table_coeffs[row].tolist(), imp._table_powers[row].tolist()):
                monomial = 1.0
                for xj, ej in zip(x, e):
                    power = 1.0
                    for _ in range(ej):
                        power = power * xj
                    monomial = monomial * power
                total = total + monomial * c
            out[i, r] = total
    return out


@pytest.mark.parametrize("terms", ["readme_ellipse", "fifteen_terms", "ellipsoid_3d"])
def test_polynomial_tables_are_summed_in_table_order_alone_or_in_a_batch(terms):
    # From 8 terms on, numpy's sum over the term axis of the old monomial
    # table was pairwise for one point and in order for a batch, so a point
    # alone could differ from its batch row in the last bit.
    rng = np.random.default_rng(8)
    if terms == "readme_ellipse":
        imp = _ellipse_implicit()
    elif terms == "fifteen_terms":
        coefficients = {(i, j): float(rng.standard_normal()) * 0.01 for i in range(5) for j in range(5 - i)}
        coefficients.update({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        imp = pk.ImplicitPolynomial(coefficients, [[-2.0, -2.0], [2.0, 2.0]], [0.0, 0.0])
    else:
        imp = pk.ImplicitPolynomial({(2, 0, 0): 0.25, (0, 2, 0): 1.0, (0, 0, 2): 0.5, (1, 1, 0): 0.1, (0, 0, 0): -1.0},
                                    [[-2.5, -1.5, -2.0], [2.5, 1.5, 2.0]], [0.0, 0.0, 0.0])
    d = imp.dim
    X = rng.uniform(-1.0, 1.0, (200, d))
    X[0] = -0.0
    for rows in (slice(0, 1), slice(1, 1 + d), slice(1 + d, None)):
        batch = imp._evaluate(X, rows)
        assert batch.flags.c_contiguous
        want = _polynomial_tables_written_out(imp, X, range(len(imp._table_coeffs))[rows])
        assert batch.tobytes() == want.tobytes()
        alone = np.concatenate([imp._evaluate(x[None, :], rows) for x in X])
        assert alone.tobytes() == batch.tobytes()
    assert np.array([imp.rho(x) for x in X]).tobytes() == imp.rho_batch(X).tobytes()


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
            hess_bound=2.0,
        )
    with pytest.raises(pk.InvalidInputError):
        pk.Implicit(
            rho=lambda X: np.sum(X * X, axis=1) - 1.0,
            grad=lambda X: 2.0 * X,
            hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
            bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
            interior_point=[1.5, 0.0],  # not actually interior
            hess_bound=2.0,
        )
    with pytest.raises(pk.InvalidInputError, match=r"rho returned shape \(\) for 1 points"):
        pk.Implicit(
            rho=lambda X: float(np.sum(X * X) - 1.0),  # one value, not one per row
            grad=lambda X: 2.0 * X,
            hess=lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
            bounding_box=[[-2.0, -2.0], [2.0, 2.0]],
            interior_point=[0.0, 0.0],
            hess_bound=2.0,
        )
    with pytest.raises(pk.InvalidInputError):
        pk.ImplicitPolynomial(
            {(2, 0): 1.0},
            bounding_box=[[0.0, 0.0], [0.0, 1.0]],  # degenerate box
            interior_point=[0.0, 0.5],
        )


# Each callable gives the right shape on the one-row witness and a wrong one on
# larger batches: (its bad shape, its expected shape) for n rows in 2-D.
_BAD_BATCH_SHAPES = {
    "rho": (lambda n: (n, 1), lambda n: (n,)),
    "grad": (lambda n: (n,), lambda n: (n, 2)),
    "hess": (lambda n: (n, 2), lambda n: (n, 2, 2)),
}


@pytest.mark.parametrize("name", list(_BAD_BATCH_SHAPES))
def test_implicit_callables_are_shape_checked_on_every_batch(name):
    good = {
        "rho": lambda X: X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0,
        "grad": lambda X: 2.0 * X,
        "hess": lambda X: np.broadcast_to(2.0 * np.eye(2), (len(X), 2, 2)),
    }
    fine = good[name]
    bad, expected = _BAD_BATCH_SHAPES[name]
    callables = dict(good)
    callables[name] = lambda X: fine(X) if len(X) == 1 else np.resize(fine(X), bad(len(X)))
    domain = pk.Implicit(**callables, bounding_box=[[-1.5, -1.5], [1.5, 1.5]],
                         interior_point=[0.0, 0.0], hess_bound=2.0)
    X = np.array([[0.3, 0.4], [-0.9, 0.1], [1.2, -0.5]])
    queries = {"rho": [domain.rho_batch, domain.signed_distance_batch], "grad": [domain.rho_grad_batch]}
    for query in queries.get(name, []) + [domain.project_batch]:
        with pytest.raises(pk.InvalidInputError) as info:
            query(X)
        got = re.fullmatch(rf"{name} returned shape (\(.*\)) for (\d+) points; expected (\(.*\))", str(info.value))
        assert got, str(info.value)
        n = int(got[2])
        assert n > 1 and got[1] == str(bad(n)) and got[3] == str(expected(n))


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
        hess_bound=2.0,
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
        hess_bound=452.0,  # bounds 6 (r^2 - 1)^2 + 24 (r^2 - 1) r^2 over the box (r^2 <= 4.5)
    )
    on_cubed = pk.BoundaryFrame(base=np.array([1.0, 0.0]), inward_normal=np.array([-1.0, 0.0]),
                                rotation=pk.rotation_to_last_axis(np.array([-1.0, 0.0])), epsilon=0.1)
    for call in (lambda: inward_normal(cubed, [1.0, 0.0]), lambda: pk.transfer_defining_function(on_cubed, cubed)):
        with pytest.raises(pk.InvalidInputError, match=re.escape("degenerate gradient at the base point [1.0, 0.0]")):
            call()


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
        (lambda: pk.normal_sweep(pk.Ball(2), pk.model_kernel(pk.Ball(2)), [1.0, 0.0], [0.1, 2.5], [[0.0, 1.0]]),
         ["x = [-1.5, 0.0] must be strictly inside", "signed distance 0.5"]),
        (lambda: pk.normal_sweep(pk.Ellipse([2.0, 1.0]), lambda x, T: np.ones(len(T)), [0.0, 1.0], [0.5, 3.0],
                                 [[2.0, 0.0]]),
         ["x = [0.0, -2.0] must be strictly inside", "signed distance 1"]),
        # The derivative stencil x +- step * u, step = 1e-6 here, must stay inside
        # the domain and 10 steps clear of every target.
        (lambda: pk.derivative_ratio(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)),
                                     [0, 5e-7], [1, 0], 1, [0, 1]),
         ["x = [0.0, 5e-07]", "delta = 5e-07", "step = 1e-06"]),
        (lambda: pk.derivative_report(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)), [0, 0], 5e-7, [0.0, 1.0]),
         ["probe_height", "delta = 5e-07", "step = 1e-06"]),
        (lambda: pk.derivative_ratio(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)),
                                     [0, 2e-6], [0, 0], 1, [0, 1]),
         ["y = [0.0, 0.0] is too close to x = [0.0, 2e-06]", "1.000e-06"]),
        # Unrefused, the report gave a normal ratio of 0.4244 here against the exact 1/pi.
        (lambda: pk.derivative_report(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)), [0, 0], 2e-6, [0.0]),
         ["targets[0] = [0.0, 0.0] is too close", "probe_height", "1.000e-06"]),
        (lambda: pk.parse_domain_spec('{"kind": "implicit_polynomial", "dim": 2, "coefficients": '
                                      '{"2,0": 1, "0,2": 1, "0,0": -1}, "bounding_box": [[-2, 2], [2, -2]], '
                                      '"interior_point": [0, 0]}'),
         ["bounding_box [[-2.0, 2.0], [2.0, -2.0]]"]),
        (lambda: pk.ImplicitPolynomial({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}, [[-2, -2], [2, 2]], [3, 0]),
         ["interior_point [3.0, 0.0]", "bounding box [[-2.0, -2.0], [2.0, 2.0]]"]),
        (lambda: pk.ImplicitPolynomial({(2, 0): 1.0, (0, 2, 0): 1.0, (0, 0): -1.0}, [[-2, -2], [2, 2]], [0, 0]),
         ["lengths [2, 3]"]),
        # Points that the blow-up maps or steps to are named as the caller's argument.
        (lambda: pk.kernel_pullback(pk.boundary_frame(pk.Halfspace(2), [0, 0], 1e-3), pk.halfspace_kernel(2),
                                    [0, 1e-4], [1e306, 0]),
         ["tau = [1e+306, 0.0] maps to non-finite coordinates [inf, 0.0]"]),
        (lambda: pk.scaled_model_kernel(pk.Ball(2), pk.BoundaryFrame([1, 0], [-1, 0], pk.rotation_to_last_axis([-1, 0]),
                                                                     1e-310)),
         ["center = [0.0, 0.0] maps to non-finite coordinates"]),
        (lambda: pk.derivative_report(pk.Ball(2), pk.model_kernel(pk.Ball(2)), [1, 0], 2.5, [0.1]),
         ["probe_height = 2.5 steps outside the domain from base [1.0, 0.0]"]),
        (lambda: pk.derivative_report(pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)), [1e308, 0], 0.1, [1e308]),
         ["targets[0] has non-finite coordinates: [inf, 0.0]"]),
    ],
    ids=["harmonic_extend", "kernel_ratio", "derivative_ratio", "truncation_tail",
         "surrogate", "halfspace_rule", "ball_gradient", "normal_sweep_disc", "normal_sweep_ellipse",
         "derivative_ratio_stencil_exit", "derivative_report_stencil_exit", "derivative_ratio_target_near",
         "derivative_report_target_near", "spec_bounding_box", "interior_point_outside_box",
         "exponent_lengths", "pullback_tau", "scaled_ball_center", "derivative_report_probe_height",
         "derivative_report_offset_overflow"],
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
    with pytest.raises(pk.DomainUnsupportedError, match="halfspace boundary quadrature .* got d = 4"):
        pk.boundary_quadrature(pk.Halfspace(4), 16, truncation=1.0)


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
        hess_bound=2.0,
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
    inside = X[rho < 0.0]
    delta = boundary_distance_batch(domain, inside)
    assert delta.tolist() == (-sd[rho < 0.0]).tolist()
    assert [boundary_distance(domain, x) for x in inside] == delta.tolist()
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
    # a one-point query prints the point in the same list format
    with pytest.raises(pk.InvalidInputError, match=re.escape(f"point has non-finite coordinates: {X[1].tolist()}")):
        domain.rho(X[1])
