"""Walk-on-spheres exit sampling, cap measures, and kernel-density estimates."""

import copy
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import poisskern as pk
from poisskern import _rng, geometry, harmonic_measure
from poisskern.cli import main


def _cfg(**kw):
    base = dict(walkers=1000, seed=7, stop_tolerance=1e-4)
    base.update(kw)
    return pk.WosConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_wos_config_validation():
    with pytest.raises(pk.InvalidInputError):
        pk.WosConfig(walkers=0, seed=1)
    with pytest.raises(pk.InvalidInputError):
        pk.WosConfig(walkers=10, seed=-1)
    with pytest.raises(pk.InvalidInputError):
        pk.WosConfig(walkers=10, seed=2**64)
    with pytest.raises(pk.InvalidInputError):
        pk.WosConfig(walkers=10, seed=1, stop_tolerance=0.0)
    with pytest.raises(pk.InvalidInputError):
        pk.WosConfig(walkers=10, seed=1, max_steps=0)
    # bool is an int subclass, but True is not a walker count or a seed
    with pytest.raises(pk.InvalidInputError, match="walkers"):
        pk.WosConfig(walkers=True, seed=1)
    with pytest.raises(pk.InvalidInputError, match="seed"):
        pk.WosConfig(walkers=10, seed=True)
    with pytest.raises(pk.InvalidInputError, match="max_steps"):
        pk.WosConfig(walkers=10, seed=1, max_steps=True)
    for stop in (math.inf, math.nan, True):
        with pytest.raises(pk.InvalidInputError, match="stop_tolerance"):
            pk.WosConfig(walkers=10, seed=1, stop_tolerance=stop)
    cfg = pk.WosConfig(walkers=10, seed=1)
    assert cfg.stop_tolerance is None  # resolved per-domain at run time


# ---------------------------------------------------------------------------
# exit sampling


def test_run_walks_deterministic_and_on_boundary():
    d = pk.Ball(2)
    x = np.array([0.3, -0.2])
    feet1, trunc1, steps1 = pk.run_walks(d, x, _cfg())
    feet2, trunc2, steps2 = pk.run_walks(d, x, _cfg())
    assert np.array_equal(feet1, feet2)
    assert np.array_equal(steps1, steps2)
    assert not trunc1.any()
    assert np.abs(np.linalg.norm(feet1, axis=1) - 1.0).max() < 1e-12
    assert steps1.min() >= 1


# (domain, start point, truncation radius) for the batching-invariance tests
WALK_CASES = {
    "disc": (pk.Ball(2), [0.1, 0.55], None),
    "ball3": (pk.Ball(3), [0.1, 0.3, -0.2], None),
    "halfplane": (pk.Halfspace(2), [0.2, 0.7], 20.0),
    "ellipse": (pk.Ellipse([2.0, 1.0]), [0.5, 0.3], None),
    "ball4": (pk.Ball(4), [0.3, 0.2, -0.1, 0.4], None),
    "halfspace3": (pk.Halfspace(3), [0.2, -0.1, 0.7], 20.0),
}


@pytest.mark.parametrize("kind", list(WALK_CASES))
def test_single_walker_matches_batch_row(kind):
    d, x, radius = WALK_CASES[kind]
    feet, _, _ = pk.run_walks(d, x, _cfg(), truncation_radius=radius)
    for idx in (0, 17, 999):
        one, _, _ = pk.run_walks(d, x, _cfg(), truncation_radius=radius, walker_indices=[idx])
        np.testing.assert_array_equal(one[0], feet[idx])
        single = pk.wos_exit(d, x, _cfg(), walker_index=idx, truncation_radius=radius)
        np.testing.assert_array_equal(single, feet[idx])


def test_wos_exit_names_the_truncation_cause():
    h, x, radius = WALK_CASES["halfplane"]
    _, truncated, _ = pk.run_walks(h, x, _cfg(), truncation_radius=radius)
    escaped = int(np.flatnonzero(truncated)[0])
    with pytest.raises(pk.WalkTruncatedError, match="left the truncation ball of radius 20.0"):
        pk.wos_exit(h, x, _cfg(), walker_index=escaped, truncation_radius=radius)


@pytest.mark.parametrize("kind", list(WALK_CASES))
def test_walker_count_independence_of_batching(kind):
    # the first 100 walkers of a 1000-walk batch equal a 100-walk batch, and
    # any subset of walker indices equals the same rows of the full batch
    d, x, radius = WALK_CASES[kind]
    big, _, big_steps = pk.run_walks(d, x, _cfg(walkers=1000), truncation_radius=radius)
    small, _, _ = pk.run_walks(d, x, _cfg(walkers=100), truncation_radius=radius)
    assert np.array_equal(big[:100], small)
    subset = np.arange(3, 1000, 7)
    part, _, part_steps = pk.run_walks(d, x, _cfg(), truncation_radius=radius, walker_indices=subset)
    assert np.array_equal(big[subset], part)
    assert np.array_equal(big_steps[subset], part_steps)


def test_ball4_mean_exit_point_is_the_start():
    # Coordinates are harmonic, so exits average to the start; projecting the
    # stopped walkers onto the sphere moves each coordinate by under the stop
    # tolerance.
    d, x, _ = WALK_CASES["ball4"]
    stop = 1e-3
    feet, truncated, _ = pk.run_walks(d, x, _cfg(walkers=100_000, stop_tolerance=stop))
    assert not truncated.any()
    se = feet.std(axis=0, ddof=1) / math.sqrt(len(feet))
    assert np.all(np.abs(feet.mean(axis=0) - x) <= 3.0 * se + stop)


def test_halfspace3_cap_measure_matches_closed_form():
    # From (0, 0, 1) the unit disc at the origin has harmonic measure
    # 1 - 1/sqrt(2).  A truncated walk never counts as a hit; from the
    # truncation sphere |p| = R the disc's measure is at most
    # (area / 2 pi) * R / (R - 1)^3, which bounds what truncation can remove.
    h, R = pk.Halfspace(3), 20.0
    est = pk.estimate_cap_measure(h, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 1.0, _cfg(walkers=100_000),
                                  truncation_radius=R)
    allowance = est.truncated_walks / est.walkers_used * 0.5 * R / (R - 1.0) ** 3
    exact = 1.0 - 1.0 / math.sqrt(2.0)
    assert exact - 3.0 * est.std_error - allowance <= est.estimate <= exact + 3.0 * est.std_error


def test_run_walks_on_ellipse_lands_on_boundary():
    e = pk.Ellipse([2.0, 1.0])
    feet, trunc, _ = pk.run_walks(e, np.array([0.5, 0.3]), _cfg(walkers=2000))
    assert not trunc.any()
    assert np.abs(e.rho_batch(feet)).max() < 1e-12


def test_implicit_ellipse_cap_measure_matches_ellipse():
    # The README's implicit ellipse against the exact-distance Ellipse, on
    # independent streams: the two cap measures agree within 3 combined SE.
    imp = pk.ImplicitPolynomial(
        {(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0},
        bounding_box=[[-2.5, -1.5], [2.5, 1.5]],
        interior_point=[0.0, 0.0],
    )
    e = pk.Ellipse([2.0, 1.0])
    x, center = [0.5, 0.2], e.boundary_point(1.0)
    cfg = _cfg(walkers=2000, seed=11, stop_tolerance=1e-3)
    feet, truncated, _ = pk.run_walks(imp, x, cfg)
    assert not truncated.any()
    assert np.abs(imp.rho_batch(feet)).max() <= 1e-9
    subset = np.arange(5, 2000, 97)
    part, _, _ = pk.run_walks(imp, x, cfg, walker_indices=subset)
    assert np.array_equal(part, feet[subset])
    got = pk.estimate_cap_measure(imp, x, center, 0.3, cfg)
    want = pk.estimate_cap_measure(e, x, center, 0.3, _cfg(walkers=2000, seed=12, stop_tolerance=1e-3))
    assert abs(got.estimate - want.estimate) <= 3.0 * math.hypot(got.std_error, want.std_error)


def _readme_implicit_ellipse():
    return pk.ImplicitPolynomial(
        {(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0},
        bounding_box=[[-2.5, -1.5], [2.5, 1.5]],
        interior_point=[0.0, 0.0],
    )


def _ellipse_cap_measure_exact(a, b, x, theta0, chord):
    """Harmonic measure from ``x`` of the chordal cap of the ellipse (a > b)
    around ``(a cos theta0, b sin theta0)``, by conformal invariance.

    ``f(z) = m^(1/4) sn((2K/pi) asin(z/c); m)`` maps the ellipse onto the unit
    disc, with foci ``+-c`` and parameter ``m`` fixed by
    ``K(1 - m) / K(m) = (4/pi) artanh(b/a)``; sn of a complex argument is A&S
    16.21.2.  From ``w0 = f(x)`` the arc between ``e^(i alpha1)`` and
    ``e^(i alpha2)`` has measure ``arg((e^(i alpha2) - w0) / (e^(i alpha1) - w0)) / pi
    - (alpha2 - alpha1) / (2 pi)``.
    """
    from scipy.optimize import brentq
    from scipy.special import ellipj, ellipk

    c = math.sqrt(a * a - b * b)
    m = brentq(lambda m: ellipk(1.0 - m) / ellipk(m) - 4.0 / math.pi * math.atanh(b / a), 1e-12, 1.0 - 1e-12,
               xtol=1e-15)
    K = ellipk(m)

    def f(z):
        w = (2.0 * K / math.pi) * np.arcsin(z / c)
        s, cn, dn, _ = ellipj(w.real, m)
        s1, c1, d1, _ = ellipj(w.imag, 1.0 - m)
        return m**0.25 * (s * d1 + 1j * cn * dn * s1 * c1) / (c1 * c1 + m * s * s * s1 * s1)

    def point(theta):
        return a * math.cos(theta) + 1j * b * math.sin(theta)

    center = point(theta0)
    ends = [brentq(lambda t: abs(point(theta0 + sign * t) - center) - chord, 1e-9, 1.0) for sign in (-1.0, 1.0)]
    alpha = np.unwrap(np.angle(f(np.array([point(theta0 - ends[0]), point(theta0), point(theta0 + ends[1])]))))
    w0 = f(np.array([complex(*x)]))[0]
    arc = (np.exp(1j * alpha[2]) - w0) / (np.exp(1j * alpha[0]) - w0)
    return float(np.angle(arc) / math.pi - (alpha[2] - alpha[0]) / (2.0 * math.pi))


def test_ellipse_cap_measure_matches_the_conformal_map():
    # Jump radii from the Hessian bound keep the estimate within 3 SE plus an
    # allowance of 10 stop for the O(stop) boundary layer.  From (1.9, 0), near
    # the vertex, seeds 0 and 3 used to stop on a false projection tie.
    e, stop = pk.Ellipse([2.0, 1.0]), 1e-4
    cases = [([0.5, 0.2], 0.0, [7]), ([1.9, 0.0], 0.05, range(10))]
    for x, theta0, seeds in cases:
        exact = _ellipse_cap_measure_exact(2.0, 1.0, x, theta0, 0.1)
        for seed in seeds:
            est = pk.estimate_cap_measure(e, x, e.boundary_point(theta0), 0.1,
                                          _cfg(walkers=100_000, seed=seed, stop_tolerance=stop))
            assert abs(est.estimate - exact) <= 3.0 * est.std_error + 10.0 * stop, (x, seed, est, exact)


@pytest.mark.parametrize("kind", ["ellipse", "implicit_ellipse"])
def test_no_jump_lands_outside_the_domain(kind, monkeypatch):
    # Every position a walk takes a jump radius at, after the start, is where a
    # jump landed; the radii are certified, so all of them lie inside.
    domain = pk.Ellipse([2.0, 1.0]) if kind == "ellipse" else _readme_implicit_ellipse()
    highest = []
    radii = type(domain)._jump_radii
    monkeypatch.setattr(
        type(domain), "_jump_radii",
        lambda self, X: highest.append(float(self.rho_batch(X).max())) or radii(self, X),
    )
    x, center = [0.5, 0.2], pk.Ellipse([2.0, 1.0]).boundary_point(1.0)
    cfg = _cfg(walkers=100_000, seed=11, stop_tolerance=1e-4)
    est = pk.estimate_cap_measure(domain, x, center, 0.3, cfg)
    monkeypatch.undo()
    assert len(highest) > 50 and max(highest) < 0.0
    assert est.truncated_walks == 0
    if kind == "implicit_ellipse":  # against the Ellipse on independent streams
        want = pk.estimate_cap_measure(pk.Ellipse([2.0, 1.0]), x, center, 0.3, _cfg(walkers=100_000, seed=12))
        assert abs(est.estimate - want.estimate) <= 3.0 * math.hypot(est.std_error, want.std_error)


def test_implicit_ball_in_three_dimensions_matches_ball():
    imp = pk.ImplicitPolynomial(
        {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0},
        bounding_box=[[-1.5] * 3, [1.5] * 3],
        interior_point=[0.0, 0.0, 0.0],
    )
    x, center = [0.1, 0.3, -0.2], [0.0, 0.0, 1.0]
    got = pk.estimate_cap_measure(imp, x, center, 0.5, _cfg(walkers=40_000, seed=11, stop_tolerance=1e-3))
    want = pk.estimate_cap_measure(pk.Ball(3), x, center, 0.5, _cfg(walkers=40_000, seed=12, stop_tolerance=1e-3))
    assert got.truncated_walks == 0
    assert abs(got.estimate - want.estimate) <= 3.0 * math.hypot(got.std_error, want.std_error)


def test_settled_implicit_feet_fall_back_to_the_full_projection(monkeypatch):
    # The feet of settled walkers come from one Newton solve started at each
    # settled point.  Where it fails (made to here for x < 0), the row takes
    # the multi-start projection instead and lands on the same foot.
    imp, x = _readme_implicit_ellipse(), [0.5, 0.2]
    cfg = _cfg(walkers=300, stop_tolerance=1e-3)
    want, _, _ = pk.run_walks(imp, x, cfg)
    newton, project = pk.Implicit._newton, pk.Implicit._project
    projected = []

    def fails_left_from_the_point_itself(self, P, Y):
        single_start = np.array_equal(P, Y)
        Y, converged = newton(self, P, Y)
        return Y, converged & ~(single_start & (P[:, 0] < 0.0))

    monkeypatch.setattr(pk.Implicit, "_newton", fails_left_from_the_point_itself)
    monkeypatch.setattr(pk.Implicit, "_project",
                        lambda self, X, tie_break: projected.append(np.array(X)) or project(self, X, tie_break))
    feet, truncated, _ = pk.run_walks(imp, x, cfg)
    assert not truncated.any()
    assert len(projected) == 1 and np.all(projected[0][:, 0] < 0.0)
    assert len(projected[0]) == np.count_nonzero(want[:, 0] < 0.0)
    np.testing.assert_allclose(feet, want, atol=1e-12)
    assert np.abs(imp.rho_batch(feet)).max() <= 1e-11  # the Newton residual tolerance, 1e-12 max(1, |x|)


@pytest.mark.parametrize("domain, x, radius", [
    (pk.Ball(2), [0.3, 0.2], None),
    (pk.Halfspace(2), [0.2, 0.7], 20.0),
    (pk.Ellipse([2.0, 1.0]), [0.5, 0.3], None),
], ids=["disc", "halfplane", "ellipse"])
def test_walks_validate_only_their_origin(domain, x, radius, monkeypatch):
    # The walk calls the geometry primitives on the pool it already holds as
    # floats: only the origin passes the input checks (as_point and contains).
    rows, to_floats = [], geometry._float_array

    def counted(a, name):
        out = to_floats(a, name)
        rows.append(np.atleast_2d(out).shape[0])
        return out

    monkeypatch.setattr(geometry, "_float_array", counted)
    pk.run_walks(domain, x, _cfg(walkers=100_000, seed=7, stop_tolerance=1e-4), truncation_radius=radius)
    assert 0 < sum(rows) <= 2


def test_run_walks_validation():
    d = pk.Ball(2)
    with pytest.raises(pk.InvalidInputError):
        pk.run_walks(d, np.array([1.5, 0.0]), _cfg())  # exterior start
    h = pk.Halfspace(2)
    with pytest.raises(pk.InvalidInputError):
        pk.run_walks(h, np.array([0.0, 1.0]), pk.WosConfig(walkers=8, seed=1))
    with pytest.raises(pk.InvalidInputError):
        pk.run_walks(h, np.array([0.0, 1.0]), _cfg())  # unbounded: needs truncation
    # a negative index would wrap onto another walker's stream
    x = np.array([0.3, 0.1])
    with pytest.raises(pk.InvalidInputError, match="walker index -1"):
        pk.wos_exit(d, x, _cfg(), -1)
    with pytest.raises(pk.InvalidInputError, match="walker index -3"):
        pk.run_walks(d, x, _cfg(), walker_indices=[0, -3, 2])


@pytest.mark.parametrize("kind, x, truncation, stop", [
    ("disc", [0.0, 0.5], None, 1.0),
    ("ellipse", [1.9, 0.0], None, 0.1),
    ("halfplane", [0.0, 1.0], 20.0, 50.0),
])
def test_walks_may_not_start_inside_their_stop_shell(kind, x, truncation, stop):
    # Every walker would settle where it starts: the disc and halfplane cases
    # used to give a cap estimate of 1.0 with standard error 0.0.
    domain = WALK_CASES[kind][0]
    radius = float(domain._jump_radii(np.array([x]))[0])
    assert radius < stop
    for s in (stop, radius):
        named = re.escape(
            f"stop_tolerance {s!r} is not below the jump radius {radius!r} at the walk origin "
            f"x = {x}: every walker would settle where it starts"
        )
        with pytest.raises(pk.InvalidInputError, match=named):
            pk.run_walks(domain, x, _cfg(walkers=10, stop_tolerance=s), truncation_radius=truncation)
    _, _, steps = pk.run_walks(domain, x, _cfg(walkers=10, stop_tolerance=0.5 * radius), truncation_radius=truncation)
    assert steps.min() >= 1


def test_walker_indices_must_be_integers():
    # A fractional index used to be truncated onto another walker's stream.
    d, x = pk.Ball(2), np.array([0.3, 0.1])
    for bad, named in (([1.7], "1.7"), ([0, 2.5], "2.5"), ([True], "True"), ([np.float64(2.0)], "2.0")):
        with pytest.raises(pk.InvalidInputError, match=f"walker index .*{re.escape(named)}.* is not an integer"):
            pk.run_walks(d, x, _cfg(), walker_indices=bad)
    for bad in (2.9, True):
        with pytest.raises(pk.InvalidInputError, match=f"walker index {bad} is not an integer"):
            pk.wos_exit(d, x, _cfg(), bad)
    with pytest.raises(pk.InvalidInputError, match=r"1-D sequence, got shape \(1, 2\)"):
        pk.run_walks(d, x, _cfg(), walker_indices=[[1, 2]])
    feet, _, _ = pk.run_walks(d, x, _cfg(walkers=3))
    one, _, _ = pk.run_walks(d, x, _cfg(), walker_indices=np.array([2], dtype=np.uint32))
    assert np.array_equal(one[0], feet[2])
    assert np.array_equal(pk.wos_exit(d, x, _cfg(), np.int64(2)), feet[2])


def test_walker_indices_beyond_int64_are_rejected():
    # Indices are carried as int64; a larger one used to escape as a raw OverflowError.
    d, x = pk.Ball(2), np.array([0.3, 0.1])
    for bad in ([2**64], [0, np.uint64(2**63)], [2**63]):
        with pytest.raises(pk.InvalidInputError, match=f"walker index {bad[-1]} is too large"):
            pk.run_walks(d, x, _cfg(), walker_indices=bad)
    with pytest.raises(pk.InvalidInputError, match=f"walker index {2**63} is too large"):
        pk.wos_exit(d, x, _cfg(), 2**63)
    feet, _, _ = pk.run_walks(d, x, _cfg(), walker_indices=[2**63 - 1])
    assert np.array_equal(feet[0], pk.wos_exit(d, x, _cfg(), np.uint64(2**63 - 1)))


def _index_outcome(indices):
    """The validated int64 indices, or the error text."""
    try:
        return harmonic_measure._walker_indices(indices)
    except pk.InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("entries, dtypes", [
    ([0, 5, 3, 2**40], (np.int64, np.uint64)),
    ([7, 0, 200], (np.int16, np.int32, np.uint8, np.uint16, np.uint32)),
    ([], (np.int64, np.uint64)),
    ([4, -3, 2, -9], (np.int8, np.int64)),
    ([1, 2**63, 3, 2**64 - 1], (np.uint64,)),
    ([True, False], (bool,)),
])
def test_walker_index_arrays_and_lists_agree(entries, dtypes):
    # Integer arrays and lists give the same indices, or the same error
    # naming the first bad entry.
    want = _index_outcome(entries)
    for dtype in dtypes:
        got = _index_outcome(np.array(entries, dtype=dtype))
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist()
    # a range keeps its entries lazily when its ends are in bounds, and names
    # its first bad entry like a list when they are not
    top = range(2**63 - 3, 2**63)  # its stop does not fit int64
    for r in (range(0), range(3, 40, 7), range(39, 2, -7), range(5, 6, 2**70), top, range(-2, 5),
              range(2**63 - 2, 2**63 + 1)):
        got, want = _index_outcome(r), _index_outcome(list(r))
        assert got == want if isinstance(want, str) else list(got) == want.tolist()
    d, x = pk.Ball(2), [0.3, 0.1]
    for r in (range(39, 2, -7), range(5, 6, 2**70), top):
        walks = [pk.run_walks(d, x, _cfg(), walker_indices=ix) for ix in (r, list(r))]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*walks))
    assert len({tuple(foot) for foot in walks[0][0]}) == 3


def test_truncation_radius_validation():
    # A bad radius used to truncate every walk (or, for NaN and inf, none).
    h, x = pk.Halfspace(2), np.array([0.0, 1.0])
    for bad in (-3.0, 0.0, math.nan, math.inf, True, "5"):
        named = f"truncation_radius must be positive and finite, got {re.escape(repr(bad))}"
        with pytest.raises(pk.InvalidInputError, match=named):
            pk.run_walks(h, x, _cfg(), truncation_radius=bad)
        with pytest.raises(pk.InvalidInputError, match=named):
            pk.WosKernel(h, _cfg(), cap_radius=0.1, truncation_radius=bad)
    with pytest.raises(pk.InvalidInputError, match=r"origin \[0.0, 1.0\] lies outside the truncation ball of radius 0.5"):
        pk.run_walks(h, x, _cfg(), truncation_radius=0.5)
    with pytest.raises(pk.InvalidInputError, match="outside the truncation ball"):
        pk.estimate_cap_measure(h, x, [0.0, 0.0], 0.5, _cfg(), truncation_radius=0.9)
    with pytest.raises(pk.InvalidInputError, match="outside the truncation ball"):
        pk.WosKernel(h, _cfg(), cap_radius=0.1, truncation_radius=0.9)(x, [0.0, 0.0])
    # a bounded domain takes a truncation radius too, of any real type; the
    # origin may sit on the truncation sphere
    for radius in (np.float64(1.0), 1, np.int32(3)):
        feet, truncated, _ = pk.run_walks(pk.Ball(2, radius=2.0), [1.0, 0.0], _cfg(walkers=20), radius)
        assert feet.shape == (20, 2) and truncated.dtype == bool


def test_mixed_truncations_equal_one_walker_runs():
    # A small truncation ball and step budget retire walkers for both causes in
    # the same steps; each row still equals the walk run on its own.
    h, x = pk.Halfspace(2), [0.2, 0.7]
    cfg = _cfg(walkers=300, stop_tolerance=1e-3, max_steps=12)
    feet, truncated, steps = pk.run_walks(h, x, cfg, truncation_radius=2.0)
    budget = truncated & (steps == cfg.max_steps)
    assert budget.any() and (truncated & ~budget).any() and (~truncated).any()
    rows = [pk.run_walks(h, x, cfg, truncation_radius=2.0, walker_indices=[i]) for i in range(cfg.walkers)]
    assert np.array_equal(feet, np.concatenate([r[0] for r in rows]))
    assert np.array_equal(truncated, np.concatenate([r[1] for r in rows]))
    assert np.array_equal(steps, np.concatenate([r[2] for r in rows]))


def _reference_signed_distance(domain, X):
    """Signed distances of balls and halfspaces, in closed form."""
    if isinstance(domain, pk.Ball):
        return np.linalg.norm(X - domain.center, axis=1) - domain.radius
    return -X[:, -1]


def _reference_jump_radii(domain, X):
    """Jump radii as the walk takes them: on ellipses the positive root r of
    rho + |grad rho| r + M r^2 / 2 with M = 2 / min(a, b)^2, written as
    -2 rho / (|grad rho| + sqrt(|grad rho|^2 - 2 M rho)); on implicit domains
    the same root with M = hess_bound, clipped to the distance from the
    bounding-box edge; on balls and halfspaces the boundary distance."""
    if isinstance(domain, (pk.Ellipse, pk.Implicit)):
        s = np.maximum(-domain.rho_batch(X), 0.0)
        g = np.linalg.norm(domain.rho_grad_batch(X), axis=1)
        M = domain.hess_bound if isinstance(domain, pk.Implicit) else 2.0 / min(domain.semi_axes) ** 2
        r = 2.0 * s / (g + np.sqrt(g * g + 2.0 * M * s))
        if isinstance(domain, pk.Implicit):
            lo, hi = domain.bounding_box
            r = np.minimum(r, np.maximum(np.minimum((X - lo).min(axis=1), (hi - X).min(axis=1)), 0.0))
        return r
    return np.maximum(-_reference_signed_distance(domain, X), 0.0)


def _reference_walks(domain, x, config, truncation_radius=None):
    """The walk loop written plainly: boolean masks, fresh C-order arrays every
    step, and every leaving walker's truncation cause written out.  The settle
    and leave rule runs after each of the ``max_steps`` jumps as well as before
    the first."""
    n, dim = config.walkers, domain.dim
    keys = _rng.stream_keys(config.seed, np.arange(n))
    pos = np.tile(np.asarray(x, dtype=float), (n, 1))
    final = np.empty((n, dim))
    truncated = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for it in range(config.max_steps + 1):
        if active.size == 0:
            break
        delta = _reference_jump_radii(domain, pos)
        settled = delta < config.stop_tolerance
        outside = np.zeros(active.size, dtype=bool)
        if truncation_radius is not None:
            outside = np.linalg.norm(pos, axis=1) > truncation_radius
        leave = settled | outside
        final[active[leave]] = pos[leave]
        truncated[active[leave]] = outside[leave] & ~settled[leave]
        steps[active[leave]] = it
        active, keys, pos, delta = active[~leave], keys[~leave], pos[~leave], delta[~leave]
        if it == config.max_steps:
            break
        directions = _rng.sphere_directions(keys, it * _rng.draws_per_step(dim), dim)
        pos = np.add(pos, delta[:, None] * directions, order="C")
    final[active] = pos
    truncated[active] = True
    steps[active] = config.max_steps
    feet = final.copy()
    # Implicit feet come from one Newton solve started at each settled point,
    # here in one call over all settled walkers.
    settle = domain._settled_feet if isinstance(domain, pk.Implicit) else lambda X: domain.project_batch(X)[0]
    feet[~truncated] = settle(final[~truncated])
    return feet, truncated, steps


@pytest.mark.parametrize("kind,x,radius,config", [
    ("disc", [0.1, 0.55], None, {}),
    ("ball3", [0.1, 0.3, -0.2], None, {}),
    ("halfplane", [0.2, 0.7], 2.0, {"max_steps": 12}),
    # walkers that settle outside the truncation ball: settling wins
    ("halfplane", [1.9, 0.3], 2.0, {"max_steps": 12, "stop_tolerance": 0.05}),
    ("ellipse", [0.5, 0.3], None, {}),
    ("ellipse", [0.5, 0.3], None, {"max_steps": 6}),
    ("swapped_ellipse", [0.2, -0.5], None, {}),
])
def test_run_walks_equal_the_plain_reference_loop_bit_for_bit(kind, x, radius, config):
    domain = {"disc": pk.Ball(2), "ball3": pk.Ball(3), "halfplane": pk.Halfspace(2),
              "ellipse": pk.Ellipse([2.0, 1.0]), "swapped_ellipse": pk.Ellipse([1.0, 3.0])}[kind]
    cfg = _cfg(walkers=2000, **config)
    got = pk.run_walks(domain, x, cfg, truncation_radius=radius)
    want = _reference_walks(domain, x, cfg, truncation_radius=radius)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g.view(np.int64), w.view(np.int64))
    feet, truncated, steps = got
    if cfg.max_steps < 100:  # both truncation causes where there is a truncation ball
        assert (truncated & (steps == cfg.max_steps)).any() and (~truncated).any()
        assert radius is None or (truncated & (steps < cfg.max_steps)).any()
    if cfg.stop_tolerance > 0.01:
        assert (~truncated & (np.linalg.norm(feet, axis=1) > radius + cfg.stop_tolerance)).any()


PINNED_WALKS = {
    "disc": (pk.Ball(2), [0.5, 0.2], None),
    "ball3": (pk.Ball(3), [0.5, 0.2, 0.1], None),
    "halfplane": (pk.Halfspace(2), [0.5, 0.2], 20.0),
    "ellipse": (pk.Ellipse([2.0, 1.0]), [0.5, 0.2], None),
}
PINNED_DIGESTS = {
    # sha256 of run_walks' (feet, truncated, steps) bytes, 2e4 walkers, seed 1, stop 1e-4
    "disc": "51ee9940ae678ec2fbd0db313e3503a3df4cfbb7520eb457a21701100f3901bf",
    "disc max_steps=9": "370a494da6ddb9b7895badeebf3dbe4d952a6c96ddc7f186e411222c97ac928e",
    "ball3": "eb71c9d8d6a54c57cd8b65475b97b274b753024e7611a8521ebc515f55f64801",
    "ball3 max_steps=9": "812ddb4486f12b4b77fbf076f76ae82dd0c8c8940b68a127a06d38858f66d73b",
    "halfplane": "353a3d9e2a876ea61f760091d056fc376954735895005cd88c35f84e1d134bff",
    "halfplane max_steps=9": "d9bcf4581f2ba826b36db3532036b936041439a2a54bad6b114e74e7baeb6937",
    "ellipse": "fe46c161f1edb0a06644cc3b4ab413489d13d0fe90e745e65ca23f5e700b1f95",
    "ellipse max_steps=9": "bb610c4c57ec610263f8122a6e027396a5819e4297e91deab8c6baceda64be3c",
    # sha256 of sphere_directions' bytes on 4096 streams of seed 1
    "directions d=2 index 0": "b8bec211b4520e401d7c797953abc3f5b5d9d9f0fc04858be2bf7c4aabf1a34d",
    "directions d=2 per-row": "b5a9c022dc093771233ad7ab56262c7899dd0b5a2e2ad61940df67f149c3801c",
    "directions d=3 index 0": "ae2dc1a7c35bfdd0c0201bfbdf48d24966eaf466081de58f10fd19199589d47a",
    "directions d=3 per-row": "322dcb16cb3b1a6040d6323eccd211086fb91968f9b2b0a99f360ab07539ab31",
}


def _walk_bit_digests() -> dict:
    digests = {}
    for kind, (domain, x, radius) in PINNED_WALKS.items():
        for label, extra in ((kind, {}), (f"{kind} max_steps=9", {"max_steps": 9})):
            cfg = _cfg(walkers=20_000, seed=1, **extra)
            walks = pk.run_walks(domain, x, cfg, truncation_radius=radius)
            digests[label] = hashlib.sha256(b"".join(a.tobytes() for a in walks)).hexdigest()
    keys = _rng.stream_keys(1, np.arange(4096))
    for dim in (2, 3):
        per_row = (np.arange(4096) % 13) * _rng.draws_per_step(dim)
        for label, base in (("index 0", 0), ("per-row", per_row)):
            directions = _rng.sphere_directions(keys, base, dim)
            digests[f"directions d={dim} {label}"] = hashlib.sha256(directions.tobytes()).hexdigest()
    return digests


def test_walk_bits_match_the_digests_pinned_at_530d64c():
    """Walk and direction bits equal those of commit 530d64c.

    The other reference tests compare two code paths of one commit; these
    digests hold the bits fixed across commits.  They cover d <= 3 on the
    disc, the 3-D ball, the truncated halfplane and the ellipse, whose walks
    use only +, -, *, /, sqrt and the import-time ``math.cos``/``math.sin``
    table, so they do not depend on a CPU's SIMD paths (d >= 4 draws through
    ``log1p``, implicit domains solve through LAPACK).  A change that moves
    walk bits re-pins these digests and declares the change, as ROADMAP aim 1
    asks of a speedup that changes report bytes.
    """
    assert _walk_bit_digests() == PINNED_DIGESTS


POOL = harmonic_measure._POOL
POOL_CASES = {
    "disc": (pk.Ball(2), [0.1, 0.55], None),
    "ball3": (pk.Ball(3), [0.1, 0.3, -0.2], None),
    "halfplane": (pk.Halfspace(2), [0.2, 0.7], 2.0),
    "ellipse": (pk.Ellipse([2.0, 1.0]), [0.5, 0.3], None),
    "ball5": (pk.Ball(5), [0.1, 0.3, -0.2, 0.1, 0.0], None),  # Box-Muller directions
    # pairwise row sums, which must reduce C-order rows of the coordinate-major pool
    "ball9": (pk.Ball(9), [0.1, 0.3, -0.2, 0.1, 0.0, 0.2, -0.1, 0.05, 0.1], None),
}
# A 9-D walk from the middle takes about 86 jumps to come within 1e-4 of the
# sphere; at 1e-2 walks settle within the 12-jump budget, on its last jump too.
POOL_STOP = {"ball9": 1e-2}


@pytest.mark.parametrize("walkers", [POOL - 1, POOL, POOL + 1, 2 * POOL + 3])
@pytest.mark.parametrize("kind", list(POOL_CASES))
def test_pooled_walks_equal_the_reference_loop_and_their_subsets(kind, walkers):
    # Walks run in a pool of POOL walkers refilled from the queue as walkers
    # retire.  Around and beyond one pool, every row still equals the plain
    # loop over all walkers at once and the same walker run in any subset.
    # The budget of 12 jumps ends walks admitted by refills too, some of them
    # settling on their last allowed jump, which must not count as truncated.
    domain, x, radius = POOL_CASES[kind]
    cfg = _cfg(walkers=walkers, max_steps=12, stop_tolerance=POOL_STOP.get(kind, 1e-4))
    got = pk.run_walks(domain, x, cfg, truncation_radius=radius)
    want = _reference_walks(domain, x, cfg, truncation_radius=radius)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    feet, truncated, steps = got
    last = steps == cfg.max_steps
    refilled = np.arange(walkers) >= POOL
    if refilled.sum() > 1000:
        assert (refilled & last & truncated).any() and (refilled & last & ~truncated).any()
    subset = np.r_[walkers - 1 : 0 : -5, 0]  # reversed, and straddling every refill
    part = pk.run_walks(domain, x, cfg, truncation_radius=radius, walker_indices=subset)
    for g, p in zip(got, part):
        assert g[subset].tobytes() == p.tobytes()


def test_plain_implicit_walks_equal_the_polynomial_walks():
    # Jump radii take rho and its gradient from the user's callables, two
    # calls per step: wrapped as a plain Implicit, the README polynomial
    # walks bit for bit the same.
    poly = _readme_implicit_ellipse()
    plain = pk.Implicit(poly.rho_batch, poly.rho_grad_batch,
                        lambda X: np.array([poly.rho_hess(x) for x in X]).reshape(-1, 2, 2),
                        poly.bounding_box, poly.interior_point, poly.hess_bound)
    cfg = _cfg(walkers=3000, seed=4, stop_tolerance=1e-4)
    got = pk.run_walks(plain, [0.5, 0.2], cfg)
    want = pk.run_walks(poly, [0.5, 0.2], cfg)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_pooled_implicit_walks_equal_the_reference_loop_and_their_subsets():
    # The README implicit ellipse over two refills of the pool: with every
    # walk settled, its walkers are projected in three blocks, whose feet must
    # be those of one settle over all of them.
    domain, x, walkers = _readme_implicit_ellipse(), [0.5, 0.3], 2 * POOL + 3
    cfg = _cfg(walkers=walkers, stop_tolerance=1e-3)
    got = pk.run_walks(domain, x, cfg)
    want = _reference_walks(domain, x, cfg)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    feet, truncated, _ = got
    assert not truncated.any()
    assert np.abs(domain.rho_batch(feet)).max() <= 1e-11
    subset = np.r_[walkers - 1 : 0 : -5, 0]
    part = pk.run_walks(domain, x, cfg, walker_indices=subset)
    for g, p in zip(got, part):
        assert g[subset].tobytes() == p.tobytes()


SETTLE_CASES = {
    **{kind: POOL_CASES[kind] for kind in ("disc", "ball3", "halfplane", "ellipse")},
    "implicit_ellipse": (_readme_implicit_ellipse(), [0.5, 0.3], None),
}


@pytest.mark.parametrize("kind", list(SETTLE_CASES))
def test_settled_walkers_are_projected_in_pool_sized_blocks(kind, monkeypatch):
    # Every settled walker goes through _settled_feet exactly once, in order,
    # in blocks of at most POOL rows; truncated walkers never do.
    domain, x, radius = SETTLE_CASES[kind]
    batches, settle = [], type(domain)._settled_feet
    monkeypatch.setattr(type(domain), "_settled_feet",
                        lambda self, X: batches.append(X.copy()) or settle(self, X))
    cfg = _cfg(walkers=2 * POOL + 3, max_steps=12, stop_tolerance=1e-2)
    feet, truncated, _ = pk.run_walks(domain, x, cfg, truncation_radius=radius)
    monkeypatch.undo()
    settled = int((~truncated).sum())
    assert truncated.any() and settled > POOL
    assert [len(X) for X in batches] == [POOL] * (settled // POOL) + [settled % POOL]
    assert settle(domain, np.concatenate(batches)).tobytes() == feet[~truncated].tobytes()


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _result_bytes(dim, walkers):
    """What run_walks holds per walker: a float foot, a truncation flag and an int64 step count."""
    return (8 * dim + 9) * walkers


# What a walk allocates beyond its results, whatever its walker count: the
# pool, its temporaries and the settle's.  Measured at 2.4-2.8 MB on the exact
# domains and 11.0 MB on the implicit ellipse, whose Newton solves hold more per row.
POOL_ALLOWANCE_MB = {"disc": 3.2, "ball3": 3.2, "ellipse": 3.2, "implicit_ellipse": 12}


@pytest.mark.parametrize("kind", list(POOL_ALLOWANCE_MB))
def test_a_walk_allocates_little_beyond_its_results(kind):
    # The walk's temporaries are pool-sized, the settle's and the stream keys'
    # included: 1e5 walkers allocate their results and the pool allowance.
    domain, x, _ = SETTLE_CASES[kind]
    cfg = _cfg(walkers=100_000, stop_tolerance=1e-4)
    (feet, truncated, _), peak = _traced_peak(lambda: pk.run_walks(domain, x, cfg))
    assert not truncated.any()
    limit = _result_bytes(domain.dim, cfg.walkers) + POOL_ALLOWANCE_MB[kind] * 1e6
    assert peak < limit, f"{peak / 1e6:.2f} MB against {limit / 1e6:.2f} MB"


@pytest.mark.parametrize("kind", ["disc", "ball3", "ellipse"])
def test_a_walk_holds_only_its_results_per_walker(kind):
    # Stream keys are derived a pool's worth ahead of the queue, so 1e5 more
    # walkers add their results and nothing else: no index or key array per
    # walker, and no temporaries of the key derivation over all of them.
    domain, x, _ = SETTLE_CASES[kind]
    peaks = [_traced_peak(lambda: pk.run_walks(domain, x, _cfg(walkers=n)))[1] for n in (100_000, 200_000)]
    per_walker = (peaks[1] - peaks[0]) / 100_000
    assert per_walker <= 1.1 * _result_bytes(domain.dim, 1), f"{per_walker:.1f} B per walker"


def test_an_estimate_holds_one_chunk_whatever_its_walker_count():
    # The estimators walk _CHUNK walkers at a time and keep only counts, so
    # four chunks peak where one does.
    domain, x, _ = SETTLE_CASES["disc"]
    chunk = harmonic_measure._CHUNK
    peaks = [
        _traced_peak(lambda: pk.estimate_cap_measure(domain, x, [1.0, 0.0], 0.3, _cfg(walkers=n)))[1]
        for n in (chunk, 4 * chunk)
    ]
    assert peaks[1] - peaks[0] <= 1.5e6, [f"{p / 1e6:.2f} MB" for p in peaks]


# The chunk arithmetic does not depend on the chunk size: a small chunk that is
# not a whole number of pools puts chunk ends mid-pool and keeps the tests quick.
CHUNK = POOL + 5


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(harmonic_measure, "_CHUNK", CHUNK)


CHUNK_CASES = {
    "disc": (pk.Ball(2), [0.1, 0.55], [[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]], 0.3, None),
    "ball3": (pk.Ball(3), [0.1, 0.3, -0.2], [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [1.0, 0.0, 0.0]], 0.5, None),
    "ellipse": (pk.Ellipse([2.0, 1.0]), [0.5, 0.3],
                [pk.Ellipse([2.0, 1.0]).boundary_point(t) for t in (0.4, 1.5, 3.0)], 0.3, None),
    # R = 20 truncates some walks
    "halfplane": (pk.Halfspace(2), [0.2, 0.7], [[0.0, 0.0], [1.0, 0.0], [-3.0, 0.0]], 0.5, 20.0),
}


def _one_run_estimates(domain, x, centers, radius, cfg, truncation):
    """Cap estimates from one run_walks over all walkers, by the estimators' rule."""
    feet, truncated, _ = pk.run_walks(domain, x, cfg, truncation_radius=truncation)
    n, n_trunc = cfg.walkers, int(truncated.sum())
    out = []
    for center in np.asarray(centers, dtype=float):
        p = float(((~truncated) & (np.linalg.norm(feet - center, axis=1) < radius)).sum()) / n
        se = math.sqrt(p * (1.0 - p) / n) if p > 0.0 else 3.0 / n
        out.append(pk.MeasureEstimate(p, se, n, n_trunc, wide_interval=p == 0.0))
    return out


@pytest.mark.parametrize("kind", list(CHUNK_CASES))
def test_chunked_estimates_equal_one_run_bit_for_bit(kind, small_chunk, monkeypatch):
    # 2 * CHUNK + 7 walkers walk in three chunks; the hit and truncation
    # counts, hence every estimate, are those of one run over all walkers.
    domain, x, centers, radius, truncation = CHUNK_CASES[kind]
    cfg = _cfg(walkers=2 * CHUNK + 7, stop_tolerance=1e-3)
    want = _one_run_estimates(domain, x, centers, radius, cfg, truncation)
    assert truncation is None or want[0].truncated_walks > 0
    chunks, walk = [], harmonic_measure.run_walks
    monkeypatch.setattr(harmonic_measure, "run_walks",
                        lambda *a, walker_indices, **kw: chunks.append(walker_indices) or walk(*a, walker_indices=walker_indices, **kw))
    cap = pk.estimate_cap_measure(domain, x, centers[0], radius, cfg, truncation_radius=truncation)
    assert chunks == [range(0, CHUNK), range(CHUNK, 2 * CHUNK), range(2 * CHUNK, 2 * CHUNK + 7)]
    assert cap == want[0]
    areas = [pk.cap_surface_measure(domain, c, radius) for c in centers]
    densities = [harmonic_measure._density_from_cap(w, a) for w, a in zip(want, areas)]
    assert pk.estimate_kernel_density(domain, x, centers[0], radius, cfg, truncation) == densities[0]
    kern = pk.WosKernel(domain, cfg, radius, truncation)
    assert kern.estimate(x, np.asarray(centers, dtype=float)) == densities
    assert kern.estimate(x, centers[0]) == densities[0]


def test_chunked_estimates_fail_on_truncation_like_one_run(small_chunk):
    # Every walk makes its one allowed jump and truncates: the failure counts
    # all chunks together and names the total.
    d, x = pk.Ball(2), [0.5, 0.0]
    cfg = _cfg(walkers=2 * CHUNK + 7, max_steps=1, stop_tolerance=1e-9)
    _, truncated, _ = pk.run_walks(d, x, cfg)
    named = re.escape(f"{int(truncated.sum())} of {cfg.walkers} walks truncated (limit 50%)")
    with pytest.raises(pk.EstimationFailureError, match=f"^{named}$"):
        pk.estimate_cap_measure(d, x, [1.0, 0.0], 0.3, cfg)
    with pytest.raises(pk.EstimationFailureError, match=f"^{named}$"):
        pk.WosKernel(d, cfg, 0.3).estimate(x, [[1.0, 0.0], [0.0, 1.0]])


def test_pooled_truncation_failure_names_its_source(tmp_path, capsys):
    # A sweep's probes walk in one estimate; the failure names the probe whose
    # walks truncated as x[k], k its delta's index, in the library and on the
    # command line.  A one-point estimate's message names no source.
    h, x = pk.Halfspace(2), [0.0, 1.9]
    cfg = _cfg(walkers=2000, seed=1)
    kern = pk.WosKernel(h, cfg, 0.1, truncation_radius=2.0)
    count = int(pk.run_walks(h, x, cfg, truncation_radius=2.0)[1].sum())
    message = f"{count} of 2000 walks truncated (limit 50%)"
    with pytest.raises(pk.EstimationFailureError, match=f"^{re.escape(message)}$"):
        kern.estimate(x, [0.5, 0.0])
    pooled = f"{message} from x[1] = [0.0, 1.9]"
    with pytest.raises(pk.EstimationFailureError, match=f"^{re.escape(pooled)}$"):
        pk.normal_sweep(h, kern, [0, 0], [0.1, 1.9], [[0.5, 0]])
    spec = tmp_path / "halfplane.json"
    spec.write_text('{"kind": "halfspace", "dim": 2}')
    assert main(["ratio", "--domain", str(spec), "--base", "0,0", "--deltas", "0.1,1.9", "--targets", "0.5,0",
                 "--kernel", "wos", "--walkers", "2000", "--seed", "1", "--stop-tol", "1e-4",
                 "--cap-radius", "0.1", "--truncation", "2"]) == 2
    assert capsys.readouterr().err == f"poisskern: numerical failure: {pooled}\n"


def test_chunked_cli_wos_report_equals_the_library(tmp_path, capsys, small_chunk):
    spec = tmp_path / "disc.json"
    spec.write_text('{"kind": "ball", "dim": 2}')
    n = 2 * CHUNK + 7
    assert main(["wos", "--domain", str(spec), "--x", "0.1,0.55", "--cap-center", "1,0", "--cap-radius", "0.3",
                 "--walkers", str(n), "--seed", "7", "--stop-tol", "1e-3"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    d, cfg = pk.Ball(2), _cfg(walkers=n, stop_tolerance=1e-3)
    cap = pk.estimate_cap_measure(d, [0.1, 0.55], [1.0, 0.0], 0.3, cfg)
    density = pk.estimate_kernel_density(d, [0.1, 0.55], [1.0, 0.0], 0.3, cfg)
    for record, est in ((result["cap_measure"], cap), (result["density"], density)):
        assert record == {"estimate": est.estimate, "std_error": est.std_error, "walkers": n,
                          "truncated": est.truncated_walks, "wide_interval": est.wide_interval}


@pytest.mark.parametrize("kind", list(POOL_CASES))
def test_a_pass_retiring_more_walkers_than_the_queue_holds(kind):
    # With a large stop tolerance the first retiring pass frees far more
    # slots than the 7 queued walkers fill, so that pass refills slots in
    # place and drops the rest; every row still equals the plain loop and
    # any subset.
    domain, x, radius = POOL_CASES[kind]
    cfg = _cfg(walkers=POOL + 7, max_steps=2, stop_tolerance=0.2)
    got = pk.run_walks(domain, x, cfg, truncation_radius=radius)
    want = _reference_walks(domain, x, cfg, truncation_radius=radius)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    first = got[2][:POOL]
    assert (first == first.min()).sum() > 7
    subset = np.r_[POOL + 6 : 0 : -5, 0]
    part = pk.run_walks(domain, x, cfg, truncation_radius=radius, walker_indices=subset)
    for g, p in zip(got, part):
        assert g[subset].tobytes() == p.tobytes()


def test_truncation_and_wos_exit_error():
    # Off the center: one jump from the center lands on the circle and settles.
    d = pk.Ball(2)
    x = np.array([0.5, 0.0])
    feet, trunc, _ = pk.run_walks(d, x, _cfg(max_steps=1, stop_tolerance=1e-9))
    assert trunc.all()
    with pytest.raises(pk.WalkTruncatedError, match="exceeded 1 steps"):
        pk.wos_exit(d, x, _cfg(max_steps=1, stop_tolerance=1e-9), walker_index=0)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_walks_settling_on_their_last_allowed_jump_are_not_truncated(k):
    # The settle rule applies after the max_steps-th jump too: a walk that
    # settles after k jumps is the same walk whether k or k + 1 are allowed.
    d, x = pk.Ball(2), [0.5, 0.0]
    feet, truncated, steps = pk.run_walks(d, x, _cfg(walkers=5000, stop_tolerance=1e-2, max_steps=k + 1))
    feet_k, truncated_k, steps_k = pk.run_walks(d, x, _cfg(walkers=5000, stop_tolerance=1e-2, max_steps=k))
    early = ~truncated & (steps <= k)
    assert (early & (steps == k)).any()
    assert not truncated_k[early].any()
    assert np.array_equal(steps_k[early], steps[early])
    assert np.array_equal(feet_k[early].view(np.int64), feet[early].view(np.int64))


def test_wos_exit_names_leaving_on_the_last_allowed_jump():
    # A walk that leaves the truncation ball on its last allowed jump left it;
    # it did not exceed its step budget.
    h, x, radius = pk.Halfspace(2), [1.9, 0.3], 2.0
    cfg = _cfg(walkers=50, stop_tolerance=1e-9, max_steps=1)
    feet, truncated, steps = pk.run_walks(h, x, cfg, truncation_radius=radius)
    left = np.flatnonzero(truncated & (np.linalg.norm(feet, axis=1) > radius))
    stayed = np.flatnonzero(truncated & (np.linalg.norm(feet, axis=1) <= radius))
    assert left.size and stayed.size and np.all(steps[truncated] == 1)
    with pytest.raises(pk.WalkTruncatedError, match="left the truncation ball of radius 2.0 after 1 steps"):
        pk.wos_exit(h, x, cfg, walker_index=int(left[0]), truncation_radius=radius)
    with pytest.raises(pk.WalkTruncatedError, match="exceeded 1 steps"):
        pk.wos_exit(h, x, cfg, walker_index=int(stayed[0]), truncation_radius=radius)


# ---------------------------------------------------------------------------
# cap surface measures


def test_cap_surface_measures_closed_forms():
    d = pk.Ball(2)
    quarter_chord = 2 * math.sin(math.pi / 8)
    assert pk.cap_surface_measure(d, [1.0, 0.0], quarter_chord) == pytest.approx(
        math.pi / 2, rel=1e-13
    )
    b3 = pk.Ball(3, radius=2.0)
    assert pk.cap_surface_measure(b3, [0.0, 0.0, 2.0], 0.5) == pytest.approx(
        math.pi * 0.25, rel=1e-13
    )
    # whole sphere once the chord spans the diameter
    assert pk.cap_surface_measure(b3, [0.0, 0.0, 2.0], 4.0) == pytest.approx(
        16 * math.pi, rel=1e-13
    )
    assert pk.cap_surface_measure(pk.Halfspace(2), [0.3, 0.0], 0.7) == pytest.approx(1.4)
    assert pk.cap_surface_measure(pk.Halfspace(3), [0.0, 0.0, 0.0], 0.5) == pytest.approx(
        math.pi * 0.25
    )


def test_ellipse_cap_arc_length_against_quadrature():
    from scipy.integrate import quad
    from scipy.optimize import brentq

    e = pk.Ellipse([2.0, 1.0])
    for theta0, c in [(0.9, 0.3), (0.0, 0.4), (np.pi / 2, 0.25)]:
        y = e.boundary_point(theta0)
        got = pk.cap_surface_measure(e, y, c)
        f = lambda t: float(np.linalg.norm(e.boundary_point(t) - y)) - c
        lo = brentq(f, theta0 - 1.5, theta0 - 1e-12)
        hi = brentq(f, theta0 + 1e-12, theta0 + 1.5)
        oracle = quad(lambda t: float(e.boundary_speed(t)), lo, hi, epsabs=1e-13)[0]
        assert got == pytest.approx(oracle, abs=1e-10)


def test_ellipse_cap_curvature_guard():
    e = pk.Ellipse([2.0, 1.0])
    with pytest.raises(pk.InvalidInputError):
        pk.cap_surface_measure(e, e.boundary_point(0.0), 0.6)  # > b^2/a


def test_cap_center_must_lie_on_boundary():
    d = pk.Ball(2)
    with pytest.raises(pk.InvalidInputError):
        pk.cap_surface_measure(d, [0.5, 0.0], 0.1)
    with pytest.raises(pk.InvalidInputError):
        pk.estimate_cap_measure(d, np.array([0.0, 0.0]), np.array([0.5, 0.0]), 0.1, _cfg())


# ---------------------------------------------------------------------------
# harmonic-measure estimates


def test_cap_measure_from_center_is_arc_fraction():
    # harmonic measure from the center of the disc is uniform
    d = pk.Ball(2)
    cfg = _cfg(walkers=40000, seed=13)
    quarter_chord = 2 * math.sin(math.pi / 8)
    est = pk.estimate_cap_measure(d, np.array([0.0, 0.0]), np.array([1.0, 0.0]), quarter_chord, cfg)
    assert est.walkers_used == 40000
    assert est.truncated_walks == 0
    assert abs(est.estimate - 0.25) <= 3 * est.std_error
    assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 40000), rel=0.2)


def test_quarter_cap_partition_sums_to_one():
    d = pk.Ball(2)
    cfg = _cfg(walkers=20000, seed=77)
    quarter_chord = 2 * math.sin(math.pi / 8)
    centers = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    total = sum(
        pk.estimate_cap_measure(d, np.array([0.33, 0.12]), np.array(c), quarter_chord, cfg).estimate
        for c in centers
    )
    assert total == 1.0


def test_cap_measure_matches_exact_kernel_integral():
    from numpy.polynomial.legendre import leggauss

    d = pk.Ball(2)
    cfg = _cfg(walkers=50000, seed=99)
    x = np.array([0.0, 0.8])
    for cang, c in [(math.pi / 2, 0.1), (0.0, 0.4)]:
        y = np.array([math.cos(cang), math.sin(cang)])
        half = 2 * math.asin(c / 2)
        nodes, w = leggauss(64)
        th = cang + half * nodes
        P = (1 / (2 * math.pi)) * (1 - 0.64) / ((np.cos(th) - x[0]) ** 2 + (np.sin(th) - x[1]) ** 2)
        exact = float(np.sum(w * P) * half)
        est = pk.estimate_cap_measure(d, x, y, c, cfg)
        assert abs(est.estimate - exact) <= 3 * est.std_error


def test_halfplane_cap_measure_is_cauchy():
    h = pk.Halfspace(2)
    cfg = _cfg(walkers=50000, seed=321)
    est = pk.estimate_cap_measure(
        h, np.array([0.0, 1.0]), np.array([0.0, 0.0]), 1.0, cfg, truncation_radius=1e4
    )
    assert abs(est.estimate - 0.5) <= 3 * est.std_error
    assert est.truncated_walks < 50  # heavy tails, capped wandering


def test_kernel_density_matches_exact_kernel():
    d = pk.Ball(2)
    cfg = _cfg(walkers=50000, seed=5)
    x = np.array([0.0, 0.8])
    y = np.array([0.0, 1.0])
    est = pk.estimate_kernel_density(d, x, y, 0.02, cfg)
    exact = pk.poisson_ball(2, x, y)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_zero_hit_cap_reports_wide_interval(tmp_path, capsys):
    d = pk.Ball(2)
    x, y, cfg = np.array([-0.95, 0.0]), np.array([1.0, 0.0]), _cfg(walkers=2000, seed=5)
    est = pk.estimate_kernel_density(d, x, y, 0.01, cfg)
    assert est.estimate == 0.0
    assert est.wide_interval
    assert est.std_error > 0.0
    # One rule for a cap no walk hit: the cap measure reports the rule-of-three
    # bound 3 / n, and the density is that estimate over the cap area.
    cap = pk.estimate_cap_measure(d, x, y, 0.01, cfg)
    assert (cap.estimate, cap.std_error, cap.wide_interval) == (0.0, 3.0 / 2000, True)
    assert est.std_error == cap.std_error / pk.cap_surface_measure(d, y, 0.01)
    # and so does the command line's cap-measure record
    spec = tmp_path / "disc.json"
    spec.write_text('{"kind": "ball", "dim": 2}')
    assert main(["wos", "--domain", str(spec), "--x=-0.95,0", "--cap-center", "1,0", "--cap-radius", "0.01",
                 "--walkers", "2000", "--seed", "5", "--stop-tol", "1e-4"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["cap_measure"] == {"estimate": 0.0, "std_error": 3.0 / 2000, "walkers": 2000, "truncated": 0,
                                     "wide_interval": True}
    assert result["density"]["std_error"] == est.std_error and result["density"]["wide_interval"]


def test_mostly_truncated_run_raises():
    # Off the center: one jump from the center lands on the circle and settles.
    d = pk.Ball(2)
    cfg = _cfg(walkers=100, seed=1, max_steps=1, stop_tolerance=1e-9)
    with pytest.raises(pk.EstimationFailureError):
        pk.estimate_cap_measure(d, np.array([0.5, 0.0]), np.array([1.0, 0.0]), 0.3, cfg)


# ---------------------------------------------------------------------------
# the WoS-backed kernel evaluator


def test_wos_kernel_reproduces_its_estimates():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, _cfg(walkers=5000, seed=42), cap_radius=0.1)
    x = np.array([0.0, 0.7])
    y = np.array([0.0, 1.0])
    first = kern(x, y)
    second = kern(x, y)
    assert first == second
    est = kern.estimate(x, y)
    assert est.estimate == first
    fresh = pk.WosKernel(d, _cfg(walkers=5000, seed=42), cap_radius=0.1)
    assert fresh(x, y) == first


def test_wos_kernel_keeps_only_the_latest_source_point():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, _cfg(walkers=2000, seed=5), cap_radius=0.1)
    base = np.array([0.0, 1.0])
    targets = [np.array([0.0, 1.0]), np.array([0.6, 0.8])]
    report = pk.normal_sweep(d, kern, base, [0.2, 0.1, 0.05], targets)
    again = kern.estimate(report.records[0].x, np.stack(targets))
    assert [e.estimate for e in again] == [rec.kernel for rec in report.records[:2]]


def test_wos_kernel_keeps_nothing_between_calls():
    # A kernel holds its domain, config, cap radius and truncation radius, and
    # no query adds to them: each estimate computes its targets' cap areas.
    e = pk.Ellipse([2.0, 1.0])
    kern = pk.WosKernel(e, _cfg(walkers=200), cap_radius=0.1)
    state = {name: copy.deepcopy(value) for name, value in vars(kern).items() if name != "domain"}
    for thetas in ((0.3, 1.2), (2.5, 4.0, 5.5)):
        T = np.array([e.boundary_point(th) for th in thetas])
        for x in ([0.5, 0.3], [-1.0, 0.1]):
            kern.estimate(x, T)
    assert {name: value for name, value in vars(kern).items() if name != "domain"} == state
    assert kern.domain is e and set(vars(kern)) == {"domain", "config", "cap_radius", "truncation_radius"}


def test_wos_kernel_checks_its_targets_in_one_batch_query(monkeypatch):
    # The targets are checked in one batch, and nothing calls the public one-point rho.
    e = pk.Ellipse([2.0, 1.0])
    T = np.array([e.boundary_point(th) for th in (0.3, 1.2, 2.5, 4.0)])
    kern = pk.WosKernel(e, _cfg(walkers=200), cap_radius=0.1)
    batches, points = [], []
    check, rho = harmonic_measure._check_cap_centers, e.rho
    monkeypatch.setattr(harmonic_measure, "_check_cap_centers",
                        lambda domain, X, *args, **kw: batches.append(np.shape(X)) or check(domain, X, *args, **kw))
    monkeypatch.setattr(e, "rho", lambda x: points.append(list(x)) or rho(x))
    for _ in range(2):  # each query checks its targets once
        kern.estimate([0.5, 0.3], T)
    assert batches == [T.shape, T.shape]
    assert points == []  # the walk origin is checked through the primitive


def test_wos_kernel_descriptor_and_validation():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, _cfg(), cap_radius=0.1)
    desc = kern.descriptor()
    assert desc["cap_radius"] == 0.1
    assert desc["walkers"] == 1000
    with pytest.raises(pk.InvalidInputError):
        pk.WosKernel(d, _cfg(), cap_radius=0.0)


@pytest.mark.parametrize("kind", ["disc", "ellipse"])
def test_wos_kernel_batch_rows_equal_one_point_calls(kind):
    dom = pk.Ball(2) if kind == "disc" else pk.Ellipse([2.0, 1.0])
    x = np.array([0.3, 0.4]) if kind == "disc" else np.array([0.5, 0.3])
    T = np.array([dom.boundary_point(th) if kind == "ellipse" else [math.cos(th), math.sin(th)]
                  for th in (0.2, 1.1, 1.6, 2.9, 4.0)])
    batch = pk.WosKernel(dom, _cfg(walkers=3000), cap_radius=0.1)
    ests = batch.estimate(x, T)
    assert isinstance(ests, list) and len(ests) == len(T)
    one = pk.WosKernel(dom, _cfg(walkers=3000), cap_radius=0.1)
    for t, est in zip(T, ests):
        single = one.estimate(x, t)
        assert isinstance(single, pk.MeasureEstimate)
        assert single.estimate == est.estimate and single.std_error == est.std_error
        assert single == est
    values = batch(x, T)
    assert isinstance(values, np.ndarray) and values.shape == (len(T),)
    assert values.tolist() == [e.estimate for e in ests]
    assert isinstance(batch(x, T[0]), float)


def test_wos_kernel_names_the_offending_target():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, _cfg(walkers=10), cap_radius=0.1)
    with pytest.raises(pk.InvalidInputError, match=r"y\[1\] = \[0\.5, 0\.0\] is not on the boundary"):
        kern.estimate([0.0, 0.0], [[1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(pk.InvalidInputError, match=r"y\[0\] has non-finite"):
        kern([0.0, 0.0], [[np.nan, 0.0]])


# ---------------------------------------------------------------------------
# several sources in one pool


SOURCE_CASES = {
    "disc": (pk.Ball(2), [[0.1, 0.55], [-0.6, 0.2], [0.0, -0.3]], None),
    "ball3": (pk.Ball(3), [[0.1, 0.3, -0.2], [0.5, 0.0, 0.4], [-0.2, -0.2, 0.0]], None),
    "ball5": (pk.Ball(5), [[0.1, 0.3, -0.2, 0.1, 0.0], [0.0, 0.0, 0.5, 0.0, -0.3]], None),
    "ellipse": (pk.Ellipse([2.0, 1.0]), [[0.5, 0.3], [-1.5, 0.1], [0.0, -0.8]], None),
    "swapped_ellipse": (pk.Ellipse([1.0, 2.0]), [[0.3, 0.5], [0.1, -1.5]], None),
    "halfplane": (pk.Halfspace(2), [[0.2, 0.7], [3.0, 0.1], [-1.0, 2.0]], 20.0),
    "implicit_ellipse": (_readme_implicit_ellipse(), [[0.5, 0.2], [-1.2, -0.3]], None),
}


def _source_rows(out, j, n):
    return [a[j * n : (j + 1) * n] for a in out]


@pytest.mark.parametrize("kind", list(SOURCE_CASES))
def test_pooled_sources_equal_separate_runs_bit_for_bit(kind):
    # The sources' walkers share one pool, refilled from the queue across
    # source boundaries; rows j n .. (j + 1) n are source j's walks, bit for
    # bit those of its own run, for every choice of streams and budget.
    domain, X, radius = SOURCE_CASES[kind]
    X = np.array(X)
    n = 3000 if kind == "implicit_ellipse" else POOL // 2 + 7  # three or more sources fill more than a pool
    stop = 1e-3 if kind == "implicit_ellipse" else 1e-4
    runs = [
        (_cfg(walkers=n, stop_tolerance=stop), None),
        (_cfg(walkers=n, stop_tolerance=stop), range(n + 5, 20, -7)),
        (_cfg(walkers=n, stop_tolerance=stop), np.r_[n - 1 : 0 : -5, 0]),
        (_cfg(walkers=n, max_steps=6, stop_tolerance=stop), None),
    ]
    for cfg, indices in runs:
        pooled = pk.run_walks(domain, X, cfg, truncation_radius=radius, walker_indices=indices)
        m = n if indices is None else len(indices)
        assert all(len(a) == len(X) * m for a in pooled)
        for j, x in enumerate(X):
            alone = pk.run_walks(domain, x, cfg, truncation_radius=radius, walker_indices=indices)
            for p, a in zip(_source_rows(pooled, j, m), alone):
                assert p.dtype == a.dtype and p.tobytes() == a.tobytes()
        if cfg.max_steps == 6:
            assert (pooled[1] & (pooled[2] == 6)).any()
    if radius is not None:
        assert (pooled[1] & (pooled[2] < 6)).any()  # some walks left the truncation ball


def test_a_batch_of_one_source_walks_as_its_point():
    domain, X, _ = SOURCE_CASES["ellipse"]
    cfg = _cfg(walkers=POOL + 9)
    for p, a in zip(pk.run_walks(domain, [X[0]], cfg), pk.run_walks(domain, X[0], cfg)):
        assert p.tobytes() == a.tobytes()


@pytest.mark.parametrize("kind", ["disc", "ball3", "ellipse", "halfplane", "implicit_ellipse"])
def test_each_walker_step_draws_one_traced_direction(kind, monkeypatch):
    # CI counts rng.directions against walker steps in traced benchmark
    # rounds; here every row _rng.sphere_directions returns is counted the
    # same way, for one source, several sources and a pooled WosKernel sweep.
    domain, X, radius = SOURCE_CASES[kind]
    rows, draw = [], _rng.sphere_directions
    monkeypatch.setattr(_rng, "sphere_directions", lambda *a: rows.append(len(a[0])) or draw(*a))
    cfg = _cfg(walkers=3000 if kind == "implicit_ellipse" else 20_000, stop_tolerance=1e-3)
    for x in (X[0], X):
        rows.clear()
        _, _, steps = pk.run_walks(domain, x, cfg, truncation_radius=radius)
        assert sum(rows) == steps.sum() > 0


def test_a_pooled_sweep_draws_one_direction_per_walker_step(monkeypatch):
    e = pk.Ellipse([2.0, 1.0])
    rows, steps, draw, walk = [], [], _rng.sphere_directions, harmonic_measure.run_walks
    monkeypatch.setattr(_rng, "sphere_directions", lambda *a: rows.append(len(a[0])) or draw(*a))

    def counted(*a, **kw):
        out = walk(*a, **kw)
        steps.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(harmonic_measure, "run_walks", counted)
    kern = pk.WosKernel(e, _cfg(walkers=20_000, seed=3), cap_radius=0.05)
    pk.normal_sweep(e, kern, [0.0, 1.0], [0.2, 0.1, 0.05], [e.boundary_point(t) for t in (1.2, 1.5, 1.9)])
    assert len(steps) == 1  # one walk for all three probes
    assert sum(rows) == steps[0] > 0


@pytest.mark.parametrize("kind", ["disc", "ellipse", "halfplane"])
def test_wos_kernel_source_batches_equal_per_source_estimates(kind):
    domain, X, radius = SOURCE_CASES[kind]
    X = np.array(X)
    centers, cap = CHUNK_CASES[kind][2], CHUNK_CASES[kind][3]
    T = np.asarray(centers, dtype=float)
    kern = pk.WosKernel(domain, _cfg(walkers=4000, stop_tolerance=1e-3), cap, radius)
    pooled = kern.estimate(X, T)
    assert pooled == [kern.estimate(x, T) for x in X]
    assert kern.estimate(X, T[0]) == [kern.estimate(x, T[0]) for x in X]
    values = kern(X, T)
    assert values.shape == (len(X), len(T)) and values.tolist() == [[e.estimate for e in row] for row in pooled]
    assert kern(X, T[0]).tolist() == [row[0].estimate for row in pooled]


@pytest.mark.parametrize("walkers, calls", [
    (5000, [(3, None), (3, None), (1, None)]),  # whole sources share a chunk of CHUNK rows
    (CHUNK + 9, [(1, range(0, CHUNK)), (1, range(CHUNK, CHUNK + 9))] * 2),  # a source fills chunks alone
])
def test_chunks_hold_whole_sources_and_equal_per_source_runs(walkers, calls, small_chunk, monkeypatch):
    # An estimate walks at most CHUNK rows per run_walks call, counted across
    # the sources of the call, and each source's estimate equals one run of
    # its own.
    domain, _, centers, radius, _ = CHUNK_CASES["disc"]
    k = 7 if walkers < CHUNK else 2
    X = np.array([[0.1 * j - 0.3, 0.05 * j] for j in range(k)])
    cfg = _cfg(walkers=walkers, stop_tolerance=1e-3)
    want = [_one_run_estimates(domain, x, centers, radius, cfg, None) for x in X]
    made, walk = [], harmonic_measure.run_walks

    def recorded(domain, x, *a, walker_indices, **kw):
        made.append((len(x), walker_indices))
        return walk(domain, x, *a, walker_indices=walker_indices, **kw)

    monkeypatch.setattr(harmonic_measure, "run_walks", recorded)
    got = harmonic_measure._cap_estimates(domain, X, cfg, None, np.asarray(centers, dtype=float), radius)
    assert made == calls
    assert all(rows * (walkers if chunk is None else len(chunk)) <= CHUNK for rows, chunk in made)
    assert got == want


def test_a_source_batch_estimate_holds_one_chunk(monkeypatch):
    # Four sources of half a chunk each walk in two calls of one chunk: the
    # traced peak is that of one source walking one chunk.
    domain, _, _ = SETTLE_CASES["disc"]
    chunk = harmonic_measure._CHUNK
    kern = lambda n: pk.WosKernel(domain, _cfg(walkers=n), cap_radius=0.3)
    one = _traced_peak(lambda: kern(chunk).estimate([0.1, 0.55], [1.0, 0.0]))[1]
    X = [[0.1, 0.55], [-0.2, 0.3], [0.0, -0.5], [0.4, 0.4]]
    four = _traced_peak(lambda: kern(chunk // 2).estimate(X, [1.0, 0.0]))[1]
    assert four - one <= 1.5e6, f"{four / 1e6:.2f} MB against {one / 1e6:.2f} MB"


REFUSED_ORIGINS = {
    "outside": (pk.Ball(2), [[0.1, 0.2], [1.5, 0.0]], None, 1e-3,
                "walk origin x[1] = [1.5, 0.0] is not strictly inside the domain"),
    "below_stop": (pk.Ball(2), [[0.1, 0.2], [0.0, 0.9999]], None, 1e-3,
                   "stop_tolerance 0.001 is not below the jump radius 9.999999999998899e-05 at the walk origin "
                   "x[1] = [0.0, 0.9999]: every walker would settle where it starts"),
    "beyond_truncation": (pk.Halfspace(2), [[0.1, 0.2], [0.0, 1.0]], 0.5, 1e-3,
                          "walk origin x[1] = [0.0, 1.0] lies outside the truncation ball of radius 0.5"),
}


@pytest.mark.parametrize("case", list(REFUSED_ORIGINS))
def test_pooled_origins_are_refused_by_name(case):
    domain, X, radius, stop, named = REFUSED_ORIGINS[case]
    cfg = _cfg(walkers=10, stop_tolerance=stop)
    with pytest.raises(pk.InvalidInputError, match=f"^{re.escape(named)}$"):
        pk.run_walks(domain, X, cfg, truncation_radius=radius)
    target = [1.0, 0.0] if isinstance(domain, pk.Ball) else [0.0, 0.0]
    with pytest.raises(pk.InvalidInputError, match=f"^{re.escape(named)}$"):
        pk.WosKernel(domain, cfg, 0.1, radius).estimate(X, target)
    with pytest.raises(pk.InvalidInputError, match="x holds no walk origin"):
        pk.run_walks(domain, np.empty((0, 2)), cfg, truncation_radius=radius)


def test_an_estimate_checks_every_source_before_it_walks(small_chunk, monkeypatch):
    # Source 5 would walk in the second call of three: it is named by its
    # place in the batch, and nothing walks first.
    X = [[0.1 * j - 0.3, 0.05 * j] for j in range(7)]
    X[5] = [0.0, 0.99999]
    walked = []
    monkeypatch.setattr(harmonic_measure, "run_walks", lambda *a, **kw: walked.append(a))
    kern = pk.WosKernel(pk.Ball(2), _cfg(walkers=5000, stop_tolerance=1e-3), cap_radius=0.1)
    with pytest.raises(pk.InvalidInputError, match=re.escape("at the walk origin x[5] = [0.0, 0.99999]")):
        kern.estimate(X, [1.0, 0.0])
    with pytest.raises(pk.InvalidInputError, match=re.escape("at the walk origin x = [0.0, 0.99999]")):
        kern.estimate(X[5], [1.0, 0.0])
    with pytest.raises(pk.InvalidInputError, match=re.escape("walk origin [1.5, 0.0] is not strictly inside")):
        pk.estimate_cap_measure(pk.Ball(2), [1.5, 0.0], [1.0, 0.0], 0.1, _cfg())
    assert walked == []


def test_a_sweep_names_its_probe_below_the_stop():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, _cfg(walkers=10, stop_tolerance=1e-3), cap_radius=0.1)
    with pytest.raises(pk.InvalidInputError, match=re.escape("at the walk origin x[2] = [0.0, 0.9995]")):
        pk.normal_sweep(d, kern, [0.0, 1.0], [0.1, 0.01, 5e-4], [[1.0, 0.0]])


# ---------------------------------------------------------------------------
# the ellipse's settled feet


def _ellipse_probe_points(a, b, rng):
    """Points near the boundary, deep inside, on and near both axes, and a few outside."""
    t = rng.uniform(0.0, 2.0 * math.pi, 4000)
    boundary = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    near = boundary * (1.0 - rng.uniform(0.0, 1e-3, 4000))[:, None]
    deep = boundary * rng.uniform(0.0, 1.0, 4000)[:, None]
    axes = np.array([[s * a * f, 0.0] for s in (1.0, -1.0) for f in (0.999, 0.99, 0.5, 0.0)]
                    + [[0.0, s * b * f] for s in (1.0, -1.0) for f in (0.999, 0.5)]
                    + [[-0.0, 0.3 * b], [0.2 * a, -0.0], [0.9 * a, 1e-9], [0.3 * a, -1e-5]])
    outside = boundary[:50] * 1.01
    return np.concatenate([near, deep, axes, outside])


@pytest.mark.parametrize("axes", [[2.0, 1.0], [1.0, 2.0], [3.0, 0.4], [1.0, 1.01]])
def test_ellipse_settled_feet_equal_the_projection(axes):
    # Away from ties the settled feet are the projection's feet bit for bit,
    # and a row that ties raises the projection's error.
    e, rng = pk.Ellipse(axes), np.random.default_rng(17)
    P = _ellipse_probe_points(*axes, rng)
    for X in np.array_split(P, 40):
        try:
            want = e.project_batch(X)[0]
        except pk.ProjectionAmbiguityError as exc:
            with pytest.raises(pk.ProjectionAmbiguityError, match=f"^{re.escape(str(exc))}$"):
                e._settled_feet(X)
        else:
            assert e._settled_feet(X).tobytes() == want.tobytes()


def test_ellipse_settled_feet_raise_the_projection_errors():
    e = pk.Ellipse([2.0, 1.0])
    for X in ([[0.5, 0.2], [1.4, 0.0]], [[1.0, 1e-9]], [[0.0, 0.5], [-1.2, -0.0]]):
        with pytest.raises(pk.ProjectionAmbiguityError) as want:
            e.project_batch(X)
        with pytest.raises(pk.ProjectionAmbiguityError, match=f"^{re.escape(str(want.value))}$"):
            e._settled_feet(np.array(X))
    # A walk with its stop above the curvature radius b^2 / a = 0.5 settles
    # deep inside, where the projection's tie test applies.
    cfg = _cfg(walkers=4000, max_steps=3, stop_tolerance=0.9)
    got = pk.run_walks(e, [0.0, 0.0], cfg)
    want = _reference_walks(e, [0.0, 0.0], cfg)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_huge_ellipses_settle_through_the_full_projection(monkeypatch):
    # Past a = 1e11 a foot's gradient may be degenerate, which only the
    # projection names: every row takes it.
    e = pk.Ellipse([4e12, 1.0])
    X = np.array([[1e12, 0.5], [0.0, 0.5]])
    calls, project = [], pk.Ellipse._project
    monkeypatch.setattr(pk.Ellipse, "_project", lambda self, X, t: calls.append(len(X)) or project(self, X, t))
    assert e._settled_feet(X).tobytes() == project(e, X, None)[0].tobytes()
    assert calls == [2]
