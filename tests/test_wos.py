"""Walk-on-spheres exit sampling, cap measures, and kernel-density estimates."""

import math
import re

import numpy as np
import pytest

import poisskern as pk


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


def test_truncation_and_wos_exit_error():
    d = pk.Ball(2)
    x = np.array([0.0, 0.0])
    feet, trunc, _ = pk.run_walks(d, x, _cfg(max_steps=1, stop_tolerance=1e-9))
    assert trunc.all()
    with pytest.raises(pk.WalkTruncatedError, match="exceeded 1 steps"):
        pk.wos_exit(d, x, _cfg(max_steps=1, stop_tolerance=1e-9), walker_index=0)


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


def test_zero_hit_cap_reports_wide_interval():
    d = pk.Ball(2)
    est = pk.estimate_kernel_density(
        d, np.array([-0.95, 0.0]), np.array([1.0, 0.0]), 0.01, _cfg(walkers=2000, seed=5)
    )
    assert est.estimate == 0.0
    assert est.wide_interval
    assert est.std_error > 0.0


def test_mostly_truncated_run_raises():
    d = pk.Ball(2)
    cfg = _cfg(walkers=100, seed=1, max_steps=1, stop_tolerance=1e-9)
    with pytest.raises(pk.EstimationFailureError):
        pk.estimate_cap_measure(d, np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.3, cfg)


# ---------------------------------------------------------------------------
# the WoS-backed kernel evaluator


def test_wos_kernel_caches_and_reproduces():
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


def test_wos_kernel_computes_each_cap_area_once(monkeypatch):
    from poisskern import harmonic_measure

    calls = []

    def counting(*args):
        calls.append(args)
        return pk.cap_surface_measure(*args)

    e = pk.Ellipse([2.0, 1.0])
    cfg = _cfg(walkers=200)
    targets = [e.boundary_point(th) for th in (0.3, 1.2)]
    expected = [pk.estimate_kernel_density(e, [0.5, 0.3], y, 0.1, cfg) for y in targets]
    monkeypatch.setattr(harmonic_measure, "cap_surface_measure", counting)
    kern = pk.WosKernel(e, cfg, cap_radius=0.1)
    assert [kern.estimate([0.5, 0.3], y) for y in targets] == expected
    for x in ([0.2, -0.4], [-1.0, 0.1]):
        for y in targets:
            kern.estimate(x, y)
    assert len(calls) == len(targets)


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
