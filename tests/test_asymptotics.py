"""Boundary-asymptotic ratios, sweeps, and derivative diagnostics."""

import copy
import dataclasses
import gc
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import poisskern as pk


# ---------------------------------------------------------------------------
# kernel_ratio closed laws


def test_disc_ratio_independent_of_target():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    x = np.array([0.45, -0.2])
    expected = (1 + np.linalg.norm(x)) / (2 * math.pi)
    for ang in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
        rec = pk.kernel_ratio(d, k, x, np.array([math.cos(ang), math.sin(ang)]))
        assert rec.ratio == pytest.approx(expected, abs=1e-12)


def test_disc_ratio_reference_value():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    rec = pk.kernel_ratio(d, k, np.array([0.9, 0.0]), np.array([0.0, 1.0]))
    assert rec.ratio == pytest.approx(1.9 / (2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_halfspace_ratio_is_the_dimensional_constant(dim):
    h = pk.Halfspace(dim)
    k = pk.model_kernel(h)
    x = np.zeros(dim)
    x[0] = -0.2
    x[-1] = 0.37
    y = np.zeros(dim)
    y[0] = 1.3
    rec = pk.kernel_ratio(h, k, x, y)
    assert abs(rec.ratio - pk.halfspace_constant(dim)) < 1e-14


def test_ball3_ratio_law():
    b3 = pk.Ball(3)
    k = pk.model_kernel(b3)
    x = np.array([0.5, -0.4, 0.55])
    rec = pk.kernel_ratio(b3, k, x, np.array([0.0, 0.0, 1.0]))
    assert rec.ratio == pytest.approx((1 + np.linalg.norm(x)) / (4 * math.pi), abs=1e-12)


def test_ratio_record_fields_and_far_field_flag():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    near = pk.kernel_ratio(d, k, np.array([0.9, 0.0]), np.array([1.0, 0.0]))
    assert near.delta == pytest.approx(0.1)
    assert near.separation == pytest.approx(0.1)
    assert not near.far_field
    assert near.std_error == 0.0
    far = pk.kernel_ratio(d, k, np.array([0.99, 0.0]), np.array([-1.0, 0.0]))
    assert far.far_field  # separation 1.99 > 10 * delta 0.01
    assert far.ratio == pytest.approx(1.99 / (2 * math.pi), abs=1e-12)


def test_ratio_carries_monte_carlo_standard_error():
    d = pk.Ball(2)
    kern = pk.WosKernel(d, pk.WosConfig(walkers=5000, seed=3, stop_tolerance=1e-4), cap_radius=0.05)
    x = np.array([0.0, 0.8])
    y = np.array([0.0, 1.0])
    rec = pk.kernel_ratio(d, kern, x, y)
    est = kern.estimate(x, y)
    assert rec.std_error == pytest.approx(est.std_error * rec.separation**2 / rec.delta)
    assert abs(rec.ratio - (1.8 / (2 * math.pi))) < 4 * rec.std_error


def test_kernel_ratio_validation():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    with pytest.raises(pk.InvalidInputError):
        pk.kernel_ratio(d, k, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(pk.InvalidInputError):
        pk.kernel_ratio(d, k, np.array([0.5, 0.0]), np.array([0.5, 0.0]))  # y interior


# ---------------------------------------------------------------------------
# normal sweeps


def test_disc_sweep_reference_ratios():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    report = pk.normal_sweep(d, k, np.array([1.0, 0.0]), [0.2, 0.1, 0.05], [np.array([1.0, 0.0])])
    got = [rec.ratio for rec in report.records]
    expected = [(2 - delta) / (2 * math.pi) for delta in (0.2, 0.1, 0.05)]
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert report.c1_hat == min(got)
    assert report.c2_hat == max(got)
    assert report.c1_hat > 0 and math.isfinite(report.c2_hat)


def test_halfspace_sweep_is_constant():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    targets = [np.array([t, 0.0]) for t in (-0.5, 0.0, 1.0)]
    report = pk.normal_sweep(h, k, np.array([0.0, 0.0]), [0.3, 0.1], targets)
    assert report.c1_hat == pytest.approx(1 / math.pi, abs=1e-14)
    assert report.c2_hat == pytest.approx(1 / math.pi, abs=1e-14)


def test_sweep_grid_ordering_and_csv_shape():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    targets = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    report = pk.normal_sweep(d, k, np.array([1.0, 0.0]), [0.2, 0.1], targets)
    assert len(report.records) == 4
    # delta-major ordering: records 0,1 share the first delta
    assert report.records[0].delta == pytest.approx(report.records[1].delta)
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "delta,y_index,separation,kernel,ratio,far_field"
    assert len(lines) == 5
    # numeric round trip through repr
    for line, rec in zip(lines[1:], report.records):
        fields = line.split(",")
        assert float(fields[0]) == rec.delta
        assert float(fields[3]) == rec.kernel
        assert float(fields[4]) == rec.ratio
        assert fields[5] in ("0", "1")
    assert [int(line.split(",")[1]) for line in lines[1:]] == [0, 1, 0, 1]


def test_sweep_json_summary():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    report = pk.normal_sweep(d, k, np.array([1.0, 0.0]), [0.1], [np.array([1.0, 0.0])])
    summary = report.to_json_summary(seed=9)
    assert summary["seed"] == 9
    assert summary["c1_hat"] == report.c1_hat
    assert summary["domain"]["kind"] == "ball"
    assert summary["grid"]["deltas"] == [0.1]


def test_sweep_validation():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    base = np.array([1.0, 0.0])
    with pytest.raises(pk.InvalidInputError):
        pk.normal_sweep(d, k, np.array([0.5, 0.0]), [0.1], [base])  # base off boundary
    with pytest.raises(pk.InvalidInputError):
        pk.normal_sweep(d, k, base, [], [base])  # empty deltas
    with pytest.raises(pk.InvalidInputError):
        pk.normal_sweep(d, k, base, [0.1], [])  # empty targets
    with pytest.raises(pk.InvalidInputError):
        pk.normal_sweep(d, k, base, [2.0], [base])  # probe exits the domain
    with pytest.raises(pk.InvalidInputError):
        pk.normal_sweep(d, k, base, [-0.1], [base])


def test_sweep_on_ellipse_with_wos_kernel_small():
    e = pk.Ellipse([2.0, 1.0])
    kern = pk.WosKernel(e, pk.WosConfig(walkers=20000, seed=12, stop_tolerance=1e-4), cap_radius=0.02)
    base = np.array([0.0, 1.0])
    report = pk.normal_sweep(e, kern, base, [0.1, 0.05], [base])
    assert 0.0 < report.c1_hat <= report.c2_hat < math.inf
    assert report.c2_hat / report.c1_hat < 10.0


# ---------------------------------------------------------------------------
# directional derivatives


def test_directional_derivative_orders_against_analytic():
    k = lambda x, T: math.exp(x[0]) * np.sin(x[1] + T[:, 0])
    x = np.array([0.3, 0.4])
    y = np.array([0.2, 0.0])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    d1 = pk.directional_derivative(k, x, y, 1, e1, 1e-6)
    assert d1 == pytest.approx(math.exp(0.3) * math.sin(0.6), rel=1e-8)
    d2 = pk.directional_derivative(k, x, y, 2, e2, 1e-4)
    assert d2 == pytest.approx(-math.exp(0.3) * math.sin(0.6), rel=1e-6)
    with pytest.raises(pk.InvalidInputError):
        pk.directional_derivative(k, x, y, 3, e1, 1e-6)
    with pytest.raises(pk.InvalidInputError):
        pk.directional_derivative(k, x, y, 1, np.zeros(2), 1e-6)
    # kernels are batch evaluators: a scalar result is rejected by its shape,
    # and a kernel that cannot take a batch fails with its own error
    with pytest.raises(pk.InvalidInputError, match=r"kernel returned shape \(\) for 1 targets"):
        pk.directional_derivative(lambda x, T: 1.0, x, y, 1, e1, 1e-6)
    with pytest.raises(TypeError):
        pk.directional_derivative(lambda x, y: math.sin(x[1] + y[0]), x, y, 1, e1, 1e-6)


@pytest.mark.parametrize("domain", [pk.Ball(2), pk.Ball(3), pk.Halfspace(2)], ids=["disc", "ball3", "halfplane"])
def test_directional_derivative_equals_report_records(domain):
    # one target through directional_derivative is its row of the report's batch
    k = pk.model_kernel(domain)
    base = np.zeros(domain.dim)
    base[-1] = -1.0 if isinstance(domain, pk.Ball) else 0.0
    h = 0.05
    rep = pk.derivative_report(domain, k, base, h, [0.0, 0.1, 0.3, 0.7], orders=(1, 2))
    step = max(1e-6, 1e-4 * h)
    for rec in rep.records:
        got = pk.directional_derivative(k, rec.x, rec.y, rec.order, rec.direction, step)
        assert got == rec.derivative


def test_derivative_matches_hand_formula_on_disc_kernel():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    x = np.array([0.3, 0.2])
    t = np.array([1.0, 0.0])
    sep2 = (0.3 - 1.0) ** 2 + 0.04
    hand = ((-2 * 0.3) * sep2 - (1 - 0.13) * 2 * (0.3 - 1.0)) / (2 * math.pi * sep2**2)
    fd = pk.directional_derivative(k, x, t, 1, np.array([1.0, 0.0]), 1e-5)
    assert fd == pytest.approx(hand, rel=1e-6)


def test_halfplane_derivative_ratio_laws():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    hgt = 0.3
    x = np.array([0.0, hgt])
    tangent = np.array([1.0, 0.0])
    normal = np.array([0.0, 1.0])
    assert pk.derivative_ratio(h, k, x, np.array([hgt, 0.0]), 1, tangent) == pytest.approx(
        math.sqrt(2) / math.pi, abs=1e-5
    )
    assert pk.derivative_ratio(h, k, x, np.array([0.0, 0.0]), 1, tangent) == pytest.approx(
        0.0, abs=1e-5
    )
    assert pk.derivative_ratio(h, k, x, np.array([0.0, 0.0]), 1, normal) == pytest.approx(
        1 / math.pi, abs=1e-5
    )
    # generic offset follows the closed tangential law
    t = 0.17
    got = pk.derivative_ratio(h, k, x, np.array([t, 0.0]), 1, tangent)
    assert got == pytest.approx((2 / math.pi) * t / math.hypot(t, hgt), rel=1e-6)


def test_derivative_ratio_separation_guard():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    x = np.array([0.0, 1e-7])
    with pytest.raises(pk.InvalidInputError):
        pk.derivative_ratio(h, k, x, np.array([0.0, 0.0]), 1, np.array([0.0, 1.0]))


@pytest.mark.parametrize("call", [
    lambda k: pk.directional_derivative(k, [0.5, 0.0], [1.0, 0.0], 1, [1.0, 0.0], 1e-4),
    lambda k: pk.derivative_ratio(pk.Ball(2), k, [0.5, 0.0], [1.0, 0.0], 1, [1.0, 0.0]),
    lambda k: pk.derivative_report(pk.Ball(2), k, [1.0, 0.0], 0.1, [0.0, 0.2]),
], ids=["directional_derivative", "derivative_ratio", "derivative_report"])
def test_derivatives_refuse_monte_carlo_kernels(call):
    # Unrefused, derivative_ratio returned 0.0 here (the model kernel gives
    # 0.3183): every stencil point reused the same walker streams.
    kernel = pk.WosKernel(pk.Ball(2), pk.WosConfig(walkers=2000, seed=1, stop_tolerance=1e-4), 0.1)
    with pytest.raises(pk.InvalidInputError, match="kernel WosKernel is a Monte Carlo estimator"):
        call(kernel)


def test_derivative_report_flags_unbounded_normal_regime():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    rep = pk.derivative_report(
        h, k, np.array([0.0, 0.0]), 0.1, [0.0, 0.05, 0.1, 0.2, 0.5, 1.0], orders=(1,)
    )
    assert rep.normal_ratio_unbounded
    labels = {rec.direction_label for rec in rep.records}
    assert labels == {"tangential", "normal"}
    # records reproduce the closed laws
    for rec in rep.records:
        t = float(rec.y[0])
        if rec.direction_label == "tangential":
            expected = (2 / math.pi) * abs(t) / math.hypot(t, 0.1)
        else:
            expected = (1 / math.pi) * abs(t * t - 0.01) / (0.1 * math.hypot(t, 0.1))
        assert rec.ratio == pytest.approx(expected, abs=1e-6)


def test_derivative_report_no_flag_for_near_targets():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    rep = pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.1, [0.0, 0.02, 0.05], orders=(1,))
    assert not rep.normal_ratio_unbounded


def test_derivative_report_second_order_and_summary():
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    rep = pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.2, [0.0, 0.4], orders=(1, 2))
    orders = {rec.order for rec in rep.records}
    assert orders == {1, 2}
    summary = rep.to_json_summary()
    assert summary["normal_ratio_unbounded"] == rep.normal_ratio_unbounded
    assert len(summary["records"]) == len(rep.records)
    with pytest.raises(pk.InvalidInputError):
        pk.derivative_report(h, k, np.array([0.0, 0.0]), -0.1, [0.0])
    with pytest.raises(pk.InvalidInputError):
        pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.1, [])
    with pytest.raises(pk.InvalidInputError, match="at least one derivative order"):
        pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.1, [0.0, 0.5], orders=())
    for bad in (0, 3):
        with pytest.raises(pk.InvalidInputError, match=f"got {bad}"):
            pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.1, [0.0, 0.5], orders=(1, bad))


def test_derivative_report_rejects_repeated_and_bool_orders():
    # (1, 1) used to return every (target, direction) record twice, and True
    # was taken as order 1.
    h = pk.Halfspace(2)
    k = pk.model_kernel(h)
    base = np.array([0.0, 0.0])
    with pytest.raises(pk.InvalidInputError, match="order 1 is requested more than once"):
        pk.derivative_report(h, k, base, 0.1, [0.0, 0.5], orders=(1, 1))
    with pytest.raises(pk.InvalidInputError, match="order 2 is requested more than once"):
        pk.derivative_report(h, k, base, 0.1, [0.0, 0.5], orders=(2, 1, 2))
    for bad in (True, np.bool_(True)):
        with pytest.raises(pk.InvalidInputError, match=r"got (True|np\.True_)"):
            pk.derivative_report(h, k, base, 0.1, [0.0, 0.5], orders=(bad,))
    assert len(pk.derivative_report(h, k, base, 0.1, [0.0, 0.5], orders=(2, 1)).records) == 8


# ---------------------------------------------------------------------------
# the batch evaluator shape: one kernel call per source point


def _circle(a):
    return np.array([math.cos(a), math.sin(a)])


def _sweep_case(kind):
    """(domain, kernel factory, base, deltas, targets) for each covered sweep."""
    rng = np.random.default_rng(len(kind))
    deltas = [0.3, 0.1, 0.03, 0.01]
    if kind == "disc":
        d = pk.Ball(2)
        targets = [_circle(a) for a in rng.uniform(0, 6.3, 6)]
        return d, lambda: pk.model_kernel(d), _circle(0.7), deltas, targets
    if kind == "ball3":
        d = pk.Ball(3)
        T = rng.normal(size=(6, 3))
        T /= np.linalg.norm(T, axis=1)[:, None]
        return d, lambda: pk.model_kernel(d), np.array([0.0, 0.6, 0.8]), deltas, list(T)
    if kind == "halfplane":
        d = pk.Halfspace(2)
        targets = [np.array([t, 0.0]) for t in rng.uniform(-2, 2, 6)]
        return d, lambda: pk.model_kernel(d), np.array([0.2, 0.0]), deltas, targets
    if kind == "halfspace3":
        d = pk.Halfspace(3)
        T = np.zeros((6, 3))
        T[:, :2] = rng.uniform(-2, 2, size=(6, 2))
        return d, lambda: pk.model_kernel(d), np.array([0.2, -0.1, 0.0]), deltas, list(T)
    cfg = pk.WosConfig(walkers=2000, seed=5, stop_tolerance=1e-4)
    if kind == "wos_disc":
        d = pk.Ball(2)
        targets = [_circle(a) for a in (1.0, 1.3, 2.0)]
        return d, lambda: pk.WosKernel(d, cfg, cap_radius=0.05), _circle(1.0), [0.2, 0.1], targets
    e = pk.Ellipse([2.0, 1.0])
    targets = [e.boundary_point(t) for t in (1.3, 1.6, 2.0)]
    return e, lambda: pk.WosKernel(e, cfg, cap_radius=0.05), np.array([0.0, 1.0]), [0.2, 0.1], targets


@pytest.mark.parametrize("kind", ["disc", "ball3", "halfplane", "halfspace3", "wos_disc", "wos_ellipse"])
def test_sweep_records_equal_one_target_ratios(kind):
    dom, make, base, deltas, targets = _sweep_case(kind)
    report = pk.normal_sweep(dom, make(), base, deltas, targets)
    kernel = make()
    one_by_one = [
        pk.kernel_ratio(dom, kernel, np.array(report.records[k * len(targets)].x), t)
        for k in range(len(deltas))
        for t in targets
    ]
    assert list(report.records) == one_by_one  # field for field, bit for bit


def _constructor_records(dom, kernel, X, T):
    """The records of the sources ``X`` against the targets ``T``, delta-major,
    as the dataclass constructor builds them from the written-out ratio."""
    records = []
    for x in X:
        delta = -dom.signed_distance(x)
        if hasattr(kernel, "estimate"):
            ests = kernel.estimate(x, T)
            values, errors = [e.estimate for e in ests], [e.std_error for e in ests]
        else:
            values, errors = kernel(x, T).tolist(), [0.0] * len(T)
        for y, value, error in zip(T, values, errors):
            separation, d = float(np.linalg.norm(x - y)), dom.dim
            records.append(pk.RatioRecord(
                x=tuple(x.tolist()), y=tuple(y.tolist()), delta=float(delta), separation=separation,
                kernel=float(value), ratio=float(value * separation**d / delta),
                far_field=bool(separation > 10.0 * delta), std_error=float(error * separation**d / delta)))
    return records


@pytest.mark.parametrize("kind", ["disc", "ball3", "halfplane", "halfspace3", "wos_disc", "wos_ellipse"])
def test_sweep_records_equal_constructor_records_bit_for_bit(kind):
    # The sweep fills each record's slots itself; every field must carry the
    # bits of the constructor fed the written-out ratio.  The grid is the
    # benchmark's 30 x 30 on the model domains.
    dom, make, base, deltas, targets = _sweep_case(kind)
    if not kind.startswith("wos"):
        rng = np.random.default_rng(23)
        deltas = list(np.geomspace(0.2, 2e-3, 30))
        if isinstance(dom, pk.Ball):
            T = rng.normal(size=(30, dom.dim))
            targets = list(T / np.linalg.norm(T, axis=1)[:, None])
        else:
            targets = [np.append(base[:-1] + rng.normal(size=dom.dim - 1), 0.0) for _ in range(30)]
    report = pk.normal_sweep(dom, make(), base, deltas, targets)
    X = np.array([report.records[k * len(targets)].x for k in range(len(deltas))])
    want = _constructor_records(dom, make(), X, np.array(targets))
    assert list(report.records) == want
    assert repr(report.records) == repr(tuple(want))  # repr tells -0.0 from 0.0
    if kind.startswith("wos"):
        assert any(r.std_error > 0.0 for r in report.records)


def test_sweep_records_behave_as_constructor_records():
    dom, make, base, deltas, targets = _sweep_case("wos_ellipse")
    report = pk.normal_sweep(dom, make(), base, deltas, targets)
    rec = report.records[1]
    built = pk.RatioRecord(**{f.name: getattr(rec, f.name) for f in dataclasses.fields(pk.RatioRecord)})
    assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
    assert rec.std_error > 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.ratio = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.kernel
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is pk.RatioRecord and twin == rec and repr(twin) == repr(rec)
    moved = dataclasses.replace(rec, ratio=2.5)
    assert moved.ratio == 2.5 and dataclasses.replace(moved, ratio=rec.ratio) == rec
    assert dataclasses.asdict(rec) == dataclasses.asdict(built)
    assert list(dataclasses.asdict(rec)) == [f.name for f in dataclasses.fields(pk.RatioRecord)]
    assert {rec: 1}[built] == 1
    assert not hasattr(rec, "__dict__")  # slotted: no per-record instance dict


def test_sweep_records_take_no_more_memory_than_constructor_records():
    # What the records of a 30 x 30 sweep retain, against the same records
    # built by the constructor from fresh floats, with one source tuple per
    # delta and one target tuple per target, as the sweep shares them.
    # Records that carried a filled instance dict would take more and fail.
    dom = pk.Ball(2)
    kernel = pk.model_kernel(dom)
    base, deltas = _circle(0.4), list(np.geomspace(0.2, 2e-3, 30))
    targets = [_circle(a) for a in np.random.default_rng(29).uniform(0, 2 * math.pi, 30)]
    warm = pk.normal_sweep(dom, kernel, base, deltas, targets)  # warms caches outside the trace
    X = np.array([warm.records[30 * k].x for k in range(30)])
    T = np.array(targets)
    values = np.array([kernel(x, T) for x in X])
    separations = np.array([np.linalg.norm(x - T, axis=1) for x in X])
    depths = np.array([-dom.signed_distance(x) for x in X])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = pk.normal_sweep(dom, kernel, base, deltas, targets).records
        gc.collect()  # empties the float and tuple free lists, which tracemalloc counts as held
        swept = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        ys, built = [tuple(y) for y in T.tolist()], []
        for x, delta, sep, val in zip(X.tolist(), depths.tolist(), separations.tolist(), values.tolist()):
            x = tuple(x)
            built += [pk.RatioRecord(x=x, y=y, delta=delta, separation=s, kernel=v, ratio=v * s**2 / delta,
                                     far_field=s > 10.0 * delta, std_error=0.0 * s**2 / delta)
                      for y, s, v in zip(ys, sep, val)]
        built = tuple(built)
        gc.collect()
        constructed = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(records) == len(built) == 900
    assert swept <= constructed, (swept, constructed)


class _Counting:
    """Wraps a kernel and records the shape of every target batch it is given."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.shapes = []

    def __call__(self, x, T):
        self.shapes.append(np.shape(T))
        return self.kernel(x, T)


def test_sweep_makes_one_kernel_call_per_source_point():
    d = pk.Ball(2)
    k = _Counting(pk.model_kernel(d))
    targets = [_circle(a) for a in (0.1, 0.5, 1.0, 2.0, 3.0)]
    report = pk.normal_sweep(d, k, _circle(0.0), [0.2, 0.1, 0.05], targets)
    assert len(report.records) == 15
    assert k.shapes == [(5, 2)] * 3  # one call per delta, not one per record

    # A walk-on-spheres kernel gets every source point in one call, so the
    # sweep's walks share one pool.
    class CountingWos(pk.WosKernel):
        shapes = []

        def estimate(self, x, y):
            CountingWos.shapes.append((np.shape(x), np.shape(y)))
            return super().estimate(x, y)

    kern = CountingWos(d, pk.WosConfig(walkers=500, seed=1, stop_tolerance=1e-4), cap_radius=0.1)
    pk.normal_sweep(d, kern, _circle(0.0), [0.2, 0.1], targets[:3])
    assert CountingWos.shapes == [((2, 2), (3, 2))]


def test_derivative_report_batches_its_stencils():
    h = pk.Halfspace(2)
    k = _Counting(pk.model_kernel(h))
    offsets = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    rep = pk.derivative_report(h, k, np.array([0.0, 0.0]), 0.1, offsets, orders=(1, 2))
    assert len(rep.records) == 6 * 2 * 2
    # 2 directions x (2 stencil points for order 1 + 3 for order 2), each over all 6 targets
    assert k.shapes == [(6, 2)] * 10
    plain = pk.derivative_report(h, pk.model_kernel(h), np.array([0.0, 0.0]), 0.1, offsets, orders=(1, 2))
    assert rep == plain


def test_wrong_shape_kernel_is_rejected():
    d = pk.Ball(2)
    base = _circle(0.0)
    targets = [_circle(0.5), _circle(1.0)]
    scalar = lambda x, T: 1.0
    too_many = lambda x, T: np.ones(len(T) + 1)
    for bad in (scalar, too_many):
        with pytest.raises(pk.InvalidInputError, match=r"kernel returned shape"):
            pk.normal_sweep(d, bad, base, [0.1], targets)
        with pytest.raises(pk.InvalidInputError, match=r"kernel returned shape"):
            pk.derivative_report(d, bad, base, 0.1, [0.0, 0.2])
    with pytest.raises(pk.InvalidInputError, match=r"kernel returned shape \(\) for 1 targets"):
        pk.kernel_ratio(d, scalar, np.array([0.5, 0.0]), targets[0])

    class OneEstimate:
        def estimate(self, x, T):
            return pk.MeasureEstimate(estimate=1.0, std_error=0.0, walkers_used=1, truncated_walks=0)

    with pytest.raises(pk.InvalidInputError, match=r"returned MeasureEstimate for 2 targets"):
        pk.normal_sweep(d, OneEstimate(), base, [0.1], targets)


class _FaultyEstimator:
    """A kernel object whose ``estimate`` is wrong at its last target."""

    def __init__(self, fault):
        self.fault = fault

    def estimate(self, x, T):
        ests = [pk.MeasureEstimate(estimate=1.0, std_error=0.1, walkers_used=10, truncated_walks=0) for _ in T]
        if self.fault == "nan_estimate":
            ests[-1] = pk.MeasureEstimate(estimate=np.nan, std_error=0.1, walkers_used=10, truncated_walks=0)
        elif self.fault == "nan_std_error":
            ests[-1] = pk.MeasureEstimate(estimate=1.0, std_error=np.nan, walkers_used=10, truncated_walks=0)
        else:
            ests.pop()
        return ests


_ESTIMATOR_FAULTS = {
    "nan_estimate": "kernel.estimate returned nan at target {j} = {y}",
    "nan_std_error": "kernel.estimate std_error returned nan at target {j} = {y}",
    "one_too_few": "kernel.estimate returned shape ({m1},) for {m} targets; expected ({m},)",
}


@pytest.mark.parametrize("fault", list(_ESTIMATOR_FAULTS))
def test_estimator_results_are_checked_by_name(fault):
    # A NaN estimate used to reach c1_hat as nan, and a NaN standard error the records.
    named = _ESTIMATOR_FAULTS[fault]
    d = pk.Ball(2)
    base, targets = [1.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(pk.InvalidInputError, match=re.escape(named.format(j=1, y=targets[1], m1=1, m=2))):
        pk.normal_sweep(d, _FaultyEstimator(fault), base, [0.1], targets)
    with pytest.raises(pk.InvalidInputError, match=re.escape(named.format(j=0, y=targets[1], m1=0, m=1))):
        pk.kernel_ratio(d, _FaultyEstimator(fault), [0.5, 0.0], targets[1])


def test_non_finite_callable_values_are_rejected_by_name():
    # Both used to pass NaN through: the extension returned nan, and the sweep
    # wrote nan ratios while c1_hat/c2_hat came from the other records.
    d = pk.Ball(2)
    spiky = lambda T: np.where(T[:, 0] > 0.99, np.nan, 1.0)
    with pytest.raises(pk.InvalidInputError, match=re.escape("boundary_data returned nan at node 0 = [1.0, 0.0]")):
        pk.harmonic_extend(d, spiky, [0.3, 0.1], 64)
    model = pk.model_kernel(d)
    base, targets = np.array([1.0, 0.0]), [np.array([-1.0, 0.0]), np.array([0.0, 1.0])]
    for bad in (np.nan, np.inf, -np.inf):
        kernel = lambda x, T: np.where(T[:, 1] > 0.1, bad, model(x, T))
        named = re.escape(f"kernel returned {bad} at target 1 = ")
        with pytest.raises(pk.InvalidInputError, match=named + re.escape("[0.0, 1.0]")):
            pk.normal_sweep(d, kernel, base, [0.1, 0.05], targets)
        with pytest.raises(pk.InvalidInputError, match=named):
            pk.derivative_report(d, kernel, base, 0.1, [0.0, 0.2])


def test_sweep_errors_name_the_offending_target():
    d = pk.Ball(2)
    k = pk.model_kernel(d)
    base = np.array([1.0, 0.0])
    distinct = r"x and targets\[1\] must be distinct: both are \[0\.9, 0\.0\]"
    with pytest.raises(pk.InvalidInputError, match=distinct):
        pk.normal_sweep(d, k, base, [0.1], [base, np.array([0.9, 0.0])])
    with pytest.raises(pk.DimensionMismatchError, match=r"targets\[2\]"):
        pk.normal_sweep(d, k, base, [0.1], [base, base, np.zeros(3)])
    with pytest.raises(pk.InvalidInputError, match=r"targets\[1\] has non-finite"):
        pk.normal_sweep(d, k, base, [0.1], [base, np.array([np.inf, 0.0])])
    with pytest.raises(pk.InvalidInputError, match=r"t\[1\] = \[0\.0, 0\.5\] is off the sphere"):
        pk.normal_sweep(d, k, base, [0.1], [base, np.array([0.0, 0.5])])


# A probe past the base's focal or medial distance has another nearest
# boundary point, so its boundary distance is not the requested height.
_SHORT_PROBES = {
    "disc_through_center": (pk.Ball(2), [1.0, 0.0], [0.1, 1.5, 1.9], 1, [-0.5, 0.0], 0.5),
    "ellipse_vertex_focal": (pk.Ellipse([2.0, 1.0]), [2.0, 0.0], [0.4, 0.6, 1.0], 1, [1.4, 0.0], 0.5887840577551898),
}


@pytest.mark.parametrize("case", list(_SHORT_PROBES))
def test_sweep_refuses_a_delta_past_the_focal_distance(case):
    d, base, deltas, k, x, dist = _SHORT_PROBES[case]
    kernel = lambda x, T: np.ones(len(T))  # noqa: E731  never called
    message = (f"deltas[{k}] = {deltas[k]!r} reaches past a focal or medial point of the base's normal: "
               f"x = {x!r} lies at boundary distance {dist!r}, so the base is not its nearest boundary point")
    with pytest.raises(pk.InvalidInputError) as exc:
        pk.normal_sweep(d, kernel, base, deltas, [[0.0, 1.0]])
    assert str(exc.value) == message
    probe = (f"probe_height = {deltas[k]!r} reaches past a focal or medial point of the base's normal: "
             f"x = {x!r} lies at boundary distance {dist!r}, so the base is not its nearest boundary point")
    with pytest.raises(pk.InvalidInputError) as exc:
        pk.derivative_report(d, kernel, base, deltas[k], [0.0, 0.1])
    assert str(exc.value) == probe


def test_sweep_keeps_a_delta_that_rounds_short():
    # x = (1 - 1e-12, 0) rounds to a point 2.2e-17 nearer the circle: that is rounding, not a mismatch.
    d = pk.Ball(2)
    report = pk.normal_sweep(d, pk.model_kernel(d), [1.0, 0.0], [1e-12], [[0.0, 1.0]])
    assert report.records[0].delta == 9.999778782798785e-13
    # A base accepted off the circle (|rho| <= 1e-10) keeps its sweep too.
    base = [1.0 + 5e-11, 0.0]
    report = pk.normal_sweep(d, pk.model_kernel(d), base, [0.1], [[0.0, 1.0]])
    assert report.records[0].delta == pytest.approx(0.1 - 5e-11, abs=1e-16)
    assert pk.derivative_report(d, pk.model_kernel(d), base, 0.1, [0.0, 0.1]).records[0].delta == report.records[0].delta
