"""Boundary-asymptotic diagnostics for Poisson kernels.

The central quantity is the ratio ``P(x, y) |x - y|^d / delta(x)`` for
interior ``x`` and boundary ``y``: on smooth domains it is bounded above and
below by positive constants, so sweeping it along inward normals and over
boundary targets exhibits concrete empirical band constants ``c1 <= c2``.
Closed ratio laws on model domains (disc: ``(1 + |x|)/(2 pi)`` independent of
``y``; halfspace: identically ``Gamma(d/2)/pi^{d/2}``) make exact tests
possible; on other domains the kernel is estimated by walk-on-spheres.

Kernels are batch evaluators: ``kernel(x, T)`` takes one interior point and an
``(m, d)`` batch of boundary points and returns ``m`` values (an evaluator
with an ``estimate`` method returns ``m`` Monte Carlo estimates instead).  A
sweep evaluates each source point once, over all of its targets, and hands a
walk-on-spheres kernel all of its source points at once; a single ratio is
the same computation with one target.

The derivative analogue ``|D^k P(x, y)| |x - y|^{d+k} / delta(x)`` is exposed
as a direction-resolved *report*, not an assertion: exact halfspace algebra
shows the normal-direction ratio grows without bound when ``delta << |x - y|``
(it scales like ``|x - y| / delta``) while tangential ratios stay banded, so a
two-sided bound in every direction would be false and is not encoded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    _BOUNDARY_TOL, Domain, _as_points, _callable_values, _direction, _finite, _integer, _interior_probe, _positive,
    _base_normal, _row_norms, as_point, boundary_distance, boundary_distance_batch, rotation_to_last_axis,
)
from .harmonic_measure import WosKernel

__all__ = [
    "RatioRecord",
    "SweepReport",
    "kernel_ratio",
    "normal_sweep",
    "directional_derivative",
    "derivative_ratio",
    "DerivativeRecord",
    "DerivativeReport",
    "derivative_report",
]

FAR_FIELD_SEPARATION_FACTOR = 10.0  # separation > factor * delta tags a record far-field


@dataclass(frozen=True, slots=True)
class RatioRecord:
    """One sample of the boundary-asymptotic ratio.

    ``ratio = kernel * separation**d / delta`` by construction (an arithmetic
    identity on the stored fields).  ``far_field`` tags samples with
    ``separation > 10 * delta``, where the two-sided bound is trivially loose;
    ``std_error`` is the Monte Carlo standard error of ``ratio`` when the
    kernel value was estimated (0 for closed-form kernels).

    Records are frozen and slotted.  The ratio diagnostics fill the slots
    directly, with the constructor's Python float arithmetic, so a record
    equals, hashes and prints as the constructor's, bit for bit.
    """

    x: tuple
    y: tuple
    delta: float
    separation: float
    kernel: float
    ratio: float
    far_field: bool = False
    std_error: float = 0.0


_FIELD_SETTERS = tuple(getattr(RatioRecord, f.name).__set__ for f in fields(RatioRecord))


def kernel_ratio(domain: Domain, kernel, x, y) -> RatioRecord:
    """Evaluate the ratio ``P(x, y) |x - y|^d / delta(x)`` as a record.

    ``kernel`` is a batch evaluator ``(x, T) -> m values``, called here with
    the one-row batch ``T = [y]``; evaluators exposing an ``estimate`` method
    returning ``MeasureEstimate``s (such as the walk-on-spheres kernel) also
    populate the record's standard error.
    """
    x = as_point(x, domain.dim, name="x")
    y = as_point(y, domain.dim, name="y")
    delta = boundary_distance(domain, x)
    T = y[None, :]
    separations = _separations(x, T, name="y")
    values, errors = _kernel_values(kernel, x, T)
    return _ratio_records(domain, x, delta, [tuple(y.tolist())], separations, values, errors)[0]


def _separations(x: np.ndarray, T: np.ndarray, name: str) -> list:
    """``|x - t|`` for each row of the validated targets ``T``, as Python floats;
    a target equal to ``x`` is an input error naming it as ``name[j]``.

    The separation is the 1-D norm of each difference (``_row_norms``): an
    axis-1 norm can differ from it in the last bit."""
    separations = _row_norms(x - T).tolist()
    if 0.0 in separations:
        j = separations.index(0.0)
        raise InvalidInputError(f"x and {name}[{j}] must be distinct: both are {T[j].tolist()}")
    return separations


def _kernel_values(kernel, x: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values at ``x`` against the targets ``T`` and their standard errors,
    which only an estimator (a kernel with ``estimate``) gives: 0 otherwise."""
    if not hasattr(kernel, "estimate"):
        return _callable_values(kernel(x, T), T, "kernel", "target"), np.zeros(len(T))
    return _estimate_values(kernel.estimate(x, T), T)


def _estimate_values(ests, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values and standard errors of an estimator's estimates for the targets ``T``, checked."""
    if not isinstance(ests, (list, tuple)):
        raise InvalidInputError(f"kernel.estimate returned {type(ests).__name__} for {len(T)} "
                                f"targets; expected {len(T)} estimates")
    values = _callable_values([e.estimate for e in ests], T, "kernel.estimate", "target")
    errors = _callable_values([e.std_error for e in ests], T, "kernel.estimate std_error", "target")
    return values, errors


def _ratio_records(
    domain: Domain, x: np.ndarray, delta: float, ys: list, separations: list, values: np.ndarray,
    errors: np.ndarray,
) -> list:
    """The records of the interior point ``x`` at boundary distance ``delta``
    against targets whose rows as tuples are ``ys`` (a sweep shares them across
    its deltas), at the given separations, kernel values and standard errors.

    Each record's slots are filled directly from Python floats, at half the
    cost of the frozen constructor's ``object.__setattr__`` calls, and the
    ratio is computed as ``value * separation**d / delta``: numpy's power or a
    regrouped product would move the last bit of some records.
    """
    d, delta, new = domain.dim, float(delta), object.__new__
    x_tuple, far = tuple(x.tolist()), FAR_FIELD_SEPARATION_FACTOR * delta
    set_x, set_y, set_delta, set_separation, set_kernel, set_ratio, set_far, set_error = _FIELD_SETTERS
    records = []
    for y, separation, value, error in zip(ys, separations, values.tolist(), errors.tolist()):
        power, record = separation**d, new(RatioRecord)
        set_x(record, x_tuple)
        set_y(record, y)
        set_delta(record, delta)
        set_separation(record, separation)
        set_kernel(record, value)
        set_ratio(record, value * power / delta)
        set_far(record, separation > far)
        set_error(record, error * power / delta)
        records.append(record)
    return records


@dataclass(frozen=True)
class SweepReport:
    """Ratio records over a (delta, target) grid with empirical band constants.

    ``c1_hat``/``c2_hat`` are the observed minimum/maximum ratio over the
    grid -- never extrapolated -- so every record's ratio lies in
    ``[c1_hat, c2_hat]`` by construction.  Records are ordered delta-major
    (all targets for the first delta, then the next delta, ...).
    """

    records: tuple
    c1_hat: float
    c2_hat: float
    domain_descriptor: dict
    grid_descriptor: dict

    def to_csv_text(self) -> str:
        """Deterministic CSV body: delta, y_index, separation, kernel, ratio, far_field."""
        n_targets = max(1, len(self.grid_descriptor.get("targets", ())))
        lines = ["delta,y_index,separation,kernel,ratio,far_field"]
        for i, rec in enumerate(self.records):
            lines.append(
                f"{rec.delta!r},{i % n_targets},{rec.separation!r},"
                f"{rec.kernel!r},{rec.ratio!r},{int(rec.far_field)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_summary(self, seed: int | None = None) -> dict:
        return {
            "c1_hat": self.c1_hat,
            "c2_hat": self.c2_hat,
            "grid": self.grid_descriptor,
            "domain": self.domain_descriptor,
            "seed": seed,
        }


def normal_sweep(domain: Domain, kernel, base, deltas, targets) -> SweepReport:
    """Sweep the ratio along the inward normal at ``base`` against ``targets``.

    For each ``delta`` the source point is ``x = base + delta * nu`` (``nu``
    the inward unit normal at ``base``); each boundary target contributes one
    :class:`RatioRecord`.  The report's ``c1_hat``/``c2_hat`` are the observed
    extremes over the whole grid, including far-field records.  A closed-form
    kernel or an estimator is called once per source point, with all targets
    as one batch; a :class:`~poisskern.harmonic_measure.WosKernel` gets all
    source points and all targets in one ``estimate`` call, so their walks
    share one pool, which drains once per sweep, and each record keeps the
    bits of a call per source point; too many truncated walks fail it naming
    their source point as ``x[k]``, ``k`` its delta's index.  Every source
    point is checked against the targets before any kernel call.  A
    ``delta`` past a focal or medial point of the base, where ``x`` lies
    nearer the boundary than ``delta``, raises :class:`InvalidInputError`
    naming it.
    """
    base = as_point(base, domain.dim, name="base")
    nu, gn = _base_normal(domain, base)
    deltas = [_positive(d, f"deltas[{k}]") for k, d in enumerate(deltas)]
    target_pts = [as_point(t, domain.dim, name=f"targets[{j}]") for j, t in enumerate(targets)]
    if not deltas:
        raise InvalidInputError("normal_sweep requires at least one delta")
    if not target_pts:
        raise InvalidInputError("normal_sweep requires at least one target")

    T = np.stack(target_pts)
    ys = [tuple(y) for y in T.tolist()]
    X = base[None, :] + np.array(deltas)[:, None] * nu[None, :]
    dist = _probe_distances(domain, X, deltas, [f"deltas[{k}]" for k in range(len(deltas))], gn)
    separations = [_separations(x, T, name="targets") for x in X]  # every probe is checked before any call
    if isinstance(kernel, WosKernel):
        values = [_estimate_values(ests, T) for ests in kernel.estimate(X, T)]
    else:
        values = [_kernel_values(kernel, x, T) for x in X]
    records = []
    for x, delta, seps, (vals, errors) in zip(X, dist, separations, values):
        records.extend(_ratio_records(domain, x, delta, ys, seps, vals, errors))
    ratios = [rec.ratio for rec in records]
    return SweepReport(
        records=tuple(records),
        c1_hat=float(min(ratios)),
        c2_hat=float(max(ratios)),
        domain_descriptor=domain.descriptor(),
        grid_descriptor={
            "base": base.tolist(),
            "deltas": deltas,
            "targets": T.tolist(),
            "far_field_rule": f"separation > {FAR_FIELD_SEPARATION_FACTOR:g} * delta",
        },
    )


def _probe_distances(domain: Domain, X: np.ndarray, heights: list, labels: list, grad_norm: float) -> list:
    """Boundary distances of the probes ``x = base + h * nu``, refusing (by ``h``'s label) one nearer the boundary
    than ``h``: the normal passes a focal or medial point of the base first.  The slack is the base's own tolerance,
    ``1e-10 / |grad rho|`` in length, plus the distance solves' 1e-12 relative tolerance."""
    distances = boundary_distance_batch(domain, X).tolist()
    for x, h, dist, label in zip(X, heights, distances, labels):
        if h - dist > _BOUNDARY_TOL / grad_norm + 1e-12 * max(1.0, float(np.abs(x).max())):
            raise InvalidInputError(f"{label} = {h!r} reaches past a focal or medial point of the base's normal: "
                                    f"x = {x.tolist()} lies at boundary distance {dist!r}, so the base is not "
                                    "its nearest boundary point")
    return distances


def directional_derivative(kernel, x, y, order: int, direction, step: float) -> float:
    """Central finite-difference directional derivative of ``x -> kernel(x, y)``.

    Order 1 uses the two-point central difference, order 2 the three-point
    stencil.  ``direction`` is normalized internally; ``step`` is the absolute
    difference step along it.  ``kernel`` is a batch evaluator, called at each
    stencil point on the one-row batch ``[y]`` with the shape check that
    :func:`derivative_report` applies to its target batches.  A Monte Carlo
    kernel (one with an ``estimate`` method) raises :class:`InvalidInputError`.
    """
    x = as_point(x, name="x")
    Y = as_point(y, x.size, name="y")[None, :]
    u = _direction(direction, x.size, "direction")
    u = u / np.linalg.norm(u)
    order, step = _order(order), _positive(step, "step")
    return float(_difference_quotient(kernel, x, Y, u, order, step)[0])


def _difference_quotient(kernel, x: np.ndarray, Y: np.ndarray, u: np.ndarray, order: int, step: float):
    """Central difference (order 1 or 2) of ``p -> kernel(p, Y)`` at ``x`` along the unit vector ``u``,
    the one stencil of the derivative diagnostics.  It refuses a kernel with an ``estimate`` method:
    differences of Monte Carlo estimates at these steps are noise, or 0 on shared walker streams."""
    if hasattr(kernel, "estimate"):
        raise InvalidInputError(f"kernel {type(kernel).__name__} is a Monte Carlo estimator (it has an "
                                "estimate method); derivative diagnostics need a closed-form kernel")

    def values(p):
        return _callable_values(kernel(p, Y), Y, "kernel", "target")

    if order == 1:
        return (values(x + step * u) - values(x - step * u)) / (2.0 * step)
    return (values(x + step * u) - 2.0 * values(x) + values(x - step * u)) / (step * step)


def _order(order) -> int:
    """A derivative order: the integer 1 or 2."""
    if _integer(order, "derivative order", 1) > 2:
        raise InvalidInputError(f"derivative order must be 1 or 2, got {order!r}")
    return int(order)


def derivative_ratio(domain: Domain, kernel, x, y, order: int, direction) -> float:
    """Direction-resolved derivative ratio ``|D^k P| |x - y|^{d+k} / delta(x)``.

    ``kernel`` must be closed-form: a Monte Carlo one (with an ``estimate``
    method) raises :class:`InvalidInputError`.  The difference step is
    ``max(1e-6, 1e-4 * delta(x))``; the error names ``x`` if ``delta(x)`` is
    not above the step, where the stencil would leave the domain, and ``y``
    if it lies within 10 steps of ``x``, where the stencil would straddle it.
    """
    x = as_point(x, domain.dim, name="x")
    y = as_point(y, domain.dim, name="y")
    order = _order(order)
    direction = _direction(direction, domain.dim, "direction")
    delta = boundary_distance(domain, x)
    step = max(1e-6, 1e-4 * delta)
    (record,) = _derivative_records(domain, kernel, x, delta, y[None, :], [(direction, "")], (order,), step, "y")
    return record.ratio


def _derivative_records(domain: Domain, kernel, x, delta: float, Y, directions, orders, step: float, name: str):
    """The records of the interior point ``x`` at boundary distance ``delta``
    against the targets ``Y``, target-major, then by direction and order: the
    one home of the separations, the two stencil guards and the ratio
    ``|D^k P| |x - y|^{d+k} / delta``.  ``directions`` are ``(vector, label)``
    pairs, each vector normalized for its stencil.  ``name`` labels ``Y`` in
    errors: ``"y"``, one target of a given ``x``, or ``"targets"``, whose
    ``x`` the probe height set."""
    one = name == "y"
    source = "x" if one else "x = base + probe_height * nu"
    if not delta > step:
        raise InvalidInputError(f"{source} = {x.tolist()} is within one difference step of the boundary "
                                f"(delta = {delta:.6g} <= step = {step:.6g}): the stencil would leave the domain")
    separations = _row_norms(x - Y).tolist()
    close = [j for j, s in enumerate(separations) if s < 10.0 * step]
    if close:
        j = close[0]
        raise InvalidInputError(f"{name if one else f'{name}[{j}]'} = {Y[j].tolist()} is too close to {source} = "
                                f"{x.tolist()} for the difference step ({separations[j]:.3e} < 10 x {step:.3e})")
    # Each (direction, order) stencil is evaluated over all targets at once.
    derivs = {(i, k): _difference_quotient(kernel, x, Y, v / np.linalg.norm(v), k, step).tolist()
              for i, (v, _) in enumerate(directions) for k in orders}
    x_tuple = tuple(x.tolist())
    return [DerivativeRecord(x=x_tuple, y=tuple(y), direction=tuple(v.tolist()), direction_label=label, order=k,
                             derivative=derivs[i, k][j], delta=float(delta), separation=s,
                             ratio=float(abs(derivs[i, k][j]) * s ** (domain.dim + k) / delta))
            for j, (y, s) in enumerate(zip(Y.tolist(), separations)) for i, (v, label) in enumerate(directions)
            for k in orders]


@dataclass(frozen=True)
class DerivativeRecord:
    """One direction-resolved derivative-ratio sample."""

    x: tuple
    y: tuple
    direction: tuple
    direction_label: str  # "tangential" or "normal"
    order: int
    derivative: float
    ratio: float
    delta: float
    separation: float


@dataclass(frozen=True)
class DerivativeReport:
    """Direction-resolved derivative diagnostic along a boundary tangent.

    ``normal_ratio_unbounded`` flags the regime the exact halfspace algebra
    predicts: the normal-direction ratio grows like ``separation / delta``
    once targets move tangentially away from the base, so it is set when the
    largest normal-direction ratio of the lowest requested order exceeds three
    times the smallest-separation one.  Tangential ratios stay banded and are
    reported for comparison; no two-sided bound is asserted.
    """

    records: tuple
    normal_ratio_unbounded: bool
    base: tuple
    probe_height: float

    def to_json_summary(self) -> dict:
        return {
            "base": list(self.base),
            "probe_height": self.probe_height,
            "normal_ratio_unbounded": self.normal_ratio_unbounded,
            "records": [asdict(r) for r in self.records],
        }


def derivative_report(
    domain: Domain,
    kernel,
    base,
    probe_height: float,
    tangential_offsets,
    orders=(1,),
) -> DerivativeReport:
    """Build the direction-resolved derivative diagnostic at one boundary point.

    The probe point is ``x = base + h * nu`` with ``h = probe_height``;
    targets are the boundary projections of ``base + offset * tangent`` for
    each tangential offset (exact boundary points on flat boundaries).  For
    every target, each tangent direction and the normal direction contribute
    one record per requested order.  A Monte Carlo kernel (with an
    ``estimate`` method) raises :class:`InvalidInputError`, and so does a
    probe height past a focal or medial point of the base.
    """
    base = as_point(base, domain.dim, name="base")
    h = _positive(probe_height, "probe_height")
    orders = tuple(_order(order) for order in orders)
    if not orders:
        raise InvalidInputError("orders must name at least one derivative order (1 or 2)")
    for i, order in enumerate(orders):
        if order in orders[:i]:
            raise InvalidInputError(f"derivative order {order!r} is requested more than once")
    nu, gn = _base_normal(domain, base)
    x = _interior_probe(domain, base, nu, h, "probe_height")
    tangents = list(rotation_to_last_axis(nu)[:-1])

    offsets = [_finite(t, f"tangential_offsets[{j}]") for j, t in enumerate(tangential_offsets)]
    if not offsets:
        raise InvalidInputError("at least one tangential offset is required")
    with np.errstate(over="ignore"):  # a row that an offset sends to infinity is named below
        Y = base[None, :] + np.array(offsets)[:, None] * tangents[0][None, :]
    Y, _ = _as_points(Y, domain.dim, name="targets")
    on = np.abs(domain._rho_values(Y)) <= _BOUNDARY_TOL
    if not np.all(on):
        Y[~on] = domain._project(Y[~on], None)[0]
    directions = [(t, "tangential") for t in tangents] + [(nu, "normal")]
    (delta,) = _probe_distances(domain, x[None, :], [h], ["probe_height"], gn)
    records = _derivative_records(domain, kernel, x, delta, Y, directions, orders, max(1e-6, 1e-4 * h), "targets")

    normal_first = [
        r for r in records if r.direction_label == "normal" and r.order == min(orders)
    ]
    flag = False
    if len(normal_first) >= 2:
        nearest = min(normal_first, key=lambda r: r.separation).ratio
        largest = max(r.ratio for r in normal_first)
        flag = largest > 3.0 * nearest if nearest > 0.0 else largest > 0.0
    return DerivativeReport(
        records=tuple(records),
        normal_ratio_unbounded=flag,
        base=tuple(base.tolist()),
        probe_height=h,
    )
