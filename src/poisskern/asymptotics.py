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
sweep evaluates each source point once, over all of its targets; a single
ratio is the same computation with one target.

The derivative analogue ``|D^k P(x, y)| |x - y|^{d+k} / delta(x)`` is exposed
as a direction-resolved *report*, not an assertion: exact halfspace algebra
shows the normal-direction ratio grows without bound when ``delta << |x - y|``
(it scales like ``|x - y| / delta``) while tangential ratios stay banded, so a
two-sided bound in every direction would be false and is not encoded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    Domain, _callable_values, _integer, _positive, _row_norms, as_point, boundary_distance, boundary_frame,
    inward_normal,
)

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


@dataclass(frozen=True)
class RatioRecord:
    """One sample of the boundary-asymptotic ratio.

    ``ratio = kernel * separation**d / delta`` by construction (an arithmetic
    identity on the stored fields).  ``far_field`` tags samples with
    ``separation > 10 * delta``, where the two-sided bound is trivially loose;
    ``std_error`` is the Monte Carlo standard error of ``ratio`` when the
    kernel value was estimated (0 for closed-form kernels).
    """

    x: tuple
    y: tuple
    delta: float
    separation: float
    kernel: float
    ratio: float
    far_field: bool = False
    std_error: float = 0.0


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
    return _ratio_records(domain, kernel, x, delta, y[None, :], name="y")[0]


def _kernel_batch(kernel, x: np.ndarray, T: np.ndarray) -> tuple[list, list | None]:
    """One kernel call at ``x`` over the rows of ``T``: values and standard errors."""
    m = T.shape[0]
    if hasattr(kernel, "estimate"):
        ests = kernel.estimate(x, T)
        is_sequence = isinstance(ests, (list, tuple))
        if not is_sequence or len(ests) != m:
            got = f"{len(ests)} estimates" if is_sequence else type(ests).__name__
            raise InvalidInputError(
                f"kernel.estimate returned {got} for {m} targets; expected {m} estimates"
            )
        return [e.estimate for e in ests], [e.std_error for e in ests]
    return _kernel_values(kernel, x, T).tolist(), None


def _kernel_values(kernel, x: np.ndarray, T: np.ndarray) -> np.ndarray:
    return _callable_values(kernel(x, T), T, "kernel", "target")


def _ratio_records(
    domain: Domain, kernel, x: np.ndarray, delta: float, T: np.ndarray, name: str = "targets"
) -> list:
    # x is a validated interior point with delta = delta(x) > 0 and T an
    # (m, d) batch of validated points; ``name`` labels T's rows in errors.
    # The separation is the 1-D norm of each difference (``_row_norms``): an
    # axis-1 norm can differ from it in the last bit.
    separations = _row_norms(x - T).tolist()
    if 0.0 in separations:
        j = separations.index(0.0)
        raise InvalidInputError(f"x and {name}[{j}] must be distinct: both are {T[j].tolist()}")
    values, errors = _kernel_batch(kernel, x, T)
    d = domain.dim
    x_tuple = tuple(x.tolist())
    records = []
    for j, (y, separation, value) in enumerate(zip(T.tolist(), separations, values)):
        se_ratio = 0.0 if errors is None else errors[j] * separation**d / delta
        records.append(
            RatioRecord(
                x=x_tuple,
                y=tuple(y),
                delta=float(delta),
                separation=separation,
                kernel=float(value),
                ratio=float(value * separation**d / delta),
                far_field=bool(separation > FAR_FIELD_SEPARATION_FACTOR * delta),
                std_error=float(se_ratio),
            )
        )
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
    extremes over the whole grid, including far-field records.  The kernel is
    called once per source point, with all targets as one batch.
    """
    base = as_point(base, domain.dim, name="base")
    nu = inward_normal(domain, base)
    deltas = [float(d) for d in deltas]
    target_pts = [as_point(t, domain.dim, name=f"targets[{j}]") for j, t in enumerate(targets)]
    if not deltas:
        raise InvalidInputError("normal_sweep requires at least one delta")
    if not target_pts:
        raise InvalidInputError("normal_sweep requires at least one target")

    T = np.stack(target_pts)
    X = base[None, :] + np.array(deltas)[:, None] * nu[None, :]
    outside = np.flatnonzero(~(domain.rho_batch(X) < 0.0))
    if outside.size:
        raise InvalidInputError(
            f"delta = {deltas[outside[0]]} leaves the domain from base {base.tolist()}"
        )
    dist = -domain.signed_distance_batch(X)
    shallow = np.flatnonzero(~(dist > 0.0))
    if shallow.size:
        k = int(shallow[0])
        raise InvalidInputError(
            f"x = {X[k].tolist()} (delta = {deltas[k]}) is not strictly inside the domain"
        )
    records = []
    for x, delta in zip(X, dist.tolist()):
        records.extend(_ratio_records(domain, kernel, x, delta, T))
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


def directional_derivative(kernel, x, y, order: int, direction, step: float) -> float:
    """Central finite-difference directional derivative of ``x -> kernel(x, y)``.

    Order 1 uses the two-point central difference, order 2 the three-point
    stencil.  ``direction`` is normalized internally; ``step`` is the absolute
    difference step along it.  ``kernel`` is a batch evaluator, called at each
    stencil point on the one-row batch ``[y]`` with the shape check that
    :func:`derivative_report` applies to its target batches.
    """
    x = as_point(x, name="x")
    Y = as_point(y, x.size, name="y")[None, :]
    u = as_point(direction, x.size, name="direction")
    un = np.linalg.norm(u)
    if un < 1e-300:
        raise InvalidInputError("direction must be a nonzero vector")
    u = u / un
    order, step = _order(order), _positive(step, "step")
    return float(_difference_quotient(lambda p: _kernel_values(kernel, p, Y), x, u, order, step)[0])


def _difference_quotient(values, x: np.ndarray, u: np.ndarray, order: int, step: float):
    """Central difference of ``p -> values(p)`` at ``x`` along the unit vector ``u`` (order 1 or 2)."""
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

    ``kernel`` must be a closed-form evaluator (finite differences of Monte
    Carlo estimates are meaningless at these steps).  The difference step is
    ``max(1e-6, 1e-4 * delta(x))``; ``x`` must be at least 10 steps away from
    ``y`` so the stencil never straddles the singularity.
    """
    x = as_point(x, domain.dim, name="x")
    y = as_point(y, domain.dim, name="y")
    order = _order(order)
    delta = boundary_distance(domain, x)
    step = max(1e-6, 1e-4 * delta)
    separation = float(np.linalg.norm(x - y))
    if separation < 10.0 * step:
        raise InvalidInputError(
            f"x is too close to y for the difference step ({separation:.3e} < 10 x {step:.3e})"
        )
    deriv = directional_derivative(kernel, x, y, order, direction, step)
    return abs(deriv) * separation ** (domain.dim + order) / delta


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
    one record per requested order.
    """
    base = as_point(base, domain.dim, name="base")
    h = _positive(probe_height, "probe_height")
    orders = tuple(_order(order) for order in orders)
    if not orders:
        raise InvalidInputError("orders must name at least one derivative order (1 or 2)")
    for i, order in enumerate(orders):
        if order in orders[:i]:
            raise InvalidInputError(f"derivative order {order!r} is requested more than once")
    frame = boundary_frame(domain, base, h)
    nu = frame.inward_normal
    x = base + h * nu
    tangents = [frame.rotation[i] for i in range(domain.dim - 1)]

    offsets = [float(t) for t in tangential_offsets]
    if not offsets:
        raise InvalidInputError("at least one tangential offset is required")
    Y = base[None, :] + np.array(offsets)[:, None] * tangents[0][None, :]
    on = np.abs(domain.rho_batch(Y)) <= 1e-10
    if not np.all(on):
        Y[~on] = domain.project_batch(Y[~on])[0]

    # Each (direction, order) stencil is evaluated over all targets at once.
    step = max(1e-6, 1e-4 * h)
    directions = [(t, "tangential") for t in tangents] + [(nu, "normal")]
    derivs = {}
    for i, (direction, _) in enumerate(directions):
        u = direction / np.linalg.norm(direction)
        for order in orders:
            derivs[i, order] = _difference_quotient(
                lambda p: _kernel_values(kernel, p, Y), x, u, order, step
            ).tolist()
    delta = -domain.signed_distance(x)
    x_tuple = tuple(x.tolist())
    records = []
    for j, (y, separation) in enumerate(zip(Y, _row_norms(x - Y).tolist())):
        for i, (direction, label) in enumerate(directions):
            for order in orders:
                deriv = derivs[i, order][j]
                records.append(
                    DerivativeRecord(
                        x=x_tuple,
                        y=tuple(y.tolist()),
                        direction=tuple(direction.tolist()),
                        direction_label=label,
                        order=order,
                        derivative=deriv,
                        ratio=float(abs(deriv) * separation ** (domain.dim + order) / delta),
                        delta=float(delta),
                        separation=separation,
                    )
                )

    normal_first = [
        r for r in records if r.direction_label == "normal" and r.order == min(orders)
    ]
    flag = False
    if len(normal_first) >= 2:
        by_sep = sorted(normal_first, key=lambda r: r.separation)
        nearest = by_sep[0].ratio
        largest = max(r.ratio for r in normal_first)
        flag = largest > 3.0 * nearest if nearest > 0.0 else largest > 0.0
    return DerivativeReport(
        records=tuple(records),
        normal_ratio_unbounded=flag,
        base=tuple(base.tolist()),
        probe_height=h,
    )
