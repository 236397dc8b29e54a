"""Walk-on-spheres Monte Carlo estimation of harmonic measure and
Poisson-kernel density on C^2 domains.

A walk started at an interior point jumps to a uniformly random point on the
largest ball around its current position that stays inside the domain (radius
= boundary distance), and stops once it comes within ``stop_tolerance`` of the
boundary, where it is projected onto the nearest boundary point.  The exit
point is then distributed (up to a boundary-layer bias of order
``stop_tolerance``) according to harmonic measure, whose density against
surface measure is the Poisson kernel -- giving a numerical kernel oracle on
domains with no closed form.

Randomness is counter-based (see :mod:`poisskern._rng`): walker ``w`` of a run
with seed ``s`` draws from its own stream regardless of batching, so estimates
are bit-identical across batch sizes and scheduling orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .errors import (
    DomainUnsupportedError,
    EstimationFailureError,
    InvalidInputError,
    WalkTruncatedError,
)
from .geometry import (
    Ball, Domain, Ellipse, Halfspace, _as_points, _gauss_legendre, _integer, _norms, _positive, as_point,
)

__all__ = [
    "WosConfig",
    "MeasureEstimate",
    "run_walks",
    "wos_exit",
    "estimate_cap_measure",
    "estimate_kernel_density",
    "cap_surface_measure",
    "WosKernel",
]

_SEED_LIMIT = 1 << 64
_INDEX_LIMIT = 1 << 63  # walker indices are carried as int64
_IMPLICIT_SAFETY = 0.99  # shrink solver-derived jump radii to absorb tolerance
_TRUNCATION_FAILURE_FRACTION = 0.5  # estimation fails above this share of truncated walks


@dataclass(frozen=True)
class WosConfig:
    """Monte Carlo controls for walk-on-spheres runs.

    ``stop_tolerance`` is the boundary distance at which a walk terminates
    (default: 1e-4 times the domain diameter, or the truncation radius for
    unbounded domains).  ``seed`` lies in ``[0, 2**64)``; together with the
    walker index it determines every walk exactly.  Walks exceeding
    ``max_steps`` or leaving the truncation region are counted as truncated;
    if more than half of the walks truncate, estimation fails rather than
    returning a biased value.  The fields follow the scalar rule (README) and
    are stored as Python ints and floats.
    """

    walkers: int
    seed: int
    stop_tolerance: float | None = None
    max_steps: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "walkers", _integer(self.walkers, "walkers", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        if self.seed >= _SEED_LIMIT:
            raise InvalidInputError(f"seed must be below 2**64, got {self.seed!r}")
        if self.stop_tolerance is not None:
            object.__setattr__(self, "stop_tolerance", _positive(self.stop_tolerance, "stop_tolerance"))
        object.__setattr__(self, "max_steps", _integer(self.max_steps, "max_steps", 1))


@dataclass(frozen=True)
class MeasureEstimate:
    """A Monte Carlo estimate with its sampling standard error.

    ``estimate`` is a probability for cap measures and a nonnegative density
    for kernel estimates.  ``wide_interval`` marks zero-hit density estimates,
    whose ``std_error`` is then a rule-of-three upper bound rather than an
    empirical standard error.
    """

    estimate: float
    std_error: float
    walkers_used: int
    truncated_walks: int
    wide_interval: bool = False


def _resolve_stop(domain: Domain, config: WosConfig, truncation_radius: float | None) -> float:
    if config.stop_tolerance is not None:
        stop = config.stop_tolerance
    else:  # run_walks has already required a truncation radius on unbounded domains
        scale = domain.diameter() if domain.bounded() else truncation_radius
        stop = 1e-4 * scale
    if domain.bounded() and not stop < domain.diameter():
        raise InvalidInputError(
            f"stop_tolerance {stop} must be smaller than the domain diameter {domain.diameter()}"
        )
    return stop


def _walker_indices(walker_indices) -> np.ndarray:
    """Validated stream indices: a 1-D sequence of integers in ``[0, 2**63)``, bools excluded."""
    entries = np.asarray(walker_indices, dtype=object)  # keeps each entry's own type
    if entries.ndim != 1:
        raise InvalidInputError(f"walker_indices must be a 1-D sequence, got shape {entries.shape}")
    for index in entries:
        if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
            raise InvalidInputError(f"walker index {index!r} is not an integer")
        if index < 0:
            raise InvalidInputError(f"walker index {index} is negative")
        if index >= _INDEX_LIMIT:
            raise InvalidInputError(f"walker index {index} is too large: indices must be below 2**63")
    return entries.astype(np.int64)


def run_walks(
    domain: Domain,
    x,
    config: WosConfig,
    truncation_radius: float | None = None,
    walker_indices=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run walk-on-spheres walkers from ``x`` until exit or truncation.

    Returns ``(feet, truncated, steps)``: projected boundary exit points (rows
    of truncated walks hold the last interior position instead and must be
    ignored), a truncation mask (step budget exhausted or left the truncation
    ball ``|pos| > truncation_radius``), and per-walk step counts.  A
    ``truncation_radius`` is a size under the scalar rule (README), with ``x``
    inside its ball; unbounded domains require one.

    ``walker_indices`` selects which counter-based streams to run (default
    ``0 .. walkers-1``); running any subset reproduces exactly the walks the
    full batch would produce for those indices.
    """
    x = as_point(x, domain.dim, name="x")
    if not domain.contains(x):
        raise InvalidInputError(f"walk origin {x.tolist()} is not strictly inside the domain")
    if truncation_radius is not None:
        truncation_radius = _positive(truncation_radius, "truncation_radius")
        if _norms(x[None, :])[0] > truncation_radius:
            raise InvalidInputError(
                f"walk origin {x.tolist()} lies outside the truncation ball of radius {truncation_radius!r}"
            )
    elif not domain.bounded():
        raise InvalidInputError("unbounded domain: a truncation_radius is required")
    stop = _resolve_stop(domain, config, truncation_radius)
    indices = np.arange(config.walkers) if walker_indices is None else _walker_indices(walker_indices)
    n = indices.size
    dim = domain.dim
    draws = _rng.draws_per_step(dim)
    keys = _rng.stream_keys(config.seed, indices)

    pos = np.tile(x, (n, 1))
    final = np.empty((n, dim))
    truncated = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    active = np.arange(n)

    safety = 1.0 if domain.exact_distance else _IMPLICIT_SAFETY
    for it in range(config.max_steps):
        if active.size == 0:
            break
        delta = -domain.signed_distance_batch(pos)
        delta = np.maximum(delta, 0.0) * safety

        # Retire walkers that settled or left the truncation ball; settling wins.
        # Rows move by index: `keys` stays aligned with `active` and `pos`.
        settled = delta < stop
        outside = np.zeros_like(settled)
        if truncation_radius is not None:
            outside = _norms(pos) > truncation_radius
        leave = settled | outside
        if np.any(leave):
            out = np.flatnonzero(leave)
            stay = np.flatnonzero(~leave)
            idx = active[out]
            final[idx] = pos.take(out, axis=0)
            truncated[idx] = outside[out] & ~settled[out]
            steps[idx] = it
            active, keys, delta = active[stay], keys[stay], delta[stay]
            pos = pos.take(stay, axis=0)

        directions = _rng.sphere_directions(keys, it * draws, dim)
        directions *= delta[:, None]
        pos += directions

    # Walkers still active have used up their step budget.
    final[active] = pos
    truncated[active] = True
    steps[active] = config.max_steps

    feet = final.copy()
    settled = ~truncated
    if np.any(settled):
        feet[settled], _ = domain.project_batch(final[settled])
    return feet, truncated, steps


def wos_exit(
    domain: Domain,
    x,
    config: WosConfig,
    walker_index: int,
    truncation_radius: float | None = None,
) -> np.ndarray:
    """Exit point of the single walk with the given counter-stream index.

    Deterministic given ``(config.seed, walker_index)`` and identical to row
    ``walker_index`` of a batched run with the same ``truncation_radius``.
    Raises :class:`WalkTruncatedError`, naming the cause, if this walk
    exhausts its step budget or leaves the truncation ball (use the
    estimators to count truncated walks instead of failing).
    """
    feet, truncated, steps = run_walks(
        domain, x, config, truncation_radius=truncation_radius,
        walker_indices=[walker_index],
    )
    if truncated[0]:
        if steps[0] == config.max_steps:
            cause = f"exceeded {config.max_steps} steps without exiting"
        else:
            cause = f"left the truncation ball of radius {truncation_radius} after {steps[0]} steps"
        raise WalkTruncatedError(f"walk {walker_index} {cause}")
    return feet[0]


def _validate_cap(
    domain: Domain, cap_center, cap_radius: float, name: str = "cap_center"
) -> tuple[np.ndarray, float]:
    center = as_point(cap_center, domain.dim, name=name)
    rho = domain.rho(center)
    if abs(rho) > 1e-8:
        raise InvalidInputError(
            f"{name} = {center.tolist()} is not on the boundary (rho = {rho:.3e})"
        )
    return center, _positive(cap_radius, "cap_radius")


def _cap_estimates(
    feet: np.ndarray, truncated: np.ndarray, centers, radius: float
) -> list[MeasureEstimate]:
    """Cap-measure estimate for each cap center from one set of walks."""
    n = feet.shape[0]
    n_trunc = int(truncated.sum())
    if n_trunc / n > _TRUNCATION_FAILURE_FRACTION:
        raise EstimationFailureError(
            f"{n_trunc} of {n} walks truncated (limit {_TRUNCATION_FAILURE_FRACTION:.0%})"
        )
    out = []
    for center in centers:
        hits = (~truncated) & (_norms(feet - center[None, :]) < radius)
        p = float(hits.sum()) / n
        se = math.sqrt(p * (1.0 - p) / n)
        out.append(MeasureEstimate(estimate=p, std_error=se, walkers_used=n, truncated_walks=n_trunc))
    return out


def estimate_cap_measure(
    domain: Domain,
    x,
    cap_center,
    cap_radius: float,
    config: WosConfig,
    truncation_radius: float | None = None,
) -> MeasureEstimate:
    """Harmonic measure of the chordal boundary cap ``{|tau - center| < radius}``.

    The estimate is the fraction of all walks exiting inside the cap
    (truncated walks never count as hits), with binomial standard error.  It
    is unbiased up to a boundary-layer bias of order ``stop_tolerance``.
    """
    center, radius = _validate_cap(domain, cap_center, cap_radius)
    feet, truncated, _ = run_walks(domain, x, config, truncation_radius=truncation_radius)
    return _cap_estimates(feet, truncated, [center], radius)[0]


def cap_surface_measure(domain: Domain, cap_center, cap_radius: float) -> float:
    """Surface measure of the chordal cap ``{tau on boundary : |tau - center| < radius}``.

    Closed forms: circle arc ``4 r asin(c / 2r)``, sphere cap ``pi c^2``
    (exact for chordal caps), halfspace boundary ball (length ``2c`` in d=2,
    area ``pi c^2`` in d=3, and the general (d-1)-ball volume above).  Ellipse
    caps bracket the two arc endpoints and integrate the arc-length element
    (bisection to full double precision plus Gauss-Legendre); the cap radius
    must stay below the minimum radius of curvature so the cap is a single
    arc.
    """
    center, c = _validate_cap(domain, cap_center, cap_radius)
    if isinstance(domain, Ball):
        r = domain.radius
        if domain.dim == 2:
            return 4.0 * r * math.asin(min(c / (2.0 * r), 1.0))
        if domain.dim == 3:
            return min(math.pi * c * c, 4.0 * math.pi * r * r)
        raise DomainUnsupportedError(
            f"cap measure on spheres is implemented for d in {{2, 3}}, got d = {domain.dim}"
        )
    if isinstance(domain, Halfspace):
        d = domain.dim
        k = d - 1  # boundary dimension
        return math.pi ** (k / 2.0) * c**k / math.gamma(k / 2.0 + 1.0)
    if isinstance(domain, Ellipse):
        return _ellipse_cap_arc_length(domain, center, c)
    raise DomainUnsupportedError(
        f"cap surface measure is not available for {type(domain).__name__} domains"
    )


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` given ``f(lo) < 0 <= f(hi)``, to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _ellipse_cap_arc_length(domain: Ellipse, center: np.ndarray, c: float) -> float:
    if c >= domain.min_curvature_radius():
        raise InvalidInputError(
            f"cap radius {c} is not small relative to the minimum curvature radius "
            f"{domain.min_curvature_radius():.6g}"
        )
    a, b = domain.semi_axes
    cx, cy = float(center[0]), float(center[1])
    theta0 = math.atan2(cy / b, cx / a)

    def h(theta: float) -> float:  # squared chord to boundary_point(theta), minus c^2
        return (a * math.cos(theta) - cx) ** 2 + (b * math.sin(theta) - cy) ** 2 - c * c

    # Bracket the two endpoints by marching outward from the center parameter.
    step = c / (2.0 * max(a, b))
    ends = []
    for sign in (+1.0, -1.0):
        prev = 0.0
        cur = step
        while h(theta0 + sign * cur) < 0.0:
            prev = cur
            cur += step
            if cur > math.pi:
                raise InvalidInputError("cap covers more than half the boundary")
        ends.append(_bisect(lambda u: h(theta0 + sign * u), prev, cur))
    lo, hi = theta0 - ends[1], theta0 + ends[0]
    nodes, weights = _gauss_legendre(64)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.sum(weights * domain.boundary_speed(mid + half * nodes)))


def _density_from_cap(cap: MeasureEstimate, area: float) -> MeasureEstimate:
    if cap.estimate == 0.0:  # a rule-of-three upper bound stands in for the standard error
        return replace(cap, std_error=(3.0 / cap.walkers_used) / area, wide_interval=True)
    return replace(cap, estimate=cap.estimate / area, std_error=cap.std_error / area)


def estimate_kernel_density(
    domain: Domain,
    x,
    y,
    cap_radius: float,
    config: WosConfig,
    truncation_radius: float | None = None,
) -> MeasureEstimate:
    """Poisson-kernel density estimate: cap measure divided by cap area.

    Converges to the kernel value ``P(x, y)`` as ``cap_radius -> 0`` and
    walkers -> infinity, with bias O(cap_radius^2) for smooth kernels plus the
    O(stop_tolerance) boundary layer.  Zero-hit results return estimate 0
    flagged ``wide_interval`` with a rule-of-three interval scale.
    """
    y = as_point(y, domain.dim, name="y")  # one target, so one estimate comes back
    return WosKernel(domain, config, cap_radius, truncation_radius).estimate(x, y)


class WosKernel:
    """Kernel evaluator backed by walk-on-spheres exits.

    Each query walks once from its source point ``x`` and estimates every
    target from that one batch of walker paths, so a ratio sweep over many
    boundary targets costs one Monte Carlo run per source point.  Re-querying
    an ``x`` walks again and reproduces the same exits.  Estimates sharing a
    query are therefore correlated across targets; estimates for different
    ``x`` are independent.  The cap area of each target is computed once per
    kernel and reused by later queries.

    Targets are a single boundary point or an ``(m, d)`` batch.  Calling the
    object returns the density estimate as a float for one point and an array
    of ``m`` estimates for a batch; :meth:`estimate` returns the full
    :class:`MeasureEstimate` (a list of ``m`` for a batch).
    """

    def __init__(
        self,
        domain: Domain,
        config: WosConfig,
        cap_radius: float,
        truncation_radius: float | None = None,
    ):
        self.domain = domain
        self.config = config
        self.cap_radius = _positive(cap_radius, "cap_radius")
        self.truncation_radius = (
            None if truncation_radius is None else _positive(truncation_radius, "truncation_radius")
        )
        self._areas: dict[bytes, float] = {}  # cap area per target; the radius is fixed

    def _area(self, center: np.ndarray) -> float:
        key = center.tobytes()
        if key not in self._areas:
            self._areas[key] = cap_surface_measure(self.domain, center, self.cap_radius)
        return self._areas[key]

    def estimate(self, x, y) -> "MeasureEstimate | list[MeasureEstimate]":
        x = as_point(x, self.domain.dim, name="x")
        Y, single = _as_points(y, self.domain.dim, name="y")
        centers = [
            _validate_cap(self.domain, t, self.cap_radius, name="y" if single else f"y[{j}]")[0]
            for j, t in enumerate(Y)
        ]
        areas = [self._area(center) for center in centers]
        feet, truncated, _ = run_walks(
            self.domain, x, self.config, truncation_radius=self.truncation_radius
        )
        caps = _cap_estimates(feet, truncated, centers, self.cap_radius)
        out = [_density_from_cap(cap, area) for cap, area in zip(caps, areas)]
        return out[0] if single else out

    def __call__(self, x, y) -> "float | np.ndarray":
        est = self.estimate(x, y)
        if isinstance(est, MeasureEstimate):
            return est.estimate
        return np.array([e.estimate for e in est])

    def descriptor(self) -> dict:
        return {
            "kind": "walk_on_spheres",
            "walkers": self.config.walkers,
            "seed": self.config.seed,
            "stop_tolerance": self.config.stop_tolerance,
            "max_steps": self.config.max_steps,
            "cap_radius": self.cap_radius,
            "truncation_radius": self.truncation_radius,
        }
