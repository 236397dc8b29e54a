"""Walk-on-spheres Monte Carlo estimation of harmonic measure and
Poisson-kernel density on C^2 domains.

A walk started at an interior point jumps to a uniformly random point on a
ball around its current position that lies inside the domain, and stops once
that ball's radius falls below ``stop_tolerance``, where it is projected onto
the nearest boundary point.  On balls and halfspaces the radius is the
boundary distance; on ellipses and implicit domains it is a certified
inscribed radius from a bound on the Hessian of the defining function, which
never exceeds the boundary distance and tends to it at the boundary.  The exit
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
    Ball, Domain, Ellipse, Halfspace, _as_points, _distances, _gauss_legendre, _integer, _positive, as_point,
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
_TRUNCATION_FAILURE_FRACTION = 0.5  # estimation fails above this share of truncated walks
_POOL = 16384  # walker slots, refilled in place: a step's (dim, slots) temporaries stay cache-sized
# Walkers per run_walks call of an estimator, whose results are all it holds
# per walker.  Each call ends in a drain of the pool, passes over ever fewer
# walkers: at 16 pool fills these cost no measurable time on a 2e6-walker disc
# estimate, at 8 about 10%.
_CHUNK = 16 * _POOL


@dataclass(frozen=True)
class WosConfig:
    """Monte Carlo controls for walk-on-spheres runs.

    ``stop_tolerance`` is the jump radius below which a walk settles
    (default: 1e-4 times the domain diameter, or the truncation radius for
    unbounded domains).  ``seed`` lies in ``[0, 2**64)``; together with the
    walker index it determines every walk exactly.  ``max_steps`` is the
    number of jumps a walk may make; the settle rule applies after the last
    one too.  Walks not settled after ``max_steps`` jumps or leaving the
    truncation region are counted as truncated; if more than half of the
    walks truncate, estimation fails rather than returning a biased value.
    The fields follow the scalar rule (README) and are stored as Python ints
    and floats.
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
    for kernel estimates.  ``wide_interval`` marks zero-hit estimates, whose
    ``std_error`` is the rule-of-three bound ``3 / walkers_used`` (over the cap
    area for a density) rather than an empirical standard error.
    """

    estimate: float
    std_error: float
    walkers_used: int
    truncated_walks: int
    wide_interval: bool = False


def _walker_indices(walker_indices) -> "np.ndarray | range":
    """Validated stream indices: a 1-D sequence of integers in ``[0, 2**63)``, bools excluded.

    A range whose ends lie in bounds is kept as a range, not copied; anything
    else is checked entry by entry, as a range out of bounds is.  An error
    names the first offending entry.
    """
    if isinstance(walker_indices, range):
        ends = (walker_indices[0], walker_indices[-1]) if walker_indices else (0, 0)
        if 0 <= min(ends) and max(ends) < _INDEX_LIMIT:
            # Monotone, so its ends bound every entry.  Its step fits int64 once
            # it spans two entries; a shorter range gets step 1.
            if len(walker_indices) < 2:
                return range(ends[0], ends[0] + len(walker_indices))
            return walker_indices
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


def _walk_origins(
    domain: Domain, x, config: WosConfig, truncation_radius: float | None
) -> tuple[np.ndarray, float, float | None, np.ndarray]:
    """The checked walk origins ``x`` as a ``(k, d)`` batch, the stop tolerance,
    the truncation radius and the origins' jump radii.

    An origin outside the domain or the truncation ball, or whose jump radius
    is not above the stop tolerance, is an input error naming it: by its
    coordinates (``x = ...`` in the stop's message) for one point, as
    ``x[j] = ...`` for a batch.
    """
    X, single = _as_points(x, domain.dim, name="x")
    if not len(X):
        raise InvalidInputError("x holds no walk origin: a batch of sources needs at least one row")

    def origin(j: int, named: bool = False) -> str:
        label = "x = " if named else ""
        return f"{label}{X[j].tolist()}" if single else f"x[{j}] = {X[j].tolist()}"

    outside = np.flatnonzero(~(domain._rho_values(X) < 0.0))
    if outside.size:
        raise InvalidInputError(f"walk origin {origin(outside[0])} is not strictly inside the domain")
    if truncation_radius is not None:
        truncation_radius = _positive(truncation_radius, "truncation_radius")
        far = np.flatnonzero(_distances(X) > truncation_radius)
        if far.size:
            raise InvalidInputError(
                f"walk origin {origin(far[0])} lies outside the truncation ball of radius {truncation_radius!r}"
            )
    elif not domain.bounded():
        raise InvalidInputError("unbounded domain: a truncation_radius is required")
    stop = config.stop_tolerance
    if stop is None:
        stop = 1e-4 * (domain.diameter() if domain.bounded() else truncation_radius)
    origin_radii = domain._jump_radii(X)
    shallow = np.flatnonzero(~(origin_radii > stop))
    if shallow.size:
        j = int(shallow[0])
        raise InvalidInputError(
            f"stop_tolerance {stop!r} is not below the jump radius {float(origin_radii[j])!r} at the walk "
            f"origin {origin(j, named=True)}: every walker would settle where it starts"
        )
    return X, stop, truncation_radius, origin_radii


def run_walks(
    domain: Domain,
    x,
    config: WosConfig,
    truncation_radius: float | None = None,
    walker_indices=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run walk-on-spheres walkers from ``x`` until exit or truncation.

    ``x`` is one walk origin or a ``(k, d)`` batch of them, the sources.
    Returns ``(feet, truncated, steps)``: projected boundary exit points (rows
    of truncated walks hold the last interior position instead and must be
    ignored), a truncation mask (not settled after ``config.max_steps`` jumps,
    or left the truncation ball ``|pos| > truncation_radius``), and per-walk
    step counts, the jumps made before settling or truncating.  Settling and
    leaving are checked before every jump and after the last allowed one.  A
    ``truncation_radius`` is a size under the scalar rule (README), with every
    origin inside its ball; unbounded domains require one.

    Every origin's own jump radius must exceed the stop tolerance, or every
    walker would settle where it starts: otherwise
    :class:`InvalidInputError` names both and the origin (``x``, or ``x[j]``
    of a batch), as it names an origin outside the domain.

    ``walker_indices`` selects which counter-based streams to run (default
    ``0 .. walkers-1``); running any subset reproduces exactly the walks the
    full batch would produce for those indices.  A ``range`` is kept as it is
    rather than copied into an array.  Every source runs the same streams:
    results are source-major, so with ``n`` streams rows ``j n .. (j + 1) n``
    are source ``j``'s walks, bit for bit those of a run from ``x[j]`` alone.

    The three results are the only arrays held per walker, ``8 d + 9`` bytes:
    stream keys are derived a pool's worth ahead of the queue, so memory
    beyond the results does not grow with the walker count.

    Walkers of all sources step in one pool of at most ``_POOL`` (16384)
    slots, so each step's temporaries stay cache-sized and a batch drains
    the pool once, not once per source.  A freed slot is refilled in place
    by the next queued walker, which jumps from its own origin by that
    origin's jump radius in the same pass, and the pool shrinks only once the
    queue is empty.  Positions are coordinate-major, ``(d, slots)``, and
    domains get the ``(slots, d)`` transpose: elementwise arithmetic does not
    depend on the layout, and row sums from 8 columns on reduce C-order
    copies.  Each slot carries its stream key advanced past the draws its
    walker has made, so a step draws directions at draw 0 of those keys,
    which are the walker's own draws at its jump count.  No row depends on
    the rows beside it, so the pool size, the sources beside a walk, any
    subset and :func:`wos_exit` give every walk bit for bit.  Settled walkers
    are projected onto the boundary in blocks of at most ``_POOL`` rows too,
    so the settle's temporaries stay as small as a step's; each foot depends
    only on its own row, so the blocks give the bits of one call over all of
    them.
    """
    X, stop, truncation_radius, origin_radii = _walk_origins(domain, x, config, truncation_radius)
    # glibc's malloc trims the top of its heap once more than twice its mmap
    # threshold lies free there, and raises that threshold from 128 KiB only
    # when a block above it is freed.  Until then a pass's temporaries, a few
    # pool-sized arrays, are trimmed and faulted back in on every pass: 11.6k
    # minor faults in a process's first 1e5-walker disc estimate against 1.0k.
    # Freeing one untouched block of eight pool rows first keeps them on the heap.
    np.empty(8 * _POOL)
    indices = range(config.walkers) if walker_indices is None else _walker_indices(walker_indices)
    n = len(indices)
    total = n * len(X)
    dim = domain.dim
    step = _rng.key_step(_rng.draws_per_step(dim))
    origins = np.ascontiguousarray(X.T)  # a coordinate per row, as the pool holds positions

    def queue_keys(lo: int, hi: int) -> np.ndarray:
        """Stream keys of queued walkers ``lo .. hi - 1``, counted across sources."""
        block = np.arange(lo, hi, dtype=np.int64) % n  # int64: np.arange would promote a stop of 2**63 to float64
        if isinstance(indices, range):
            return _rng.stream_keys(config.seed, indices.start + indices.step * block)
        return _rng.stream_keys(config.seed, indices.take(block))

    def place(slots: np.ndarray, first: int) -> np.ndarray:
        """Put queued walkers ``first ..`` at their origins in ``slots``; their origins' jump radii."""
        if len(X) == 1:
            for c in range(dim):
                pos[c, slots] = origins[c, 0]
            return origin_radii[0]
        sources = np.arange(first, first + slots.size) // n
        for c in range(dim):
            pos[c, slots] = origins[c].take(sources)
        return origin_radii.take(sources)

    final = np.empty((total, dim))
    truncated = np.zeros(total, dtype=bool)
    steps = np.zeros(total, dtype=np.int64)

    # The pool: output row, advanced stream key, position (a column of the
    # coordinate-major pos) and the pass at which it left its origin, of each
    # walker in flight, in fixed slots that stay aligned across the four
    # arrays: at pass ``it`` a walker has made ``it - born`` jumps, and none
    # can have made ``max_steps`` before pass ``max_steps``.  The keys of the
    # next walkers to queue up, at most a pool's worth, wait in ``ahead``.
    admitted = min(total, _POOL)
    rows = np.arange(admitted)
    keys = queue_keys(0, admitted)
    ahead = keys[:0]
    pos = np.empty((dim, admitted))
    place(rows, 0)
    born = np.zeros(admitted, dtype=np.int64)
    it = 0
    while rows.size:
        radius = domain._jump_radii(pos.T)

        # Retire walkers that settled, left the truncation ball or made their
        # last allowed jump; settling wins over both other causes.
        settled = radius < stop
        leave = settled
        if it >= config.max_steps:
            leave = leave | (born <= it - config.max_steps)
        if truncation_radius is not None:
            leave = leave | (_distances(pos.T) > truncation_radius)
        out = leave.nonzero()[0]
        if out.size:
            idx = rows[out]
            for c in range(dim):
                final[idx, c] = pos[c, out]
            if leave is not settled:  # else every leaver settled: truncated holds False already
                truncated[idx] = ~settled[out]
            steps[idx] = it - born[out]
            # Queued walkers take the freed slots at their origins, no jumps made,
            # and jump in this pass.
            slots = out[: total - admitted]
            if slots.size:
                if ahead.size < slots.size:
                    queued = admitted + ahead.size
                    ahead = np.concatenate((ahead, queue_keys(queued, min(total, queued + _POOL))))
                rows[slots] = np.arange(admitted, admitted + slots.size)
                keys[slots] = ahead[: slots.size]
                ahead = ahead[slots.size :]
                radius[slots] = place(slots, admitted)
                born[slots] = it
                admitted += slots.size
            if slots.size < out.size:  # the queue is empty: drop the slots left free
                leave[slots] = False
                stay = np.flatnonzero(~leave)
                rows, keys, born, radius = rows[stay], keys[stay], born[stay], radius[stay]
                pos = pos.take(stay, axis=1)

        directions = _rng.sphere_directions(keys, 0, dim).T
        directions *= radius
        pos += directions
        keys += step
        it += 1

    for block in _settled_blocks(truncated):
        final[block] = domain._settled_feet(final.take(block, axis=0))
    return final, truncated, steps


def _settled_blocks(truncated: np.ndarray):
    """Rows of the settled walkers in order, in blocks of ``_POOL`` (the last may be
    shorter), from a scan of ``truncated`` a pool's worth at a time."""
    held = np.empty(0, dtype=np.intp)
    for lo in range(0, truncated.size, _POOL):
        held = np.concatenate((held, lo + np.flatnonzero(~truncated[lo : lo + _POOL])))
        if held.size >= _POOL:
            yield held[:_POOL]
            held = held[_POOL:]
    if held.size:
        yield held


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
    Raises :class:`WalkTruncatedError`, naming the cause, if this walk is not
    settled after ``config.max_steps`` jumps or leaves the truncation ball;
    the cause is read from the walk's last position, outside that ball or
    not (use the estimators to count truncated walks instead of failing).
    """
    feet, truncated, steps = run_walks(
        domain, as_point(x, domain.dim, name="x"), config, truncation_radius=truncation_radius,
        walker_indices=[walker_index],
    )
    if truncated[0]:
        if truncation_radius is not None and _distances(feet)[0] > truncation_radius:
            cause = f"left the truncation ball of radius {truncation_radius} after {steps[0]} steps"
        else:
            cause = f"exceeded {config.max_steps} steps without exiting"
        raise WalkTruncatedError(f"walk {walker_index} {cause}")
    return feet[0]


def _check_cap_centers(domain: Domain, T: np.ndarray, name: str, single: bool) -> None:
    """The cap-center rule: one ``_rho_values`` over the validated batch ``T``; the first row with
    ``|rho| > 1e-8`` raises :class:`InvalidInputError` naming it ``name`` (``name[j]`` unless ``single``)."""
    rho = domain._rho_values(T)
    off = np.flatnonzero(~(np.abs(rho) <= 1e-8))
    if off.size:
        j = int(off[0])
        label = name if single else f"{name}[{j}]"
        raise InvalidInputError(f"{label} = {T[j].tolist()} is not on the boundary (rho = {rho[j]:.3e})")


def _walk_chunks(sources: int, n: int):
    """The ``run_walks`` calls of an estimate over ``sources`` sources of ``n``
    walkers each, none holding more than ``_CHUNK`` rows: ``(j0, j1, indices)``
    runs sources ``j0 .. j1 - 1`` on ``indices``.  One plan: a call takes
    ``max(1, _CHUNK // n)`` whole sources, which one pool walks, and their
    walkers in index ranges of ``_CHUNK``; ``indices`` is None, all ``n``
    walkers, when one range would hold them all."""
    per = max(1, _CHUNK // n)
    for j0 in range(0, sources, per):
        for lo in range(0, n, _CHUNK):
            yield j0, min(sources, j0 + per), None if n <= _CHUNK else range(lo, min(n, lo + _CHUNK))


def _cap_estimates(
    domain: Domain, x, config: WosConfig, truncation_radius: float | None, centers, radius: float
) -> list[list[MeasureEstimate]]:
    """Cap-measure estimates for each source of ``x`` (one point, or a batch of
    source rows) and each cap center, each source from one run of
    ``config.walkers`` walks.  Every origin is checked, and named as
    :func:`run_walks` names it, before any walk.

    The walks run in the calls of :func:`_walk_chunks`, at most ``_CHUNK``
    rows each across the sources they hold, and each call's feet are counted
    against every center a pool's worth of rows at a time, so only the integer
    hit and truncation counts outlive a call.  The counts, hence every
    estimate, are those of one run per source over all its walkers.  A source
    with more than half of its walks truncated fails the estimate, naming its
    count, and for a batch of sources the source as ``x[j] = ...``, once all
    sources have walked.
    """
    X = _walk_origins(domain, x, config, truncation_radius)[0]
    n = config.walkers
    hits = [[0] * len(centers) for _ in X]
    n_trunc = [0] * len(X)
    for j0, j1, chunk in _walk_chunks(len(X), n):
        feet, truncated = run_walks(domain, X[j0:j1], config, truncation_radius, walker_indices=chunk)[:2]
        m = n if chunk is None else len(chunk)
        for j in range(j0, j1):
            rows = slice((j - j0) * m, (j - j0 + 1) * m)
            n_trunc[j] += int(np.count_nonzero(truncated[rows]))
            for b in range(rows.start, rows.stop, _POOL):
                block = slice(b, min(rows.stop, b + _POOL))
                settled = ~truncated[block]
                for i, center in enumerate(centers):
                    hits[j][i] += int(np.count_nonzero(settled & (_distances(feet[block], center) < radius)))
        del feet, truncated  # before the next call's results are made
    for j, count in enumerate(n_trunc):
        if count / n > _TRUNCATION_FAILURE_FRACTION:
            source = "" if np.ndim(x) == 1 else f" from x[{j}] = {X[j].tolist()}"
            raise EstimationFailureError(
                f"{count} of {n} walks truncated (limit {_TRUNCATION_FAILURE_FRACTION:.0%}){source}"
            )
    return [[_cap_estimate(count, n, trunc) for count in counts] for counts, trunc in zip(hits, n_trunc)]


def _cap_estimate(count: int, n: int, n_trunc: int) -> MeasureEstimate:
    """The estimate of ``count`` hits in ``n`` walks: binomial, or the rule of three without a hit."""
    p = float(count) / n
    se = math.sqrt(p * (1.0 - p) / n) if p > 0.0 else 3.0 / n  # no hits: a rule-of-three upper bound
    return MeasureEstimate(p, se, n, n_trunc, wide_interval=p == 0.0)


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
    (truncated walks never count as hits), with binomial standard error, or
    the rule-of-three bound if none hit.  It is unbiased up to a
    boundary-layer bias of order ``stop_tolerance``.  Walks run ``_CHUNK``
    walkers at a time and only hit counts are kept, so memory does not grow
    with ``config.walkers``; the counts, hence the bits, do not depend on the
    chunking.
    """
    center = as_point(cap_center, domain.dim, name="cap_center")
    _check_cap_centers(domain, center[None, :], "cap_center", single=True)
    radius = _positive(cap_radius, "cap_radius")
    x = as_point(x, domain.dim, name="x")
    return _cap_estimates(domain, x, config, truncation_radius, [center], radius)[0][0]


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
    center = as_point(cap_center, domain.dim, name="cap_center")
    _check_cap_centers(domain, center[None, :], "cap_center", single=True)
    return _cap_area(domain, center, _positive(cap_radius, "cap_radius"))


def _cap_area(domain: Domain, center: np.ndarray, c: float) -> float:
    """:func:`cap_surface_measure` of an already checked cap center and radius."""
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
    y = as_point(y, domain.dim, name="y")
    kernel = WosKernel(domain, config, cap_radius, truncation_radius)
    return kernel.estimate(as_point(x, domain.dim, name="x"), y)  # one source, one target: one estimate


class WosKernel:
    """Kernel evaluator backed by walk-on-spheres exits.

    Each query walks once from each source point ``x`` and estimates every
    target from that one batch of walker paths, so a ratio sweep over many
    boundary targets costs one Monte Carlo run per source point.  Re-querying
    an ``x`` walks again and reproduces the same exits.  Estimates sharing a
    source are therefore correlated across targets; estimates for different
    sources are independent in distribution, though every source runs the
    same walker streams.  The kernel keeps nothing between calls: each query
    computes its targets' cap areas, which costs little beside its walks.

    Sources are a single interior point or a ``(k, d)`` batch, and the
    sources of one query share one walker pool (see :func:`run_walks`), which
    drains once per query, not once per source: :func:`normal_sweep` hands
    its probes over in one query.  A query walks at most ``_CHUNK`` walker
    rows at a time, counted across its sources, and keeps only each target's
    hit count, so its memory does not grow with the walker or source count,
    and each source's estimates are those of one run over all its walkers,
    bit for bit, whatever sources share its query.

    Targets are a single boundary point or an ``(m, d)`` batch.  Calling the
    object returns the density estimate as a float for one point and an array
    of ``m`` estimates for a batch; :meth:`estimate` returns the full
    :class:`MeasureEstimate` (a list of ``m`` for a batch).  A source batch
    gives a list of ``k`` such results (a ``(k,)`` or ``(k, m)`` array when
    called), row ``j`` being the result for ``x[j]`` alone.
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

    def estimate(self, x, y) -> "MeasureEstimate | list":
        X, one_source = _as_points(x, self.domain.dim, name="x")
        Y, single = _as_points(y, self.domain.dim, name="y")
        _check_cap_centers(self.domain, Y, "y", single)
        areas = [_cap_area(self.domain, center, self.cap_radius) for center in Y]
        out = []
        for caps in _cap_estimates(self.domain, X[0] if one_source else X, self.config, self.truncation_radius,
                                   Y, self.cap_radius):
            densities = [_density_from_cap(cap, area) for cap, area in zip(caps, areas)]
            out.append(densities[0] if single else densities)
        return out[0] if one_source else out

    def __call__(self, x, y) -> "float | np.ndarray":
        est = self.estimate(x, y)
        if isinstance(est, MeasureEstimate):
            return est.estimate
        return np.array([[e.estimate for e in row] if isinstance(row, list) else row.estimate for row in est])

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
