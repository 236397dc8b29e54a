"""Closed-form Poisson kernels on model domains and the Poisson-integral
harmonic extension by boundary quadrature.

For the ball of center ``c`` and radius ``r`` in dimension ``d``::

    P(x, t) = Gamma(d/2) / (2 pi^{d/2}) * (r^2 - |x - c|^2) / (r |x - t|^d)

and for the upper halfspace ``{x_d > 0}`` with boundary point ``t`` (t_d = 0)::

    P(x, t) = Gamma(d/2) / pi^{d/2} * x_d / (|x' - t'|^2 + x_d^2)^{d/2}

Both integrate to one over the boundary; the halfspace case is truncated at a
finite radius with an analytic bound on the omitted tail.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainUnsupportedError,
    InvalidInputError,
    RefinementNeededError,
)
from .geometry import (
    Ball,
    Domain,
    Halfspace,
    _as_points,
    _callable_values,
    _integer,
    _norms,
    _positive,
    _sum_squares,
    as_point,
    boundary_distance,
    boundary_quadrature,
)

__all__ = [
    "ball_constant",
    "halfspace_constant",
    "poisson_ball",
    "poisson_halfspace",
    "ball_kernel",
    "halfspace_kernel",
    "model_kernel",
    "harmonic_extend",
    "kernel_normalization",
    "halfspace_truncation_tail",
]

# A kernel evaluator maps an interior point and an (m, d) batch of boundary
# points to m values; given a single boundary point it returns one float.
# The ratio diagnostics call every evaluator with a batch.
KernelEvaluator = Callable[[np.ndarray, np.ndarray], "float | np.ndarray"]


def ball_constant(d: int) -> float:
    """Normalizing constant Gamma(d/2) / (2 pi^{d/2}) of the ball kernel."""
    d = _integer(d, "d", 2, DimensionMismatchError)
    return math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0))


def halfspace_constant(d: int) -> float:
    """Normalizing constant Gamma(d/2) / pi^{d/2} of the halfspace kernel."""
    d = _integer(d, "d", 2, DimensionMismatchError)
    return math.gamma(d / 2.0) / math.pi ** (d / 2.0)


def _check_nonsingular(hit: np.ndarray, t: np.ndarray) -> None:
    if np.any(hit):
        j = np.flatnonzero(hit)[0]
        raise InvalidInputError(f"kernel is singular at x = t[{j}] = {t[j].tolist()}")


def _ball_values(x: np.ndarray, t: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d = x.size
    inradius = np.linalg.norm(x - center)
    if not inradius < radius:
        raise InvalidInputError(
            f"x must be interior to the ball (|x - c| = {inradius:.6g}, radius = {radius:.6g})"
        )
    tol = 1e-9 * max(radius, 1.0)
    offsets = np.abs(_norms(t - center) - radius)
    bad = np.flatnonzero(offsets > tol)
    if bad.size:
        j = bad[0]
        raise InvalidInputError(
            f"boundary point t[{j}] = {t[j].tolist()} is off the sphere by {offsets[j]:.3e} "
            f"(tolerance {tol:.1e})"
        )
    sep = _norms(t - x[None, :])
    _check_nonsingular(sep == 0.0, t)
    return ball_constant(d) * (radius**2 - inradius**2) / (radius * sep**d)


def _halfspace_values(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = x.size
    if not x[-1] > 0.0:
        raise InvalidInputError(f"x must lie in the open upper halfspace (x_d = {x[-1]:.6g})")
    bad = np.flatnonzero(np.abs(t[:, -1]) > 1e-8)
    if bad.size:
        j = bad[0]
        raise InvalidInputError(
            f"boundary point t[{j}] = {t[j].tolist()} is off the hyperplane by {abs(t[j, -1]):.3e}"
        )
    sq = _sum_squares(t[:, :-1] - x[None, :-1]) + x[-1] ** 2
    _check_nonsingular(sq == 0.0, t)
    return halfspace_constant(d) * x[-1] / sq ** (d / 2.0)


def model_kernel(domain: Domain) -> KernelEvaluator:
    """Closed-form Poisson-kernel evaluator for a model domain.

    Balls and halfspaces have exact kernels; other domains have none and must
    be estimated (see :mod:`poisskern.harmonic_measure`).  A ball kernel takes
    boundary points within ``1e-9 * max(radius, 1)`` of the sphere, so dilated
    balls with large radii accept their own floating-point boundary points; a
    halfspace kernel takes boundary points with ``|t_d| <= 1e-8``.
    """
    if isinstance(domain, Ball):
        values = functools.partial(_ball_values, center=domain.center, radius=domain.radius)
    elif isinstance(domain, Halfspace):
        values = _halfspace_values
    else:
        raise DomainUnsupportedError(
            f"no closed-form Poisson kernel for {type(domain).__name__} domains; "
            "use the walk-on-spheres estimator instead"
        )
    d = domain.dim

    def evaluate(x, t):
        x = as_point(x, d, name="x")
        T, single = _as_points(t, d, name="t")
        out = values(x, T)
        return float(out[0]) if single else out

    return evaluate


def ball_kernel(center, radius: float) -> KernelEvaluator:
    """Exact Poisson-kernel evaluator for the ball ``B(center, radius)``."""
    return model_kernel(Ball(center=center, radius=radius))


def halfspace_kernel(d: int) -> KernelEvaluator:
    """Exact Poisson-kernel evaluator for the upper halfspace in dimension d."""
    return model_kernel(Halfspace(d))


def poisson_ball(d: int, x, t) -> "float | np.ndarray":
    """Poisson kernel of the unit ball in dimension ``d`` at ``(x, t)``.

    ``x`` must be strictly inside (|x| < 1) and ``t`` on the unit sphere to
    1e-9, the ball tolerance ``1e-9 * max(radius, 1)`` of :func:`model_kernel`;
    ``t`` may be a single point or an ``(n, d)`` batch.
    """
    return model_kernel(Ball(d))(x, t)


def poisson_halfspace(d: int, x, t) -> "float | np.ndarray":
    """Poisson kernel of the upper halfspace ``{x_d > 0}`` at ``(x, t)``.

    ``x`` must satisfy ``x_d > 0`` and ``t`` must lie on the boundary
    hyperplane (|t_d| <= 1e-8); ``t`` may be a single point or a batch.  The
    kernel is translation-invariant along the boundary and homogeneous of
    degree ``-(d-1)`` under simultaneous scaling of ``x`` and ``t``.
    """
    return model_kernel(Halfspace(d))(x, t)


def harmonic_extend(
    domain: Domain,
    boundary_data,
    x,
    resolution: int,
    truncation: float | None = None,
) -> float:
    """Poisson integral ``int P(x, t) f(t) dsigma(t)`` by boundary quadrature.

    Evaluates the harmonic extension of continuous boundary data ``f`` at an
    interior point.  ``boundary_data`` is a batch callable: on the ``(n, d)``
    array of quadrature nodes it returns the ``(n,)`` data values, and any
    other shape is rejected.  Halfspace domains require a ``truncation`` radius.

    Raises :class:`RefinementNeededError` when the quadrature node spacing
    exceeds the boundary distance of ``x`` -- the kernel peak would slip
    between nodes, so the result could not be trusted.
    """
    x = as_point(x, domain.dim, name="x")
    delta = boundary_distance(domain, x)
    rule = boundary_quadrature(domain, resolution, truncation=truncation)
    if rule.spacing > delta:
        raise RefinementNeededError(
            f"node spacing {rule.spacing:.3e} exceeds boundary distance {delta:.3e}; "
            "increase the resolution"
        )
    kern = model_kernel(domain)
    values = np.asarray(kern(x, rule.nodes), dtype=float)
    f = _callable_values(boundary_data(rule.nodes), rule.nodes, "boundary_data", "node")
    return float(np.sum(rule.weights * values * f))


def kernel_normalization(
    domain: Domain,
    x,
    resolution: int,
    truncation: float | None = None,
) -> float:
    """Quadrature of ``int P(x, t) dsigma(t)``; equals 1 on bounded models.

    On the truncated halfspace the value falls short of 1 by the omitted tail;
    see :func:`halfspace_truncation_tail` for the analytic bound.
    """
    return harmonic_extend(domain, lambda nodes: np.ones(len(nodes)), x, resolution, truncation=truncation)


def halfspace_truncation_tail(d: int, x, truncation: float) -> float:
    """Poisson-kernel mass omitted by truncating the boundary at ``truncation``.

    Exact in d = 2 (arctangent integral); an upper bound in d = 3 (worst-case
    recentering of the truncation disc).  This is the amount by which a
    truncated normalization integral falls short of 1.
    """
    d = _integer(d, "d", 2, DimensionMismatchError)
    x = as_point(x, d, name="x")
    if not x[-1] > 0.0:
        raise InvalidInputError(
            f"x = {x.tolist()} must lie in the open upper halfspace (x_d = {x[-1]:.6g})"
        )
    T = _positive(truncation, "truncation")
    if d == 2:
        covered = (math.atan((T - x[0]) / x[1]) + math.atan((T + x[0]) / x[1])) / math.pi
        return 1.0 - covered
    if d == 3:
        margin = T - float(np.linalg.norm(x[:-1]))
        if margin <= 0.0:
            return 1.0
        return x[-1] / math.hypot(margin, x[-1])
    raise DomainUnsupportedError(
        f"truncation tail is implemented for d in {{2, 3}}, got d = {d}"
    )
