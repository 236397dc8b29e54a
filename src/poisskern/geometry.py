"""Domain geometry: defining functions, signed distance, boundary projection,
normal frames, and boundary quadrature.

Conventions used throughout the package:

* Points are 1-D ``numpy`` arrays of length ``d >= 2`` (batches are ``(n, d)``
  arrays).
* A domain is the open set ``{x : rho(x) < 0}`` for a C^2 defining function
  ``rho`` with nonvanishing gradient on the boundary.
* ``signed_distance`` is negative inside and positive outside; the boundary
  distance of an interior point is ``delta(x) = -signed_distance(x)``.
* Inward unit normals are ``-grad rho / |grad rho|``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainUnsupportedError,
    InvalidInputError,
    ProjectionAmbiguityError,
)

__all__ = [
    "Domain",
    "Ball",
    "Halfspace",
    "Ellipse",
    "Implicit",
    "ImplicitPolynomial",
    "BoundaryFrame",
    "QuadratureRule",
    "boundary_frame",
    "boundary_quadrature",
    "rotation_to_last_axis",
]

_BOUNDARY_TOL = 1e-10
_TIE_TOL = 1e-8
_STARTS = 5  # flowed-grid starts of the implicit nearest-point solve, per point
_START_BLOCK = 1 << 18  # entries in one block of the point-to-start distance table


def as_point(x, dim: int | None = None, name: str = "point") -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float array of length >= 2."""
    arr = _float_array(x, name)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-D coordinate vector, got shape {arr.shape}")
    if arr.size < 2:
        raise DimensionMismatchError(f"{name} must have dimension >= 2, got {arr.size}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"{name} has dimension {arr.size}, expected {dim}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} has non-finite coordinates: {arr.tolist()}")
    return arr


def _as_points(X, dim: int, name: str = "points") -> tuple[np.ndarray, bool]:
    """The one place that decides point or batch: a finite ``(n, dim)`` float
    batch of ``X`` and whether ``X`` was one point (a batch of one, so a
    one-point result is row 0 of its batch).

    Raises :class:`DimensionMismatchError` naming ``name`` for any other shape
    and :class:`InvalidInputError` naming the first row with a non-finite
    coordinate.
    """
    arr = _float_array(X, name)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"{name} must be a point of dimension {dim} or an (n, {dim}) batch, got shape {np.shape(X)}"
        )
    if not np.isfinite(arr).all():
        i = int(np.argmax(~np.isfinite(arr).all(axis=1)))
        label = name if single else f"{name}[{i}]"
        raise InvalidInputError(f"{label} has non-finite coordinates: {arr[i].tolist()}")
    return arr, single


def _float_array(x, name: str) -> np.ndarray:
    """``x`` as a float array; what numpy cannot convert is an input error naming ``name``."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must hold real numbers: {exc}") from exc


def _positive(value, name: str) -> float:
    """A size: a real number (numpy's too; bools and strings are not), finite and > 0, as a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < math.inf:
        return float(value)
    raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


def _finite(value, name: str) -> float:
    """A real number (numpy's too; bools and strings are not) that is finite, as a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")


def _integer(value, name: str, minimum: int, error: type = InvalidInputError) -> int:
    """A count: an integer (numpy's too; bools are not) >= ``minimum``, as an int.

    Dimensions pass ``error=DimensionMismatchError``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _callable_values(
    values, points: np.ndarray, source: str, label: str, shape: tuple = (), finite: bool = True
) -> np.ndarray:
    """What a user callable returned for the ``n`` rows of ``points``: an
    ``(n,) + shape`` float array, ``shape`` being ``()`` for values, ``(d,)``
    for gradients and ``(d, d)`` for Hessians.

    A wrong shape is an input error naming ``source`` and both shapes; so is
    a NaN or infinite value, naming the ``label`` row it belongs to, unless
    ``finite`` is false."""
    values = _float_array(values, source)
    n = points.shape[0]
    expected = (n,) + shape
    if values.shape != expected:
        raise InvalidInputError(f"{source} returned shape {values.shape} for {n} {label}s; expected {expected}")
    if finite and not np.isfinite(values).all():
        j = int(np.argmax(~np.isfinite(values.reshape(n, -1)).all(axis=1)))
        raise InvalidInputError(f"{source} returned {values[j]} at {label} {j} = {points[j].tolist()}")
    return values


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit as ``np.linalg.norm`` gives it
    for the row alone (a dot product); an axis-1 norm can differ in the last bit."""
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


def _distances(T: np.ndarray, p: np.ndarray | None = None, squared: bool = False) -> np.ndarray:
    """Euclidean distance from each row of ``T`` to the point ``p`` (the origin
    if None), or its square, bit for bit ``np.linalg.norm(T - p, axis=1)`` on C-order rows.

    Below 8 columns numpy adds the squares in column order, which a sum over
    the columns of ``T`` repeats several times faster, with no ``(n, d)``
    difference array: each column's difference and square go to one scratch
    column and are added into the result, which holds the first square, so
    the bits are numpy's and only two ``n``-arrays are made.  From 8 columns
    on numpy sums pairwise, so its own reduction is used, on C-order squares
    whatever the layout of ``T``.
    """
    if T.shape[1] >= 8:
        D = T if p is None else T - p
        s = np.add.reduce(np.multiply(D, D, order="C"), axis=1)
    else:
        s, w = np.empty(len(T)), np.empty(len(T))
        for j in range(T.shape[1]):
            t = T[:, j] if p is None else np.subtract(T[:, j], p[j], out=w)
            if j:
                s += np.multiply(t, t, out=w)
            else:
                np.multiply(t, t, out=s)
    return s if squared else np.sqrt(s, out=s)


def _inscribed_radii(rho: np.ndarray, grad_norm: np.ndarray, hess_bound: float) -> np.ndarray:
    """Radius of a ball around each point that lies inside ``{rho < 0}``, 0
    where ``rho >= 0``, given ``|grad rho|`` there and a bound ``M`` on the
    spectral norm of the Hessian of ``rho`` over the ball.

    By Taylor's theorem ``rho(x + v) <= rho + |g| |v| + M |v|^2 / 2``, which is
    negative while ``|v|`` is below the positive root ``r`` of the right-hand
    side; ``r = -2 rho / (|g| + sqrt(|g|^2 - 2 M rho))`` is that root without
    the cancellation of the textbook form.  The ball is connected and holds
    the point, so it lies inside the domain; ``r`` never exceeds the boundary
    distance and tends to it as ``rho -> 0``.
    """
    s = np.negative(rho)
    np.maximum(s, 0.0, out=s)
    denominator = np.multiply(s, 2.0 * hess_bound)
    radii = np.multiply(grad_norm, grad_norm)
    denominator += radii  # |g|^2 + 2 M s: a sum of two terms rounds alike in either order
    np.sqrt(denominator, out=denominator)
    denominator += grad_norm
    inside = s > 0.0
    s += s
    radii.fill(0.0)
    return np.divide(s, denominator, out=radii, where=inside)


def _direction(vector, dim: int, name: str = "tie_break") -> np.ndarray:
    """A direction: a point of dimension ``dim`` that is not the zero vector."""
    t = as_point(vector, dim, name=name)
    if np.linalg.norm(t) < 1e-300:
        raise InvalidInputError(f"{name} must be a nonzero vector")
    return t


class Domain:
    """Open set ``{x : rho(x) < 0}`` described by a defining function.

    Subclasses implement private primitives on an already validated
    ``(n, d)`` batch: ``_rho_values`` and ``_grad_values`` (``rho`` and its
    gradient), plus ``diameter`` and ``descriptor``.  Domains whose distance
    needs a solver implement one nearest-point primitive, ``_nearest``, from
    which the ``_signed_distances`` and ``_project`` primitives are derived
    here; domains whose ``rho`` is their signed distance (balls and
    halfspaces) set ``_signed_distances = _rho_values`` and write
    ``_project`` in closed form.  Only this class writes the public queries,
    each of which validates its input once and calls a primitive; the library
    calls the primitives on batches it already holds.  Each row of a batch
    result depends only on the same row of the input, so a batch of one, any
    subset of a batch and the whole batch agree bit for bit.  The one-point
    queries ``rho``, ``rho_grad``, ``contains``, ``signed_distance`` and
    ``project_to_boundary`` are row 0 of a batch of one.

    A walk asks two more things of a domain: ``_jump_radii``, the radius of a
    ball around each point that lies inside the domain, and ``_settled_feet``,
    the boundary feet of the points where walks settled.  By default they are
    the boundary distance and ``_project``'s feet.  Halfspaces read their
    radius off the last coordinate; the ellipse and implicit domains take a
    certified radius from a bound on the Hessian of ``rho`` instead of a
    nearest-point solve.  The ellipse and implicit domains also write their
    own ``_settled_feet``: the ellipse the feet of ``_project`` bit for bit,
    with its errors, without the mirror feet and normals; implicit domains a
    Newton solve from each settled point.  A walk asks both on batches of at
    most its pool size: ``_jump_radii`` on the walkers in flight, of every
    source of the walk, and ``_settled_feet`` on settled walkers projected in
    blocks of at most ``harmonic_measure._POOL`` (16384) rows.
    """

    dim: int

    # -- batch primitives ---------------------------------------------------
    def _rho_values(self, X: np.ndarray) -> np.ndarray:
        """``rho`` at each row of the already validated batch ``X``."""
        raise NotImplementedError

    def _grad_values(self, X: np.ndarray) -> np.ndarray:
        """The gradient of ``rho`` at each row of the already validated batch ``X``."""
        raise NotImplementedError

    def _nearest(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nearest boundary foot of each row of ``X`` and its nearest rival foot.

        Returns ``(feet, dist, rival, rival_dist)``; ``rival_dist`` is ``inf``
        where a row has no rival.  ``X`` is an already validated batch.
        """
        raise NotImplementedError

    def _signed_distances(self, X: np.ndarray) -> np.ndarray:
        """Euclidean distances of the rows of ``X`` to the boundary, negative inside."""
        _, dist, _, _ = self._nearest(X)
        return np.where(self._rho_values(X) < 0.0, -dist, dist)

    def _project(self, X: np.ndarray, tie_break) -> tuple[np.ndarray, np.ndarray]:
        """Nearest boundary points of the rows of ``X`` and the inward unit normals there."""
        feet, dist, rival, rival_dist = self._nearest(X)
        distinct = _distances(feet - rival) > _TIE_TOL
        ties = distinct & (rival_dist - dist < _TIE_TOL)
        if np.any(ties):
            if tie_break is None:
                i = int(np.argmax(ties))
                raise ProjectionAmbiguityError(
                    f"point {X[i].tolist()} is equidistant from boundary feet "
                    f"{feet[i].tolist()} and {rival[i].tolist()}; supply a tie_break direction"
                )
            t = _direction(tie_break, self.dim)
            swap = ties & (np.sum(rival * t, axis=1) > np.sum(feet * t, axis=1))
            feet[swap] = rival[swap]
        g = self._grad_values(feet)
        gn = _distances(g)
        flat = gn < 1e-12
        if np.any(flat):
            i = int(np.argmax(flat))
            raise InvalidInputError(
                f"degenerate gradient at boundary point {feet[i].tolist()}, "
                f"the projection of point {X[i].tolist()}"
            )
        return feet, -g / gn[:, None]

    # -- walk primitives ----------------------------------------------------
    def _jump_radii(self, X: np.ndarray) -> np.ndarray:
        """Radius of a ball around each row of ``X`` that lies inside the
        domain, 0 where a row is not inside: the boundary distance itself."""
        radii = np.negative(self._signed_distances(X))
        return np.maximum(radii, 0.0, out=radii)

    def _settled_feet(self, X: np.ndarray) -> np.ndarray:
        """Boundary feet of the rows of ``X``, points where walks settled next to the boundary."""
        return self._project(X, None)[0]

    # -- public queries: each validates its input once ----------------------
    def rho_batch(self, X) -> np.ndarray:
        """The defining function at each row of ``X``."""
        return self._rho_values(_as_points(X, self.dim)[0])

    def rho_grad_batch(self, X) -> np.ndarray:
        """The gradient of the defining function at each row of ``X``."""
        return self._grad_values(_as_points(X, self.dim)[0])

    def signed_distance_batch(self, X) -> np.ndarray:
        """Euclidean distances to the boundary, negative inside."""
        return self._signed_distances(_as_points(X, self.dim)[0])

    def project_batch(self, X, tie_break=None) -> tuple[np.ndarray, np.ndarray]:
        """Nearest boundary points and the inward unit normals there.

        Intended for points inside the collar where the nearest boundary point
        is unique.  If a row's rival foot is distinct from its foot and no more
        than 1e-8 farther away, a :class:`ProjectionAmbiguityError` naming the
        first such point is raised, unless ``tie_break`` (a direction vector)
        is supplied, in which case each tied row takes the foot with the larger
        projection onto ``tie_break``.  Normals are ``-grad rho / |grad rho|``
        at the feet; a degenerate gradient raises :class:`InvalidInputError`
        naming the point.
        """
        return self._project(_as_points(X, self.dim)[0], tie_break)

    # -- one-point queries: row 0 of a batch of one ------------------------
    def rho(self, x) -> float:
        return float(self._rho_values(as_point(x, self.dim)[None, :])[0])

    def rho_grad(self, x) -> np.ndarray:
        return self._grad_values(as_point(x, self.dim)[None, :])[0]

    def contains(self, x) -> bool:
        """Strict interior membership (boundary points are not interior)."""
        return self.rho(x) < 0.0

    def signed_distance(self, x) -> float:
        """Euclidean distance to the boundary, negative inside."""
        return float(self._signed_distances(as_point(x, self.dim)[None, :])[0])

    def project_to_boundary(self, x, tie_break=None) -> tuple[np.ndarray, np.ndarray]:
        """Nearest boundary point and the inward unit normal there (see :meth:`project_batch`)."""
        feet, normals = self._project(as_point(x, self.dim)[None, :], tie_break)
        return feet[0], normals[0]

    def diameter(self) -> float:
        """Diameter of the domain (``inf`` for unbounded domains)."""
        raise NotImplementedError

    def bounded(self) -> bool:
        return math.isfinite(self.diameter())

    def descriptor(self) -> dict:
        """JSON-serializable description of the domain."""
        raise NotImplementedError


class Ball(Domain):
    """Open ball of given center and radius (disc in 2-D)."""

    def __init__(self, dim: int | None = None, center=None, radius: float = 1.0):
        if dim is not None:
            dim = _integer(dim, "dim", 2, DimensionMismatchError)
        elif center is None:
            raise InvalidInputError("Ball requires a dimension or an explicit center")
        self.center = as_point(np.zeros(dim) if center is None else center, dim, name="center")
        self.dim = self.center.size
        self.radius = _positive(radius, "radius")
        # Subtracting a zero center leaves every square as it was: skip it.
        self._offset = self.center if self.center.any() else None

    def _rho_values(self, X: np.ndarray) -> np.ndarray:
        r = _distances(X, self._offset)
        r -= self.radius
        return r

    def _grad_values(self, X: np.ndarray) -> np.ndarray:
        V = X - self.center
        r = _row_norms(V)
        at_center = r < 1e-300
        if np.any(at_center):
            raise InvalidInputError(
                f"point {X[np.argmax(at_center)].tolist()} is at the ball center, "
                "where the gradient of the defining function is undefined"
            )
        return V / r[:, None]

    _signed_distances = _rho_values

    def _project(self, X: np.ndarray, tie_break):
        V = X - self.center
        r = _distances(V)
        tied = r < _TIE_TOL
        if np.any(tied):
            # Every boundary point is (nearly) equidistant from the center.
            if tie_break is None:
                raise ProjectionAmbiguityError(
                    f"point {X[np.argmax(tied)].tolist()} is at the ball center, where all "
                    "boundary points are equidistant; supply a tie_break direction"
                )
            t = _direction(tie_break, self.dim)
            V[tied] = t
            r[tied] = np.linalg.norm(t)
        U = V / r[:, None]
        return self.center + self.radius * U, -U

    def diameter(self) -> float:
        return 2.0 * self.radius

    def descriptor(self) -> dict:
        return {
            "kind": "ball",
            "dim": self.dim,
            "radius": self.radius,
            "center": self.center.tolist(),
        }


class Halfspace(Domain):
    """Upper halfspace ``{x : x_d > 0}`` with flat boundary ``{x_d = 0}``."""

    def __init__(self, dim: int):
        self.dim = _integer(dim, "dim", 2, DimensionMismatchError)

    def _rho_values(self, X: np.ndarray) -> np.ndarray:
        return -X[:, -1]

    def _grad_values(self, X: np.ndarray) -> np.ndarray:
        G = np.zeros_like(X)
        G[:, -1] = -1.0
        return G

    _signed_distances = _rho_values

    def _jump_radii(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X[:, -1], 0.0)  # the boundary distance, -rho, negated twice

    def _project(self, X: np.ndarray, tie_break):
        feet = X.copy()
        feet[:, -1] = 0.0
        normals = np.zeros_like(X)
        normals[:, -1] = 1.0
        return feet, normals

    def diameter(self) -> float:
        return math.inf

    def descriptor(self) -> dict:
        return {"kind": "halfspace", "dim": self.dim}


def _ellipse_quadrant_feet(p: np.ndarray, q: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """First-quadrant nearest-point feet ``(fx, fy)`` on the axis-aligned
    ellipse (a >= b) for the points ``(p, q)`` with ``p, q >= 0``.

    Solves ``F(u) = (a p / (u + a^2 - b^2))^2 + (b q / u)^2 - 1 = 0`` for the
    shifted Lagrange multiplier ``u = t + b^2 > 0`` by Newton iteration from
    ``u0 = b q``.  ``F`` is convex and decreasing on ``(0, inf)`` with
    ``F(u0) >= 0``, so the iteration increases monotonically to the unique
    root; the foot is then ``(a^2 p / (u + a^2 - b^2), b^2 q / u)``.  Working
    in ``u`` rather than ``t`` avoids the catastrophic cancellation of
    ``t + b^2`` for points near the major axis, where the root has tiny ``u``.
    Each row's iterate is frozen once it has converged, so its result does
    not depend on the other rows.  Points on the major axis, where ``b q``
    is 0 or subnormal (its start would overflow ``1 / u``), with
    ``p < (a^2 - b^2)/a`` take the closed-form off-axis branch instead, and
    the others on it the vertex ``(a, 0)``.
    """
    on_axis = b * q < np.finfo(float).tiny
    generic = ~on_axis
    fx = np.empty_like(p)
    fy = np.empty_like(q)
    if np.any(on_axis):
        pa = p[on_axis]
        fxa = np.empty_like(pa)
        fya = np.empty_like(pa)
        crit = (a * a - b * b) / a  # evolute cusp on the major axis
        off = pa < crit
        # Inside the cusp the nearest points leave the axis symmetrically.
        xo = a * a * pa[off] / (a * a - b * b) if np.any(off) else np.empty(0)
        fxa[off] = xo
        fya[off] = b * np.sqrt(np.maximum(0.0, 1.0 - (xo / a) ** 2))
        fxa[~off] = a
        fya[~off] = 0.0
        fx[on_axis] = fxa
        fy[on_axis] = fya
    if not np.any(generic):
        return fx, fy
    pg, qg = p[generic], q[generic]

    shift = a * a - b * b
    ap, bq = a * pg, b * qg
    u = bq
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(100):
        us = u + shift
        ra2 = np.divide(ap, us)
        ra2 *= ra2
        rb2 = np.divide(bq, u)
        rb2 *= rb2
        F = ra2 + rb2
        F -= 1.0  # (a p / us)^2 + (b q / u)^2 - 1
        ra2 /= us
        rb2 /= u
        ra2 += rb2
        step = np.divide(F, np.multiply(ra2, -2.0, out=ra2), out=rb2)  # F / (-2 (ra^2 / us + rb^2 / u))
        # Monotone increasing sequence; a sub-ulp step means the row is done.
        done |= (np.abs(F) < 1e-13) | (np.abs(step) <= np.finfo(float).eps * u)
        if np.all(done):
            break
        u = np.where(done, u, u - step)
    else:
        raise ConvergenceError("ellipse nearest-point iteration did not converge")
    fx[generic] = a * a * pg / us  # us = u + shift: the last iteration moved no row
    fy[generic] = b * b * qg / u
    return fx, fy


def _ellipse_feet(P: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-point feet on the axis-aligned ellipse (a >= b) for points ``P``.

    Returns ``(feet, mirror_feet, dist, mirror_dist)`` where ``mirror_feet``
    are the feet reflected across the major axis -- the competing critical
    points whose distance ties signal an ambiguous projection.  Only points
    inside the evolute, ``(a p)^(2/3) + (b q)^(2/3) < (a^2 - b^2)^(2/3)``,
    have such a rival; beyond it the nearest point is unique and
    ``mirror_dist`` is ``inf``.  The feet are the first-quadrant feet of
    :func:`_ellipse_quadrant_feet` for ``(p, q) = |P|`` with the signs of
    ``P`` restored.
    """
    p = np.abs(P[:, 0])
    q = np.abs(P[:, 1])
    fx, fy = _ellipse_quadrant_feet(p, q, a, b)
    sx = np.where(P[:, 0] >= 0.0, 1.0, -1.0)
    sy = np.where(P[:, 1] >= 0.0, 1.0, -1.0)
    x, y = sx * fx, sy * fy
    feet = np.stack([x, y], axis=1)
    mirror = np.stack([x, -y], axis=1)
    inside = np.cbrt((a * p) ** 2) + np.cbrt((b * q) ** 2) < np.cbrt((a * a - b * b) ** 2)
    mirror_dist = np.where(inside, np.hypot(p - fx, q + fy), np.inf)
    return feet, mirror, np.hypot(p - fx, q - fy), mirror_dist


class Ellipse(Domain):
    """Open 2-D ellipse ``(x/a)^2 + (y/b)^2 < 1`` with axis-aligned semi-axes.

    The canonical smooth non-model test domain: closed-form parametrization,
    exact curvature, and a fast Newton nearest-point solver.  Only the
    two-dimensional case is supported; higher-dimensional ellipsoids can be
    expressed as implicit polynomial domains (without exact distance).
    """

    def __init__(self, semi_axes: Sequence[float]):
        entries = np.asarray(semi_axes, dtype=object)  # keeps each entry's own type
        if entries.shape != (2,):
            raise DomainUnsupportedError(
                f"ellipse domains are two-dimensional (got {entries.size} semi-axes); "
                "use an implicit polynomial domain for ellipsoids"
            )
        axes = np.array([_positive(a, f"semi_axes[{i}]") for i, a in enumerate(entries)])
        if axes[0] == axes[1]:
            raise InvalidInputError(
                "equal semi-axes describe a circle; use Ball, whose projection "
                "handles the all-directions tie at the center"
            )
        self.semi_axes = axes
        self.dim = 2

    def _major_frame(self) -> tuple[float, float, bool]:
        """Semi-axes ordered major-first, plus whether coordinates were swapped."""
        a, b = self.semi_axes
        if a >= b:
            return float(a), float(b), False
        return float(b), float(a), True

    def _rho_values(self, X: np.ndarray) -> np.ndarray:
        a, b = self.semi_axes
        return (X[:, 0] / a) ** 2 + (X[:, 1] / b) ** 2 - 1.0

    def _grad_values(self, X: np.ndarray) -> np.ndarray:
        a, b = self.semi_axes
        return np.stack([2.0 * X[:, 0] / (a * a), 2.0 * X[:, 1] / (b * b)], axis=1)

    def _nearest(self, X: np.ndarray):
        """Exact feet, with each foot's mirror image across the major axis as
        its rival inside the evolute."""
        a, b, swapped = self._major_frame()
        feet, mirror, dist, mdist = _ellipse_feet(X[:, ::-1] if swapped else X, a, b)
        if swapped:
            feet = feet[:, ::-1]
            mirror = mirror[:, ::-1]
        return feet, dist, mirror, mdist

    def _jump_radii(self, X: np.ndarray) -> np.ndarray:
        """The inscribed radii of :func:`_inscribed_radii`, with no Newton
        solve: ``rho`` is quadratic, so its Hessian bound ``2 / min(a, b)^2``
        is exact everywhere."""
        a, b = self.semi_axes
        x, y = X[:, 0], X[:, 1]
        # In place, in the order of rho and of the gradient's norm written out.
        rho = np.divide(x, a)
        np.square(rho, out=rho)
        w = np.divide(y, b)
        rho += np.square(w, out=w)
        rho -= 1.0
        grad_norm = np.multiply(x, 2.0)
        grad_norm /= a * a
        np.square(grad_norm, out=grad_norm)
        np.multiply(y, 2.0, out=w)
        w /= b * b
        grad_norm += np.square(w, out=w)
        return _inscribed_radii(rho, np.sqrt(grad_norm, out=grad_norm), 2.0 / min(a, b) ** 2)

    def _settled_feet(self, X: np.ndarray) -> np.ndarray:
        """The feet of :meth:`_project`, bit for bit and with its errors, from
        the quadrant feet alone: no mirror feet, evolute test or normals.

        A tie needs a mirror foot within 1e-8 of the foot's distance, so
        ``4 q f_y = d_mirror^2 - d^2 < 1e-8 (d_mirror + d)`` in the quadrant
        frame; with ``q <= f_y`` for a point inside on its foot's normal and
        ``d <= b``, that puts it within ``sqrt(1e-8 b)`` of the major axis,
        and inside the evolute, ``a p < a^2 - b^2``.  Only rows within 100
        times that margin, ``1e-3 sqrt(b)`` (or ``1e-6``), go through
        :meth:`_project` to raise its tie error.  ``|grad rho| >= 2 / a`` on
        the boundary, so its degenerate-gradient error needs ``a`` above
        2e12: from 1e11 on every row takes the full projection.
        """
        a, b, swapped = self._major_frame()
        if a > 1e11:
            return self._project(X, None)[0]
        P = X[:, ::-1] if swapped else X
        p, q = np.abs(P[:, 0]), np.abs(P[:, 1])
        fx, fy = _ellipse_quadrant_feet(p, q, a, b)
        near_tie = np.flatnonzero((a * p < a * a - b * b) & (q < max(1e-6, 1e-3 * math.sqrt(b))))
        if near_tie.size:
            self._project(X[near_tie], None)
        # The signs of P, as _ellipse_feet restores them: -0.0 keeps a foot's sign.
        np.negative(fx, out=fx, where=P[:, 0] < 0.0)
        np.negative(fy, out=fy, where=P[:, 1] < 0.0)
        return np.stack([fy, fx] if swapped else [fx, fy], axis=1)

    def boundary_point(self, theta: float) -> np.ndarray:
        """Point ``(a cos(theta), b sin(theta))`` on the boundary."""
        a, b = self.semi_axes
        return np.array([a * math.cos(theta), b * math.sin(theta)])

    def boundary_speed(self, theta) -> np.ndarray:
        """``|gamma'(theta)|`` for the parametrization above."""
        a, b = self.semi_axes
        th = np.asarray(theta, dtype=float)
        return np.sqrt((a * np.sin(th)) ** 2 + (b * np.cos(th)) ** 2)

    def min_curvature_radius(self) -> float:
        """Smallest radius of curvature, attained at the major-axis vertices."""
        a, b, _ = self._major_frame()
        return b * b / a

    def diameter(self) -> float:
        return 2.0 * float(np.max(self.semi_axes))

    def descriptor(self) -> dict:
        return {"kind": "ellipse", "dim": 2, "semi_axes": self.semi_axes.tolist()}


def _bounding_box(bounding_box) -> np.ndarray:
    """A ``(2, d)`` float array of lower and upper corners, lower strictly below upper."""
    box = _float_array(bounding_box, "bounding_box")
    if box.ndim != 2 or box.shape[0] != 2 or box.shape[1] < 2:
        raise InvalidInputError(f"bounding_box must have shape (2, d), got {box.shape}")
    if not np.all(box[0] < box[1]):
        raise InvalidInputError(
            f"bounding_box {box.tolist()}: the lower corner must be strictly below the upper corner"
        )
    return box


class Implicit(Domain):
    """Domain defined by a user-supplied C^2 function ``rho`` (negative inside).

    ``rho``, ``grad`` and ``hess`` are batch callables: on an ``(n, d)`` array
    of points they return the ``(n,)`` values, ``(n, d)`` gradients and
    ``(n, d, d)`` Hessians, each output row depending only on the same input
    row.  ``bounding_box`` is a ``(2, d)`` array of lower/upper corners
    enclosing the closure of the domain, used to seed the nearest-point
    solver; ``interior_point`` is a declared witness with ``rho < 0``, checked
    at construction.  ``hess_bound`` is a size that bounds the spectral norm
    of the Hessian of ``rho`` over the bounding box; walks take their jump
    radii from it (:func:`_inscribed_radii`, clipped to the distance from the
    box edge, where the bound stops holding), with no nearest-point solve; that
    distance is a running ``np.minimum`` over the columns, exact like ``min``.

    Signed distance and projection solve the nearest-point conditions
    ``y - x + lam * grad(y) = 0, rho(y) = 0`` with a damped Newton iteration
    (cap 100 iterations, tolerance 1e-12 on the residual) from the 5 nearest
    points of a bounding-box grid flowed onto the zero level set.  One solve
    runs over every (point, start) pair of a batch, and each pair stops
    updating once it has converged.  The feet of settled walks come from one
    Newton solve started at the settled point itself; only rows where it
    fails go through the multi-start solve.
    """

    kind = "implicit"

    def __init__(
        self,
        rho: Callable[[np.ndarray], np.ndarray],
        grad: Callable[[np.ndarray], np.ndarray],
        hess: Callable[[np.ndarray], np.ndarray],
        bounding_box,
        interior_point,
        hess_bound: float,
    ):
        self._rho = rho
        self._grad = grad
        self._hess = hess
        self.bounding_box = box = _bounding_box(bounding_box)
        self.dim = d = box.shape[1]
        self.hess_bound = _positive(hess_bound, "hess_bound")
        self.interior_point = p = as_point(interior_point, d, name="interior_point")
        if not np.all((p >= box[0]) & (p <= box[1])):
            raise InvalidInputError(f"interior_point {p.tolist()} lies outside the bounding box {box.tolist()}")
        w = p[None, :]
        witness = float(self._rho_values(w)[0])
        self._grad_values(w)
        self._hess_values(w)
        if not witness < 0.0:
            raise InvalidInputError(
                f"defining function is not negative at the declared interior point (rho = {witness})"
            )

    # The user's three callables are called only here, each result checked
    # for shape; non-finite values pass, for the solvers to drop or fail.
    def _rho_values(self, X: np.ndarray) -> np.ndarray:
        return _callable_values(self._rho(X), X, "rho", "point", finite=False)

    def _grad_values(self, X: np.ndarray) -> np.ndarray:
        return _callable_values(self._grad(X), X, "grad", "point", (self.dim,), finite=False)

    def _hess_values(self, X: np.ndarray) -> np.ndarray:
        return _callable_values(self._hess(X), X, "hess", "point", (self.dim, self.dim), finite=False)

    def rho_hess(self, x) -> np.ndarray:
        return self._hess_values(as_point(x, self.dim)[None, :])[0]

    # -- walk primitives ----------------------------------------------------
    def _jump_radii(self, X: np.ndarray) -> np.ndarray:
        """Inscribed radii from ``hess_bound``, clipped to the distance from the bounding-box edge, a running
        ``np.minimum`` over the columns: exact as an axis-1 ``np.min`` is, which numpy runs row by row."""
        edge, w = np.full(len(X), np.inf), np.empty(len(X))
        for column, lo, hi in zip(X.T, *self.bounding_box):
            np.minimum(edge, np.subtract(column, lo, out=w), out=edge)
            np.minimum(edge, np.subtract(hi, column, out=w), out=edge)
        X = np.ascontiguousarray(X)  # the user's callables see C-order rows, whatever the walk's layout
        radii = _inscribed_radii(self._rho_values(X), _distances(self._grad_values(X)), self.hess_bound)
        return np.minimum(radii, np.maximum(edge, 0.0, out=edge), out=radii)

    def _settled_feet(self, X: np.ndarray) -> np.ndarray:
        """One Newton solve from each settled point itself, which lies next to
        its unique foot; rows where it fails take the multi-start projection."""
        feet, converged = self._newton(X, X.copy())
        failed = np.flatnonzero(~converged)
        if failed.size:
            feet[failed] = self._project(X[failed], None)[0]
        return feet

    # -- nearest-point solver ---------------------------------------------
    @functools.cached_property
    def _flowed_grid(self) -> np.ndarray:
        """Bounding-box grid flowed eight first-order steps toward the zero set.

        Rows with a vanishing gradient stay put; non-finite rows are dropped,
        and so are rows that round to the same 1e-6 cell as an earlier one.
        The grid does not depend on the query point, so it is computed once
        per domain and kept read-only.  It has the most points per axis, at
        most 16, that keep it within 4096 rows: 16 in d = 2 and 3, 8 in
        d = 4, down to 2 in d = 12.  From d = 13 on, the 2**d box corners
        alone exceed 4096 rows.
        """
        lo, hi = self.bounding_box
        m = next((k for k in range(16, 1, -1) if k**self.dim <= 4096), 2)
        axes = [np.linspace(lo[j], hi[j], m) for j in range(self.dim)]
        y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(8):
                g = self._grad_values(y)
                g2 = _distances(g, squared=True)
                moves = g2 > 1e-20
                scale = np.where(moves, self._rho_values(y) / np.where(moves, g2, 1.0), 0.0)
                y = y - scale[:, None] * g
        y = y[np.all(np.isfinite(y), axis=1)]
        if y.shape[0] == 0:
            raise ConvergenceError("no usable starting points for the implicit projection solver")
        _, first = np.unique(np.round(y / 1e-6), axis=0, return_index=True)
        y = y[np.sort(first)]
        y.setflags(write=False)
        return y

    def _newton(self, P: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton solves of the nearest-point conditions, one per row pair.

        Row ``i`` seeks the foot for the point ``P[i]`` from the start
        ``Y[i]``.  A row stops once its residual norm is at most
        ``1e-12 * max(1, |P[i]|)`` (converged), or when its Jacobian is
        singular or 30 step halvings fail to reduce its residual (failed).
        Returns the final iterates and the converged mask.
        """
        d = self.dim

        def residual(p, y, lam):
            return np.column_stack([y - p + lam[:, None] * self._grad_values(y), self._rho_values(y)])

        tol = 1e-12 * np.maximum(1.0, _distances(P))
        g = self._grad_values(Y)
        g2 = _distances(g, squared=True)
        lam = np.where(g2 > 1e-20, np.sum((P - Y) * g, axis=1) / np.where(g2 > 1e-20, g2, 1.0), 0.0)
        R = residual(P, Y, lam)
        r = _distances(R)
        live = np.flatnonzero(~(r <= tol))
        for _ in range(100):
            if live.size == 0:
                break
            p, y, lr, res, rn = P[live], Y[live], lam[live], R[live], r[live]
            g = self._grad_values(y)
            J = np.zeros((live.size, d + 1, d + 1))
            J[:, :d, :d] = np.eye(d) + lr[:, None, None] * self._hess_values(y)
            J[:, :d, d] = g
            J[:, d, :d] = g
            with np.errstate(invalid="ignore"):  # a non-finite row is frozen as failed
                det = np.linalg.det(J)
            searching = np.isfinite(det) & (det != 0.0)
            step = np.zeros((live.size, d + 1))
            step[searching] = np.linalg.solve(J[searching], -res[searching, :, None])[..., 0]
            alpha = np.ones(live.size)
            accepted = np.zeros(live.size, dtype=bool)
            for _ in range(30):
                s = np.flatnonzero(searching)
                if s.size == 0:
                    break
                y_try = y[s] + alpha[s, None] * step[s, :d]
                lam_try = lr[s] + alpha[s] * step[s, d]
                R_try = residual(p[s], y_try, lam_try)
                r_try = _distances(R_try)
                good = r_try < (1.0 - 1e-4 * alpha[s]) * rn[s]
                a = s[good]
                y[a], lr[a], res[a], rn[a] = y_try[good], lam_try[good], R_try[good], r_try[good]
                accepted[a] = True
                searching[a] = False
                alpha[s[~good]] *= 0.5
            Y[live], lam[live], R[live], r[live] = y, lr, res, rn
            live = live[accepted & ~(rn <= tol[live])]
        return Y, r <= tol

    def _nearest(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nearest boundary foot of each row of ``X`` and its nearest distinct rival.

        Returns ``(feet, dist, rival, rival_dist)``.  The rival is the nearest
        converged foot more than 1e-6 from the best one; ``rival_dist`` is
        ``inf`` where there is none.  Raises :class:`ConvergenceError` naming
        the first point for which no start converged.
        """
        n, d = X.shape
        grid = self._flowed_grid
        k = min(_STARTS, grid.shape[0])
        starts = np.empty((n, k), dtype=np.intp)
        block_rows = max(1, _START_BLOCK // grid.shape[0])
        for lo in range(0, n, block_rows):
            block = X[lo : lo + block_rows]
            D = np.zeros((block.shape[0], grid.shape[0]))
            for j in range(d):
                D += (block[:, j, None] - grid[None, :, j]) ** 2
            starts[lo : lo + block_rows] = np.argpartition(D, k - 1, axis=1)[:, :k]

        Y, converged = self._newton(np.repeat(X, k, axis=0), grid[starts.ravel()])
        Y = Y.reshape(n, k, d)
        converged = converged.reshape(n, k)
        failed = ~np.any(converged, axis=1)
        if np.any(failed):
            raise ConvergenceError(
                f"implicit-domain projection of point {X[np.argmax(failed)].tolist()} "
                "did not converge from any starting point"
            )
        row = np.arange(n)
        dist = np.where(converged, _distances((Y - X[:, None, :]).reshape(-1, d)).reshape(n, k), np.inf)
        best = np.argmin(dist, axis=1)
        feet = Y[row, best]
        distinct = _distances((Y - feet[:, None, :]).reshape(-1, d)).reshape(n, k) > 1e-6
        rival_dist = np.where(distinct, dist, np.inf)
        rival = np.argmin(rival_dist, axis=1)
        return feet, dist[row, best], Y[row, rival], rival_dist[row, rival]

    def diameter(self) -> float:
        lo, hi = self.bounding_box
        return float(np.linalg.norm(hi - lo))

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "bounding_box": self.bounding_box.tolist(),
            "interior_point": self.interior_point.tolist(),
        }


class ImplicitPolynomial(Implicit):
    """Implicit domain whose defining function is a polynomial.

    ``coefficients`` maps exponent tuples to coefficients, e.g. the unit disc
    is ``{(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}``.  Exponents are counts
    and coefficients finite reals under the scalar rule (README); the terms
    are stored as ints and floats, so the descriptor reports the polynomial
    that is evaluated.  Values, gradients and Hessians are exact, evaluated
    from one table of monomial powers.  The Hessian bound comes from the same
    tables: over the bounding box each second partial is at most the sum of
    ``|c| max|y^e|`` over its terms, and the Hessian's spectral norm is at
    most that of the symmetric nonnegative matrix of these bounds, which
    dominates it entrywise (Perron-Frobenius).
    """

    kind = "implicit_polynomial"

    def __init__(self, coefficients: dict, bounding_box, interior_point):
        terms = []
        for key, coeff in coefficients.items():
            if not isinstance(key, tuple):
                raise InvalidInputError(f"exponent key {key!r} must be a tuple of integers")
            exps = tuple(_integer(e, f"exponent {j} of {key!r}", 0) for j, e in enumerate(key))
            terms.append((exps, _finite(coeff, f"coefficient of {key!r}")))
        items = sorted(terms)
        if not items:
            raise InvalidInputError("polynomial needs at least one term")
        exps = [key for key, _ in items]
        lengths = {len(e) for e in exps}
        if len(lengths) != 1:
            raise InvalidInputError(f"exponent tuples must all have one length, got lengths {sorted(lengths)}")
        d = lengths.pop()
        if d < 2:
            raise DimensionMismatchError(f"polynomial domain dimension must be >= 2, got {d}")
        self._poly_terms = items

        # Coefficient and exponent tables of rho, its d first partials and its
        # d * d second partials: d/dy_j of c y^e is (c e_j) y^(e - 1_j).
        E = np.array(exps, dtype=int)
        eye = np.eye(d, dtype=int)

        def partial(c, e, j):
            return c * e[:, j], np.maximum(e - eye[j], 0)

        tables = [(np.array([c for _, c in items]), E)]
        tables += [partial(*tables[0], j) for j in range(d)]
        tables += [partial(*tables[1 + j], k) for j in range(d) for k in range(d)]
        self._table_coeffs = np.array([c for c, _ in tables])
        self._table_powers = np.array([e for _, e in tables])
        self._degree = int(E.max())
        # Row j (degree + 1) + e of _evaluate's power columns holds y_j^e.
        self._table_columns = self._table_powers + (self._degree + 1) * np.arange(d)

        box = _bounding_box(bounding_box)
        if box.shape[1] != d:
            raise DimensionMismatchError(f"bounding_box has dimension {box.shape[1]}, expected {d}")
        corner = np.max(np.abs(box), axis=0)  # max |y_j| over the box
        second = slice(1 + d, None)
        bounds = np.abs(self._table_coeffs[second]) * np.prod(corner ** self._table_powers[second], axis=-1)
        hess_bound = float(np.linalg.norm(np.sum(bounds, axis=-1).reshape(d, d), 2))
        if not hess_bound > 0.0:
            raise InvalidInputError("a polynomial of degree below 2 does not bound a domain")

        super().__init__(
            rho=lambda X: self._evaluate(X, slice(0, 1))[:, 0],
            grad=lambda X: self._evaluate(X, slice(1, 1 + d)),
            hess=lambda X: self._evaluate(X, second).reshape(-1, d, d),
            bounding_box=box,
            interior_point=interior_point,
            hess_bound=hess_bound,
        )

    def _evaluate(self, X: np.ndarray, tables: slice) -> np.ndarray:
        """The selected rows of the polynomial tables at each point of ``X``: ``(n, rows)``.

        Powers are kept a column of points per axis and exponent, so each
        term is whole gathered columns, one per axis, multiplied in axis order
        and then by its coefficient, and the terms are added onto 0.0 in table
        order, one slice add per term: no ``(n, rows, terms, d)`` table and no
        reduction run point by point.  Every point gets the same order alone
        or in a batch.
        """
        n, d = X.shape
        powers = np.empty((d, self._degree + 1, n))
        powers[:, 0] = 1.0
        for p in range(1, self._degree + 1):
            np.multiply(powers[:, p - 1], X.T, out=powers[:, p])
        powers = powers.reshape(-1, n)
        columns = self._table_columns[tables]
        terms = powers.take(columns[..., 0], axis=0)
        for j in range(1, d):
            terms *= powers.take(columns[..., j], axis=0)
        terms *= self._table_coeffs[tables][..., None]
        values = np.add(terms[:, 0], 0.0)
        for t in range(1, terms.shape[1]):
            values += terms[:, t]
        return np.ascontiguousarray(values.T)

    def descriptor(self) -> dict:
        desc = super().descriptor()
        desc["coefficients"] = {
            ",".join(str(e) for e in key): coeff for key, coeff in self._poly_terms
        }
        return desc


# ---------------------------------------------------------------------------
# Boundary frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryFrame:
    """Normalized coordinates at a boundary point.

    ``base`` is a point P on the boundary, ``inward_normal`` the inward unit
    normal nu there, ``rotation`` a proper rotation Q with ``Q nu = e_d``, and
    ``epsilon`` the frame scale (the distance from P of the interior probe
    point ``P + epsilon * nu``, which the frame dilation sends to ``e_d``).
    """

    base: np.ndarray
    inward_normal: np.ndarray
    rotation: np.ndarray
    epsilon: float

    def __post_init__(self):
        base = as_point(self.base, name="base")
        nu = as_point(self.inward_normal, base.size, name="inward_normal")
        Q = np.asarray(self.rotation, dtype=float)
        d = base.size
        if Q.shape != (d, d):
            raise DimensionMismatchError(f"rotation must be {d}x{d}, got {Q.shape}")
        epsilon = _positive(self.epsilon, "epsilon")
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise InvalidInputError("inward_normal must be a unit vector")
        if np.max(np.abs(Q.T @ Q - np.eye(d))) > 1e-12:
            raise InvalidInputError("rotation is not orthogonal to 1e-12")
        if abs(np.linalg.det(Q) - 1.0) > 1e-10:
            raise InvalidInputError("rotation must have determinant +1")
        if np.max(np.abs(Q @ nu - np.eye(d)[-1])) > 1e-12:
            raise InvalidInputError("rotation must map the inward normal to +e_d")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "inward_normal", nu)
        object.__setattr__(self, "rotation", Q)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def dim(self) -> int:
        return self.base.size


def rotation_to_last_axis(nu: np.ndarray) -> np.ndarray:
    """Deterministic proper rotation Q with ``Q nu = e_d``.

    Rows are a Gram-Schmidt orthonormalization of the standard basis against
    ``nu`` (kept in index order, dropping near-dependent candidates), with the
    normal as the last row; the first tangent row is flipped if needed to make
    ``det Q = +1``.  The construction depends only on ``nu``, so frames are
    reproducible across runs and platforms.
    """
    nu = np.asarray(nu, dtype=float)
    d = nu.size
    basis = [nu]
    for j in range(d):
        if len(basis) == d:
            break
        v = np.zeros(d)
        v[j] = 1.0
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            basis.append(v / norm)
    if len(basis) != d:
        raise ConvergenceError("failed to complete an orthonormal frame")
    Q = np.vstack([np.vstack(basis[1:]), nu[None, :]])
    if np.linalg.det(Q) < 0.0:
        Q[0] = -Q[0]
    return Q


def inward_normal(domain: Domain, base) -> np.ndarray:
    """Inward unit normal ``-grad rho / |grad rho|`` at the boundary point ``base``.

    Raises :class:`InvalidInputError` naming ``base`` if it is off the
    boundary (|rho| > 1e-10) or the gradient there is degenerate.
    """
    return _base_normal(domain, base)[0]


def _base_normal(domain: Domain, base) -> tuple[np.ndarray, float]:
    """:func:`inward_normal` at the boundary point ``base``, with ``|grad rho|`` there."""
    base = as_point(base, domain.dim, name="base")
    rho = float(domain._rho_values(base[None, :])[0])
    if abs(rho) > _BOUNDARY_TOL:
        raise InvalidInputError(f"base point {base.tolist()} is not on the boundary (rho = {rho:.3e})")
    g = domain._grad_values(base[None, :])[0]
    gn = float(np.linalg.norm(g))
    if gn < 1e-12:
        raise InvalidInputError(f"degenerate gradient at the base point {base.tolist()}")
    return -g / gn, gn


def boundary_distance_batch(domain: Domain, X) -> np.ndarray:
    """Boundary distances ``delta = -signed_distance`` of the rows of ``X``, all strictly inside.

    ``rho < 0`` is checked on every row before any distance is solved; the
    first row outside, or else the first whose distance is not positive,
    raises :class:`InvalidInputError` naming it as ``x`` with its signed distance.
    """
    X, _ = _as_points(X, domain.dim, name="x")
    outside = np.flatnonzero(~(domain._rho_values(X) < 0.0))
    if outside.size:  # only the first row outside is solved, for the message
        X = X[outside[:1]]
    sd = domain._signed_distances(X)
    bad = np.flatnonzero(~(sd < 0.0) | bool(outside.size))
    if bad.size:
        raise InvalidInputError(
            f"x = {X[bad[0]].tolist()} must be strictly inside the domain (signed distance {sd[bad[0]]:.6g})"
        )
    return -sd


def boundary_distance(domain: Domain, x) -> float:
    """Boundary distance ``delta(x)`` of one interior point: row 0 of :func:`boundary_distance_batch`."""
    return float(boundary_distance_batch(domain, as_point(x, domain.dim, name="x")[None, :])[0])


def boundary_frame(domain: Domain, base, epsilon: float) -> BoundaryFrame:
    """Frame at a boundary point: inward normal, aligning rotation, and scale.

    Requires ``base`` on the boundary (|rho| <= 1e-10), a nondegenerate
    gradient there, and ``epsilon`` small enough that ``base + epsilon * nu``
    is interior.
    """
    base = as_point(base, domain.dim, name="base")
    nu = inward_normal(domain, base)
    epsilon = _positive(epsilon, "epsilon")
    _interior_probe(domain, base, nu, epsilon, "epsilon")
    return BoundaryFrame(base=base, inward_normal=nu, rotation=rotation_to_last_axis(nu), epsilon=epsilon)


def _interior_probe(domain: Domain, base: np.ndarray, nu: np.ndarray, height: float, name: str) -> np.ndarray:
    """The point ``base + height * nu``, finite with ``rho < 0``, or else an input error naming ``name``."""
    probe = base + height * nu
    if not (np.isfinite(probe).all() and domain._rho_values(probe[None, :])[0] < 0.0):
        raise InvalidInputError(f"{name} = {height} steps outside the domain from base {base.tolist()}")
    return probe


# ---------------------------------------------------------------------------
# Boundary quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Boundary quadrature nodes and weights.

    ``spacing`` is the largest nearest-node gap along the surface, used to
    refuse under-resolved near-boundary integrals.  Iterating yields
    ``(node, weight)`` pairs.
    """

    nodes: np.ndarray
    weights: np.ndarray
    spacing: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise DimensionMismatchError("nodes must be (n, d) with matching (n,) weights")
        if not np.all(weights > 0.0):
            raise InvalidInputError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __iter__(self) -> Iterator[tuple[np.ndarray, float]]:
        return ((self.nodes[i], float(self.weights[i])) for i in range(len(self)))

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


def _circle_rule(center: np.ndarray, radius: float, n: int) -> QuadratureRule:
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(n, 2.0 * np.pi * radius / n)
    return QuadratureRule(nodes, weights, spacing=2.0 * np.pi * radius / n)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``n``-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence for P_n, vectorised over the
    nodes in [0, 1) and started from Tricomi's asymptotic guesses: O(n^2) time
    and O(n) memory (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The
    other half follows by symmetry; the middle node of an odd rule is exactly 0.
    """
    m = n // 2
    k = np.arange(1, n - m + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(10):  # 3-5 steps reach 1e-16 for every n tested up to 16384
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        if np.max(np.abs(dx)) <= 1e-16:
            break
        x -= dx
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes for n = {n} did not converge in 10 Newton steps")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate([-x, x[:m][::-1]])
    if n % 2:
        nodes[m] = 0.0
    weights = np.concatenate([w, w[:m][::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _sphere_rule(center: np.ndarray, radius: float, resolution: int) -> QuadratureRule:
    # Gauss-Legendre in cos(polar) x uniform azimuth: exact total area, spectral
    # accuracy for smooth integrands.
    mu, w = _gauss_legendre(resolution)
    m = 2 * resolution
    phi = 2.0 * np.pi * np.arange(m) / m
    s = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    z = np.repeat(mu, m)
    nodes = center[None, :] + radius * np.stack([x, y, z], axis=1)
    weights = np.repeat(w, m) * (radius * radius * 2.0 * np.pi / m)
    spacing = max(np.pi * radius / resolution, 2.0 * np.pi * radius / m)
    return QuadratureRule(nodes, weights, spacing=spacing)


def _ellipse_rule(domain: Ellipse, n: int) -> QuadratureRule:
    a, b = domain.semi_axes
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    speed = domain.boundary_speed(theta)
    weights = speed * (2.0 * np.pi / n)
    spacing = float(np.max(speed)) * 2.0 * np.pi / n
    return QuadratureRule(nodes, weights, spacing=spacing)


def _halfspace_rule(domain: Halfspace, resolution: int, truncation: float) -> QuadratureRule:
    truncation = _positive(truncation, "truncation")
    t, w = _gauss_legendre(resolution)
    if domain.dim == 2:
        nodes = np.stack([truncation * t, np.zeros(resolution)], axis=1)
        weights = truncation * w
        spacing = float(np.max(np.diff(truncation * t)))
        return QuadratureRule(nodes, weights, spacing=spacing)
    if domain.dim == 3:
        r = 0.5 * truncation * (t + 1.0)
        wr = 0.5 * truncation * w
        m = 2 * resolution
        phi = 2.0 * np.pi * np.arange(m) / m
        x = np.outer(r, np.cos(phi)).ravel()
        y = np.outer(r, np.sin(phi)).ravel()
        nodes = np.stack([x, y, np.zeros(x.size)], axis=1)
        weights = np.repeat(wr * r, m) * (2.0 * np.pi / m)
        radial_gap = float(np.max(np.diff(np.concatenate([[0.0], r, [truncation]]))))
        spacing = max(radial_gap, 2.0 * np.pi * truncation / m)
        return QuadratureRule(nodes, weights, spacing=spacing)
    raise DomainUnsupportedError(
        f"halfspace boundary quadrature is implemented for d in {{2, 3}}, got d = {domain.dim}"
    )


def boundary_quadrature(domain: Domain, resolution: int, truncation: float | None = None) -> QuadratureRule:
    """Quadrature rule for surface integrals over the domain boundary.

    Supports circles (trapezoidal, equal weights), spheres (Gauss-Legendre in
    the polar cosine times uniform azimuth), ellipses (trapezoidal against the
    arc-length element), and truncated halfspace boundaries in d = 2, 3
    (Gauss-Legendre; ``truncation`` is the required cutoff radius).  The
    Gauss-Legendre rules come from Newton iteration on the Legendre
    recurrence, O(resolution^2), and are cached per resolution.  Weights
    sum to the surface area (circle 2*pi*r, sphere 4*pi*r^2, ellipse
    perimeter) to well below 1e-8 at moderate resolution.  ``resolution`` is
    a count of at least 8 and ``truncation`` a size, under the scalar rule
    (README).
    """
    resolution = _integer(resolution, "resolution", 8)
    if isinstance(domain, Ball):
        if domain.dim == 2:
            return _circle_rule(domain.center, domain.radius, resolution)
        if domain.dim == 3:
            return _sphere_rule(domain.center, domain.radius, resolution)
        raise DomainUnsupportedError(
            f"ball boundary quadrature is implemented for d in {{2, 3}}, got d = {domain.dim}"
        )
    if isinstance(domain, Ellipse):
        return _ellipse_rule(domain, resolution)
    if isinstance(domain, Halfspace):
        return _halfspace_rule(domain, resolution, truncation)
    raise DomainUnsupportedError(
        f"boundary quadrature is not available for {type(domain).__name__} domains"
    )
