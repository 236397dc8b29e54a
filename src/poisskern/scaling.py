"""Boundary blow-up analysis: frame dilation, transferred defining function,
pulled-back kernels, and the flat-boundary (halfspace) surrogate kernel.

Given a boundary frame (base point P, inward normal nu, rotation Q with
``Q nu = e_d``, scale eps), the dilation ``Phi(x) = Q (x - P) / eps`` maps the
domain to a blown-up copy whose boundary flattens as eps -> 0:

* the transferred defining function ``rho_eps(s) = rho(Phi^{-1} s) / (eps g)``
  (with ``g = |grad rho(P)|``) converges to the linear function ``-s_d``, and
  :func:`linearization_gap` measures how far it still is from that limit;
* the pulled-back kernel ``K(x, tau) = eps^{-(d-1)} P_scaled(Phi x, Phi tau)``
  reproduces the original domain's Poisson kernel exactly whenever
  ``P_scaled`` is the exact kernel of the dilated domain;
* :func:`halfspace_surrogate` is the explicit flat-boundary approximant the
  blow-up justifies near the base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _rng
from .errors import DomainUnsupportedError, InvalidInputError
from .geometry import (
    Ball, BoundaryFrame, Domain, Halfspace, _as_points, _base_normal, _positive, as_point,
)
from .model_kernels import KernelEvaluator, ball_kernel, halfspace_kernel, poisson_halfspace

__all__ = [
    "phi_eps",
    "phi_eps_inverse",
    "TransferredDefiningFunction",
    "transfer_defining_function",
    "linearization_gap",
    "kernel_pullback",
    "scaled_model_kernel",
    "halfspace_surrogate",
]

_GRID_SIZE = 4096
_GRID_SHELL = 512


def phi_eps(frame: BoundaryFrame, x) -> np.ndarray:
    """Frame dilation ``Phi(x) = Q (x - P) / eps`` (accepts point or batch).

    Sends the base point to the origin and the interior probe
    ``P + eps * nu`` to the unit normal point ``e_d``; the exact inverse is
    :func:`phi_eps_inverse`.  A point whose image overflows is an input error
    naming it.
    """
    S, single = _frame_map(frame, x, "x")
    return S[0] if single else S


def phi_eps_inverse(frame: BoundaryFrame, s) -> np.ndarray:
    """Exact inverse dilation ``Phi^{-1}(s) = P + eps * Q^T s``; a point whose
    image overflows is an input error naming it."""
    X, single = _frame_map(frame, s, "s", inverse=True)
    return X[0] if single else X


def _frame_map(frame: BoundaryFrame, points, name: str, inverse: bool = False) -> tuple[np.ndarray, bool]:
    """:func:`phi_eps` (or :func:`phi_eps_inverse`) of ``points`` as a batch,
    and whether ``points`` was one point.  It holds the one check that every
    image is finite: the first point whose image overflowed is an input error
    naming it as ``name`` (one point) or ``name[i]``, with its value and epsilon."""
    P, single = _as_points(points, frame.dim, name=name)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is named below
        if inverse:
            Y = frame.base[None, :] + frame.epsilon * (P @ frame.rotation)
        else:  # with Q^T in C order a batch of one rounds as each row of a larger batch does
            Y = (P - frame.base[None, :]) @ np.ascontiguousarray(frame.rotation.T) / frame.epsilon
    if not np.isfinite(Y).all():
        i = int(np.argmax(~np.isfinite(Y).all(axis=1)))
        raise InvalidInputError(f"{name if single else f'{name}[{i}]'} = {P[i].tolist()} maps to non-finite "
                                f"coordinates {Y[i].tolist()} at epsilon = {frame.epsilon!r}")
    return Y, single


@dataclass(frozen=True)
class TransferredDefiningFunction:
    """The defining function seen through the frame dilation.

    Evaluates ``rho_eps(s) = rho(Phi^{-1}(s)) / (eps * |grad rho(P)|)``; the
    gradient normalization makes the linear term exactly ``-s_d``, so
    ``rho_eps(0) = 0``, ``grad rho_eps(0) = -e_d``, and ``rho_eps -> -s_d``
    as eps -> 0 at rate O(eps) for C^2 boundaries.
    """

    frame: BoundaryFrame
    domain: Domain
    gradient_scale: float

    def __call__(self, s) -> "float | np.ndarray":
        X, single = _frame_map(self.frame, s, "s", inverse=True)
        vals = self.domain._rho_values(X) / (self.frame.epsilon * self.gradient_scale)
        return float(vals[0]) if single else vals

    @property
    def gradient_at_zero(self) -> np.ndarray:
        """Exact chain-rule gradient at the origin, ``Q grad rho(P) / g = -e_d``."""
        g = self.domain._grad_values(self.frame.base[None, :])[0]
        return self.frame.rotation @ g / self.gradient_scale


def transfer_defining_function(frame: BoundaryFrame, domain: Domain) -> TransferredDefiningFunction:
    """Transfer the domain's defining function into frame coordinates."""
    _, gn = _base_normal(domain, frame.base)  # rejects a base off the boundary or with a degenerate gradient
    return TransferredDefiningFunction(frame=frame, domain=domain, gradient_scale=gn)


@lru_cache(maxsize=32)
def _gap_grid(dim: int, radius: float) -> np.ndarray:
    """Deterministic read-only sample of the closed ball |s| <= radius.

    4096 points drawn from the walk streams of seed 0: each row ``i`` takes
    its direction from draw 0 of stream ``i`` (:func:`_rng.sphere_directions`).
    The first 3584 rows are interior points at radius ``radius * u**(1/d)``,
    uniform in volume, with ``u`` the next uniform draw of the same stream.
    The last 512 lie exactly on the bounding sphere, where curvature-dominated
    gaps attain their supremum: in 2-D at the exactly spaced angles
    ``2 pi k / 512``, in higher dimensions along their streams' directions.
    """
    inner = _GRID_SIZE - _GRID_SHELL
    keys = _rng.stream_keys(0, np.arange(_GRID_SIZE))
    dirs = _rng.sphere_directions(keys, 0, dim)
    u = _rng.uniform(keys[:inner], _rng.draws_per_step(dim))
    interior = dirs[:inner] * (radius * u ** (1.0 / dim))[:, None]
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(_GRID_SHELL) / _GRID_SHELL
        shell_dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        shell_dirs = dirs[inner:]
    grid = np.concatenate([interior, radius * shell_dirs], axis=0)
    grid.setflags(write=False)
    return grid


def linearization_gap(tdf: TransferredDefiningFunction, radius: float) -> float:
    """Sup-norm distance of ``rho_eps`` from its flat limit ``-s_d``.

    Returns ``max |rho_eps(s) + s_d|`` over a fixed 4096-point grid of the
    ball ``|s| <= radius``, drawn once from the seed-0 walk streams, with its
    512 shell points on the sphere (exactly spaced angles in 2-D).  The
    reported value is the grid maximum, chosen for bit-reproducibility over
    randomized sup estimation.  Decays like O(eps) for C^2 boundaries and
    vanishes identically when the boundary is already flat.
    """
    S = _gap_grid(tdf.frame.dim, _positive(radius, "radius"))
    vals = tdf(S)
    return float(np.max(np.abs(vals + S[:, -1])))


def kernel_pullback(frame: BoundaryFrame, scaled_kernel: KernelEvaluator, x, tau) -> float:
    """Pull the dilated domain's kernel back to the original coordinates.

    Computes ``eps^{-(d-1)} * scaled_kernel(Phi(x), Phi(tau))``.  The factor
    is the Jacobian of the dilation restricted to the (d-1)-dimensional
    boundary, so when ``scaled_kernel`` is the exact Poisson kernel of the
    dilated domain the result equals the original domain's kernel exactly.
    """
    x = as_point(x, frame.dim, name="x")
    tau = as_point(tau, frame.dim, name="tau")
    (s_x,), _ = _frame_map(frame, x, "x")
    (s_tau,), _ = _frame_map(frame, tau, "tau")
    return float(frame.epsilon ** (-(frame.dim - 1)) * scaled_kernel(s_x, s_tau))


def scaled_model_kernel(domain: Domain, frame: BoundaryFrame) -> KernelEvaluator:
    """Exact Poisson kernel of the dilated image of a model domain.

    The dilation maps a ball to a ball (center ``Phi(c)``, radius ``r/eps``)
    and the upper halfspace to itself, so both images keep closed-form
    kernels.
    """
    if isinstance(domain, Ball):
        (center,), _ = _frame_map(frame, domain.center, "center")
        return ball_kernel(center, domain.radius / frame.epsilon)
    if isinstance(domain, Halfspace):
        return halfspace_kernel(domain.dim)
    raise DomainUnsupportedError(f"{type(domain).__name__} domain has no closed-form kernel for its dilated image")


def halfspace_surrogate(frame: BoundaryFrame, x, tau) -> float:
    """Flat-boundary approximant to the kernel near the frame base.

    Evaluates :func:`poisson_halfspace` in frame-centered (unscaled)
    coordinates ``x~ = Q (x - P)``, ``tau~ = Q (tau - P)``::

        c_d * x~_d / (|x~' - tau~'|^2 + x~_d^2)^{d/2}

    with the dimensional constant ``c_d = Gamma(d/2)/pi^{d/2}`` retained so
    the surrogate is exact on actual halfspaces.  Meaningful when ``x`` and
    ``tau`` lie within O(eps) of the base point, where the blown-up boundary
    is nearly flat; the tangential coordinate of ``tau~`` is used as the
    boundary coordinate (its small normal component is discarded).
    """
    x = as_point(x, frame.dim, name="x")
    tau = as_point(tau, frame.dim, name="tau")
    xt = frame.rotation @ (x - frame.base)
    tt = frame.rotation @ (tau - frame.base)
    if not xt[-1] > 0.0:
        raise InvalidInputError(
            f"x = {x.tolist()} is not on the inward side of the frame base "
            f"{frame.base.tolist()} (height {xt[-1]:.6g})"
        )
    tt[-1] = 0.0
    return poisson_halfspace(frame.dim, xt, tt)
