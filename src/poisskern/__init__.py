"""poisskern: Poisson kernels, boundary blow-ups, and harmonic-measure estimates.

The package has four layers:

* **Model kernels** (:mod:`poisskern.model_kernels`): closed-form Poisson
  kernels for balls and halfspaces, harmonic extension by quadrature against
  those kernels, and normalization checks.

* **Harmonic measure** (:mod:`poisskern.harmonic_measure`): walk-on-spheres
  estimation of exit distributions on general smooth domains, and
  kernel-density estimates from cap measures.

* **Boundary blow-up** (:mod:`poisskern.scaling` and
  :mod:`poisskern.geometry`): orthonormal boundary frames on smooth domains,
  the dilation that magnifies a boundary neighborhood to unit scale, the
  transferred defining function that converges to a halfspace's, and the
  pulled-back kernel identity.

* **Asymptotic ratio diagnostics** (:mod:`poisskern.asymptotics`): two-sided
  boundary ratio sweeps and direction-resolved derivative diagnostics.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .asymptotics import (
    DerivativeRecord,
    DerivativeReport,
    RatioRecord,
    SweepReport,
    derivative_ratio,
    derivative_report,
    directional_derivative,
    kernel_ratio,
    normal_sweep,
)
from .domain_spec import load_domain_spec, parse_domain_spec
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainUnsupportedError,
    EstimationFailureError,
    InvalidInputError,
    NumericalError,
    PoisskernError,
    ProjectionAmbiguityError,
    RefinementNeededError,
    WalkTruncatedError,
)
from .geometry import (
    Ball,
    BoundaryFrame,
    Domain,
    Ellipse,
    Halfspace,
    Implicit,
    ImplicitPolynomial,
    QuadratureRule,
    boundary_frame,
    boundary_quadrature,
    rotation_to_last_axis,
)
from .harmonic_measure import (
    MeasureEstimate,
    WosConfig,
    WosKernel,
    cap_surface_measure,
    estimate_cap_measure,
    estimate_kernel_density,
    run_walks,
    wos_exit,
)
from .model_kernels import (
    ball_constant,
    ball_kernel,
    halfspace_constant,
    halfspace_kernel,
    halfspace_truncation_tail,
    harmonic_extend,
    kernel_normalization,
    model_kernel,
    poisson_ball,
    poisson_halfspace,
)
from .scaling import (
    TransferredDefiningFunction,
    halfspace_surrogate,
    kernel_pullback,
    linearization_gap,
    phi_eps,
    phi_eps_inverse,
    scaled_model_kernel,
    transfer_defining_function,
)

__all__ = [
    "__version__",
    # errors
    "PoisskernError",
    "InvalidInputError",
    "DimensionMismatchError",
    "DomainUnsupportedError",
    "ProjectionAmbiguityError",
    "NumericalError",
    "ConvergenceError",
    "RefinementNeededError",
    "WalkTruncatedError",
    "EstimationFailureError",
    # geometry
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
    # model kernels
    "poisson_ball",
    "poisson_halfspace",
    "ball_kernel",
    "halfspace_kernel",
    "model_kernel",
    "ball_constant",
    "halfspace_constant",
    "harmonic_extend",
    "kernel_normalization",
    "halfspace_truncation_tail",
    # scaling
    "phi_eps",
    "phi_eps_inverse",
    "TransferredDefiningFunction",
    "transfer_defining_function",
    "linearization_gap",
    "kernel_pullback",
    "scaled_model_kernel",
    "halfspace_surrogate",
    # harmonic measure
    "WosConfig",
    "MeasureEstimate",
    "WosKernel",
    "run_walks",
    "wos_exit",
    "estimate_cap_measure",
    "estimate_kernel_density",
    "cap_surface_measure",
    # asymptotics
    "RatioRecord",
    "SweepReport",
    "kernel_ratio",
    "normal_sweep",
    "DerivativeRecord",
    "DerivativeReport",
    "directional_derivative",
    "derivative_ratio",
    "derivative_report",
    # domain specs
    "parse_domain_spec",
    "load_domain_spec",
]
