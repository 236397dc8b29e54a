"""The package's public names: one list per module, and the package is their union."""

import poisskern as pk
from poisskern import asymptotics, domain_spec, errors, geometry, harmonic_measure, model_kernels, scaling

MODULES = (asymptotics, domain_spec, errors, geometry, harmonic_measure, model_kernels, scaling)

PUBLIC_NAMES = {
    "__version__",
    # errors
    "PoisskernError", "InvalidInputError", "DimensionMismatchError", "DomainUnsupportedError",
    "ProjectionAmbiguityError", "NumericalError", "ConvergenceError", "RefinementNeededError",
    "WalkTruncatedError", "EstimationFailureError",
    # geometry
    "Domain", "Ball", "Halfspace", "Ellipse", "Implicit", "ImplicitPolynomial", "BoundaryFrame",
    "QuadratureRule", "boundary_frame", "boundary_quadrature", "rotation_to_last_axis",
    # model kernels
    "poisson_ball", "poisson_halfspace", "ball_kernel", "halfspace_kernel", "model_kernel",
    "ball_constant", "halfspace_constant", "harmonic_extend", "kernel_normalization",
    "halfspace_truncation_tail",
    # scaling
    "phi_eps", "phi_eps_inverse", "TransferredDefiningFunction", "transfer_defining_function",
    "linearization_gap", "kernel_pullback", "scaled_model_kernel", "halfspace_surrogate",
    # harmonic measure
    "WosConfig", "MeasureEstimate", "WosKernel", "run_walks", "wos_exit", "estimate_cap_measure",
    "estimate_kernel_density", "cap_surface_measure",
    # asymptotics
    "RatioRecord", "SweepReport", "kernel_ratio", "normal_sweep", "DerivativeRecord",
    "DerivativeReport", "directional_derivative", "derivative_ratio", "derivative_report",
    # domain specs
    "parse_domain_spec", "load_domain_spec",
}


def test_package_names_are_the_union_of_the_module_lists():
    assert len(PUBLIC_NAMES) == 59
    assert set(pk.__all__) == PUBLIC_NAMES and len(pk.__all__) == len(PUBLIC_NAMES)
    assert set(pk.__all__) == {"__version__"}.union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pk, name) is getattr(module, name)
    assert isinstance(pk.__version__, str)
