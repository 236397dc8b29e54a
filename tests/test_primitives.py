"""Library code calls the domain primitives; only user code calls the public `Domain` queries.

Every public query validates its input and then calls a private primitive
(``_rho_values``, ``_grad_values``, ``_signed_distances``, ``_project``).
The library's own entry points hold checked arrays already, so with every
public query patched to fail they must still run on each domain they support.
"""

from collections import namedtuple

import numpy as np
import pytest

import poisskern as pk
from poisskern.geometry import inward_normal

PUBLIC_QUERIES = {
    pk.Domain: ("rho", "rho_grad", "contains", "signed_distance", "project_to_boundary",
                "rho_batch", "rho_grad_batch", "signed_distance_batch", "project_batch"),
    pk.Implicit: ("rho_hess",),
}

# A boundary base point, a point just inside it (base + 0.05 nu), a walk
# origin, a truncation radius for walks and quadrature, and a kernel: the
# closed form on model domains, a plain closed-form batch callable elsewhere.
Case = namedtuple("Case", "domain base near origin truncation kernel")


def _plain_kernel(x, T):
    return 1.0 / np.sum((T - x) ** 2, axis=1)


CASES = {
    "disc": Case(pk.Ball(2), [1.0, 0.0], [0.95, 0.0], [0.3, 0.1], None, pk.model_kernel(pk.Ball(2))),
    "ellipse": Case(pk.Ellipse([2.0, 1.0]), [2.0, 0.0], [1.95, 0.0], [0.5, 0.2], None, _plain_kernel),
    "halfplane": Case(pk.Halfspace(2), [0.0, 0.0], [0.0, 0.05], [0.2, 0.7], 10.0,
                      pk.model_kernel(pk.Halfspace(2))),
    "implicit_ellipse": Case(
        pk.ImplicitPolynomial({(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0}, [[-2.5, -1.5], [2.5, 1.5]], [0.0, 0.0]),
        [2.0, 0.0], [1.95, 0.0], [0.5, 0.2], None, _plain_kernel,
    ),
}
MODEL = ("disc", "halfplane")  # closed-form kernels, dilated kernels and boundary quadrature
CAP_AREA = ("disc", "ellipse", "halfplane")  # cap areas, so densities and the WoS kernel
WOS = pk.WosConfig(walkers=200, seed=3, stop_tolerance=1e-3)


def _frame(c):
    return pk.boundary_frame(c.domain, c.base, 0.05)


def _tdf(c):
    return pk.transfer_defining_function(_frame(c), c.domain)


ENTRY_POINTS = {
    # frames and blow-up
    "inward_normal": (CASES, lambda c: inward_normal(c.domain, c.base)),
    "boundary_frame": (CASES, _frame),
    "linearization_gap": (CASES, lambda c: pk.linearization_gap(_tdf(c), 0.5)),
    "gradient_at_zero": (CASES, lambda c: _tdf(c).gradient_at_zero),
    "kernel_pullback": (MODEL, lambda c: pk.kernel_pullback(
        _frame(c), pk.scaled_model_kernel(c.domain, _frame(c)), c.near, c.base)),
    "scaled_model_kernel": (MODEL, lambda c: pk.scaled_model_kernel(c.domain, _frame(c))),
    "halfspace_surrogate": (CASES, lambda c: pk.halfspace_surrogate(_frame(c), c.near, c.base)),
    # diagnostics
    "normal_sweep": (CASES, lambda c: pk.normal_sweep(c.domain, c.kernel, c.base, [0.1, 0.05], [c.base])),
    "normal_sweep_wos": (CAP_AREA, lambda c: pk.normal_sweep(
        c.domain, pk.WosKernel(c.domain, WOS, 0.1, c.truncation), c.base, [0.1], [c.base])),
    "kernel_ratio": (CASES, lambda c: pk.kernel_ratio(c.domain, c.kernel, c.near, c.base)),
    "derivative_ratio": (CASES, lambda c: pk.derivative_ratio(c.domain, c.kernel, c.near, c.base, 1, [1.0, 1.0])),
    "derivative_report": (CASES, lambda c: pk.derivative_report(c.domain, c.kernel, c.base, 0.05, [0.0, 0.1])),
    "harmonic_extend": (MODEL, lambda c: pk.harmonic_extend(
        c.domain, lambda T: T[:, 0], c.origin, 256, truncation=c.truncation)),
    # walk-on-spheres
    "run_walks": (CASES, lambda c: pk.run_walks(c.domain, c.origin, WOS, c.truncation)),
    "wos_exit": (CASES, lambda c: pk.wos_exit(c.domain, c.origin, WOS, 0, c.truncation)),
    "estimate_cap_measure": (CASES, lambda c: pk.estimate_cap_measure(
        c.domain, c.origin, c.base, 0.1, WOS, c.truncation)),
    "estimate_kernel_density": (CAP_AREA, lambda c: pk.estimate_kernel_density(
        c.domain, c.origin, c.base, 0.1, WOS, c.truncation)),
    "cap_surface_measure": (CAP_AREA, lambda c: pk.cap_surface_measure(c.domain, c.base, 0.1)),
}


@pytest.fixture
def public_queries_fail(monkeypatch):
    for cls, names in PUBLIC_QUERIES.items():
        for name in names:
            def refuse(self, *args, name=name, **kwargs):
                raise AssertionError(f"library code called the public query {name}")

            monkeypatch.setattr(cls, name, refuse)


@pytest.mark.parametrize("entry, kind", [(entry, kind) for entry, (kinds, _) in ENTRY_POINTS.items()
                                         for kind in kinds])
def test_library_entry_points_call_no_public_query(public_queries_fail, entry, kind):
    ENTRY_POINTS[entry][1](CASES[kind])


def test_the_public_queries_are_really_refused(public_queries_fail):
    c = CASES["implicit_ellipse"]
    for cls, names in PUBLIC_QUERIES.items():
        for name in names:
            with pytest.raises(AssertionError, match=f"public query {name}$"):
                getattr(c.domain, name)(c.origin)
