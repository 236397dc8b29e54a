"""The scalar rule: every size is a positive finite real and every count,
dimension and order an integer, with bools and strings rejected and numpy
scalars accepted."""

import json
import math
import re

import numpy as np
import pytest

import poisskern as pk


def _cfg(**kw):
    return pk.WosConfig(**{"walkers": 4, "seed": 1, **kw})


def _frame():
    return pk.boundary_frame(pk.Ball(2), [1.0, 0.0], 0.1)


def _disc_kernel():
    return pk.model_kernel(pk.Ball(2))


# Each entry point takes the scalar under test as its one argument ``v``; the
# accepted value is a numpy scalar that gives a valid call.
SIZES = {
    "Ball radius": ("radius", lambda v: pk.Ball(2, radius=v)),
    "Ellipse semi-axis": ("semi_axes[1]", lambda v: pk.Ellipse([2.0, v])),
    "BoundaryFrame epsilon": (
        "epsilon", lambda v: pk.BoundaryFrame(_frame().base, _frame().inward_normal, _frame().rotation, v)
    ),
    "boundary_frame epsilon": ("epsilon", lambda v: pk.boundary_frame(pk.Ball(2), [1.0, 0.0], v)),
    "halfspace quadrature truncation": (
        "truncation", lambda v: pk.boundary_quadrature(pk.Halfspace(2), 16, truncation=v)
    ),
    "WosConfig stop_tolerance": ("stop_tolerance", lambda v: _cfg(stop_tolerance=v)),
    "run_walks truncation_radius": (
        "truncation_radius", lambda v: pk.run_walks(pk.Ball(2), [0.1, 0.0], _cfg(), truncation_radius=v)
    ),
    "WosKernel truncation_radius": (
        "truncation_radius", lambda v: pk.WosKernel(pk.Ball(2), _cfg(), 0.1, truncation_radius=v)
    ),
    "estimate_cap_measure cap_radius": (
        "cap_radius", lambda v: pk.estimate_cap_measure(pk.Ball(2), [0.1, 0.0], [1.0, 0.0], v, _cfg())
    ),
    "WosKernel cap_radius": ("cap_radius", lambda v: pk.WosKernel(pk.Ball(2), _cfg(), v)),
    "halfspace_truncation_tail truncation": (
        "truncation", lambda v: pk.halfspace_truncation_tail(2, [0.0, 1.0], v)
    ),
    "linearization_gap radius": (
        "radius", lambda v: pk.linearization_gap(pk.transfer_defining_function(_frame(), pk.Ball(2)), v)
    ),
    "directional_derivative step": (
        "step",
        lambda v: pk.directional_derivative(_disc_kernel(), [0.5, 0.0], [1.0, 0.0], 1, [0.0, 1.0], v),
    ),
    "derivative_report probe_height": (
        "probe_height",
        lambda v: pk.derivative_report(
            pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)), [0.0, 0.0], v, [0.5]
        ),
    ),
}

COUNTS = {
    "WosConfig walkers": ("walkers", 3, lambda v: _cfg(walkers=v)),
    "WosConfig seed": ("seed", 3, lambda v: _cfg(seed=v)),
    "WosConfig max_steps": ("max_steps", 3, lambda v: _cfg(max_steps=v)),
    "boundary_quadrature resolution": ("resolution", 16, lambda v: pk.boundary_quadrature(pk.Ball(2), v)),
    "Ball dimension": ("dim", 3, lambda v: pk.Ball(v)),
    "Halfspace dimension": ("dim", 3, lambda v: pk.Halfspace(v)),
    "ball_constant d": ("d", 3, lambda v: pk.ball_constant(v)),
    "halfspace_constant d": ("d", 3, lambda v: pk.halfspace_constant(v)),
    "halfspace_truncation_tail d": (
        "d", 3, lambda v: pk.halfspace_truncation_tail(v, [0.0, 0.0, 1.0], 5.0)
    ),
    "derivative_report order": (
        "derivative order", 2,
        lambda v: pk.derivative_report(
            pk.Halfspace(2), pk.model_kernel(pk.Halfspace(2)), [0.0, 0.0], 0.1, [0.5], orders=(v,)
        ),
    ),
    "directional_derivative order": (
        "derivative order", 2,
        lambda v: pk.directional_derivative(_disc_kernel(), [0.5, 0.0], [1.0, 0.0], v, [0.0, 1.0], 1e-3),
    ),
    "derivative_ratio order": (
        "derivative order", 2,
        lambda v: pk.derivative_ratio(pk.Ball(2), _disc_kernel(), [0.5, 0.0], [-1.0, 0.0], v, [0.0, 1.0]),
    ),
}


@pytest.mark.parametrize(
    "kind,case",
    [("size", name) for name in SIZES] + [("count", name) for name in COUNTS],
)
def test_scalar_parameters_follow_one_rule(kind, case):
    if kind == "size":
        name, call = SIZES[case]
        rejected, accepted = (0, -1, math.nan, math.inf, True, "2"), np.float32(0.25)
    else:
        name, good, call = COUNTS[case]
        # a fraction or a string of an otherwise valid count is no count either
        rejected, accepted = (2.7, True, "3", good + 0.5, str(good)), np.int64(good)
    for bad in rejected:
        with pytest.raises(pk.InvalidInputError, match=re.escape(f"{name} must be")):
            call(bad)
    call(accepted)


def test_wos_kernel_descriptor_of_numpy_scalars_is_json():
    config = pk.WosConfig(walkers=np.int64(10), seed=np.uint64(1), stop_tolerance=np.float32(0.5))
    kernel = pk.WosKernel(pk.Ball(2), config, np.float64(0.1), truncation_radius=np.int32(3))
    text = json.dumps(kernel.descriptor())
    assert json.loads(text)["walkers"] == 10 and json.loads(text)["truncation_radius"] == 3.0


def _polynomial(coefficients):
    return pk.ImplicitPolynomial(coefficients, [[-2.0, -2.0], [2.0, 2.0]], [0.0, 0.0])


@pytest.mark.parametrize("coefficients,message", [
    ({(2.7, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}, "exponent 0 of (2.7, 0) must be an integer, got 2.7"),
    ({(2, "0"): 1.0, (0, 2): 1.0, (0, 0): -1.0}, "exponent 1 of (2, '0') must be an integer, got '0'"),
    ({(2, True): 1.0, (0, 2): 1.0, (0, 0): -1.0}, "exponent 1 of (2, True) must be an integer, got True"),
    ({(2, -1): 1.0, (0, 2): 1.0, (0, 0): -1.0}, "exponent 1 of (2, -1) must be >= 0, got -1"),
    ({(2, 0): True, (0, 2): 1.0, (0, 0): -1.0}, "coefficient of (2, 0) must be a finite real number, got True"),
    ({(2, 0): 1.0, (0, 2): "1", (0, 0): -1.0}, "coefficient of (0, 2) must be a finite real number, got '1'"),
    ({(2, 0): 1.0, (0, 2): math.nan, (0, 0): -1.0}, "coefficient of (0, 2) must be a finite real number, got nan"),
])
def test_implicit_polynomial_terms_follow_the_scalar_rule(coefficients, message):
    with pytest.raises(pk.InvalidInputError, match=re.escape(message)):
        _polynomial(coefficients)


def test_implicit_polynomial_descriptor_reports_the_evaluated_terms():
    # numpy exponents and integer coefficients are stored as the ints and
    # floats that are evaluated, so the descriptor is plain JSON
    domain = _polynomial({(np.int64(2), 0): 1, (0, np.int32(2)): np.float32(1.0), (0, 0): -1})
    assert domain.descriptor()["coefficients"] == {"0,0": -1.0, "0,2": 1.0, "2,0": 1.0}
    assert all(type(c) is float for c in domain.descriptor()["coefficients"].values())
    assert json.loads(json.dumps(domain.descriptor())) == domain.descriptor()
    assert domain.rho([0.6, 0.0]) == pytest.approx(0.36 - 1.0)


def test_sweep_entries_follow_the_scalar_rule():
    disc, halfplane = pk.Ball(2), pk.Halfspace(2)
    kernel = pk.model_kernel(disc)
    for deltas, label in ((["0.1", True], "deltas[0]"), ([0.1, True], "deltas[1]"), ([0.1, -0.1], "deltas[1]")):
        with pytest.raises(pk.InvalidInputError, match=re.escape(f"{label} must be positive and finite")):
            pk.normal_sweep(disc, kernel, [1.0, 0.0], deltas, [[-1.0, 0.0]])
    flat = pk.model_kernel(halfplane)
    for offsets, label in ((["0.1", True], "tangential_offsets[0]"), ([0.1, True], "tangential_offsets[1]"),
                           ([0.1, math.inf], "tangential_offsets[1]")):
        with pytest.raises(pk.InvalidInputError, match=re.escape(f"{label} must be a finite real number")):
            pk.derivative_report(halfplane, flat, [0.0, 0.0], 0.1, offsets)
    # numpy scalars and negative or zero offsets are accepted
    report = pk.normal_sweep(disc, kernel, [1.0, 0.0], np.array([0.1, 0.05]), [[-1.0, 0.0]])
    assert len(report.records) == 2
    pk.derivative_report(halfplane, flat, [0.0, 0.0], 0.1, [np.float32(-0.5), 0, 0.5])
