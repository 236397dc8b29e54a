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
