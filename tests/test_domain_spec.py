"""JSON domain-specification parsing."""

import json
import re

import numpy as np
import pytest

import poisskern as pk


def test_parse_ball_full():
    d = pk.parse_domain_spec('{"kind": "ball", "dim": 3, "radius": 2.0, "center": [1, 0, 0]}')
    assert isinstance(d, pk.Ball)
    assert d.dim == 3
    assert d.radius == 2.0
    np.testing.assert_array_equal(d.center, [1.0, 0.0, 0.0])


def test_parse_ball_defaults():
    d = pk.parse_domain_spec('{"kind": "ball", "dim": 2}')
    assert d.radius == 1.0
    np.testing.assert_array_equal(d.center, [0.0, 0.0])


def test_parse_halfspace():
    d = pk.parse_domain_spec('{"kind": "halfspace", "dim": 4}')
    assert isinstance(d, pk.Halfspace)
    assert d.dim == 4


def test_parse_ellipse():
    d = pk.parse_domain_spec('{"kind": "ellipse", "semi_axes": [2.0, 1.0]}')
    assert isinstance(d, pk.Ellipse)
    np.testing.assert_array_equal(d.semi_axes, [2.0, 1.0])
    # explicit matching dim is accepted
    d2 = pk.parse_domain_spec('{"kind": "ellipse", "dim": 2, "semi_axes": [2.0, 1.0]}')
    assert isinstance(d2, pk.Ellipse)


def test_parse_implicit_polynomial_matches_direct_construction():
    text = json.dumps(
        {
            "kind": "implicit_polynomial",
            "dim": 2,
            "coefficients": {"2,0": 0.25, "0,2": 1.0, "0,0": -1.0},
            "bounding_box": [[-2.5, -1.5], [2.5, 1.5]],
            "interior_point": [0.0, 0.0],
        }
    )
    d = pk.parse_domain_spec(text)
    assert isinstance(d, pk.ImplicitPolynomial)
    direct = pk.ImplicitPolynomial(
        {(2, 0): 0.25, (0, 2): 1.0, (0, 0): -1.0},
        bounding_box=[[-2.5, -1.5], [2.5, 1.5]],
        interior_point=[0.0, 0.0],
    )
    for p in ([0.3, 0.2], [1.1, -0.4]):
        x = np.asarray(p)
        assert d.rho(x) == direct.rho(x)
        np.testing.assert_array_equal(d.rho_grad(x), direct.rho_grad(x))
    exact = pk.Ellipse([2.0, 1.0])
    x = np.array([0.7, 0.3])
    assert d.signed_distance(x) == pytest.approx(exact.signed_distance(x), abs=1e-9)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[1, 2]", "JSON object"),
        ("{not json", "not valid JSON"),
        ('{"dim": 2}', "missing required key 'kind'"),
        ('{"kind": "torus", "dim": 2}', "unknown domain kind"),
        ('{"kind": "ball", "dim": 2, "axes": [1]}', "unexpected keys"),
        ('{"kind": "ball"}', "missing required key 'dim'"),
        ('{"kind": "ball", "dim": 1}', "dim must be >= 2"),
        ('{"kind": "halfspace", "dim": 2, "radius": 1}', "unexpected keys"),
        ('{"kind": "ellipse", "dim": 3, "semi_axes": [2, 1]}', "does not match"),
        ('{"kind": "ellipse"}', "missing required key 'semi_axes'"),
        ('{"kind": "ball", "dim": [2]}', r"dim must be an integer, got \[2\]"),
        ('{"kind": "ball", "dim": 2, "radius": null}', "radius must be positive and finite, got None"),
        ('{"kind": "ball", "dim": 2.7}', "dim must be an integer, got 2.7"),
        ('{"kind": "halfspace", "dim": 2.0}', "dim must be an integer, got 2.0"),
        ('{"kind": "ball", "dim": true}', "dim must be an integer, got True"),
        ('{"kind": "ball", "dim": 2, "center": [0, "a"]}', "center must hold real numbers"),
        ('{"kind": ["ball"], "dim": 2}', "unknown domain kind"),
        (
            '{"kind": "implicit_polynomial", "dim": 2, "coefficients": {"2,0": 1, "0,2": "1", "0,0": -1},'
            ' "bounding_box": [[-2, -2], [2, 2]], "interior_point": [0, 0]}',
            "coefficient of '0,2' must be a finite real number, got '1'",
        ),
        (
            '{"kind": "implicit_polynomial", "dim": 2, "coefficients": {"2,0": 1, "0,2": 1, "0,0": -1},'
            ' "bounding_box": [[-2, -2], [2, "x"]], "interior_point": [0, 0]}',
            "bounding_box must hold real numbers",
        ),
    ],
)
def test_parse_rejects_bad_documents(text, fragment):
    with pytest.raises(pk.InvalidInputError, match=fragment):
        pk.parse_domain_spec(text)


def _impl(coeffs):
    return json.dumps(
        {
            "kind": "implicit_polynomial",
            "dim": 2,
            "coefficients": coeffs,
            "bounding_box": [[-2.0, -2.0], [2.0, 2.0]],
            "interior_point": [0.0, 0.0],
        }
    )


def test_parse_implicit_polynomial_key_errors():
    with pytest.raises(pk.InvalidInputError, match="comma-separated integers"):
        pk.parse_domain_spec(_impl({"a,b": 1.0}))
    with pytest.raises(pk.InvalidInputError, match="expected dim = 2"):
        pk.parse_domain_spec(_impl({"2,0,0": 1.0}))
    with pytest.raises(pk.InvalidInputError, match=r"exponent 0 of \(-1, 2\) must be >= 0"):
        pk.parse_domain_spec(_impl({"-1,2": 1.0}))
    with pytest.raises(pk.InvalidInputError, match="non-empty object"):
        pk.parse_domain_spec(_impl({}))
    # whitespace variants of one monomial collide after normalization
    text = _impl({"2,0": 1.0, "2, 0": 2.0, "0,0": -1.0})
    with pytest.raises(pk.InvalidInputError, match="duplicate exponent key"):
        pk.parse_domain_spec(text)


def test_load_domain_spec_round_trip(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text('{"kind": "ball", "dim": 2}')
    d = pk.load_domain_spec(path)
    assert isinstance(d, pk.Ball) and d.dim == 2
    with pytest.raises(pk.InvalidInputError, match="not found"):
        pk.load_domain_spec(tmp_path / "absent.json")


ROUND_TRIP_SPECS = [
    {"kind": "ball", "dim": 3, "radius": 2.0, "center": [1.0, 0.0, 0.0]},
    {"kind": "halfspace", "dim": 3},
    {"kind": "ellipse", "semi_axes": [1.0, 3.0]},
    {"kind": "implicit_polynomial", "dim": 2, "coefficients": {"2,0": 0.25, "0,2": 1.0, "0,0": -1.0},
     "bounding_box": [[-2.5, -1.5], [2.5, 1.5]], "interior_point": [0.0, 0.0]},
]


def test_parsed_domain_descriptor_round_trips():
    # Every kind's descriptor is a spec the parser reads back to the same domain.
    for spec in ROUND_TRIP_SPECS:
        d = pk.parse_domain_spec(json.dumps(spec))
        desc = d.descriptor()
        assert desc["kind"] == spec["kind"]
        again = pk.parse_domain_spec(json.dumps(desc))
        assert type(again) is type(d)
        assert again.descriptor() == desc


@pytest.mark.parametrize("value, got", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("true", "True"), ('"1"', "'1'"),
])
def test_coefficients_follow_the_scalar_rule_and_name_the_spec_key(value, got):
    # Python's JSON reader accepts NaN and Infinity; the error names the key as written
    text = _impl({"2,0": 1.0, "0,0": -1.0}).replace('"0,0": -1.0', f'"0,0": -1.0, "0,2": {value}')
    named = f"coefficient of '0,2' must be a finite real number, got {got}"
    with pytest.raises(pk.InvalidInputError, match=re.escape(named)):
        pk.parse_domain_spec(text)
