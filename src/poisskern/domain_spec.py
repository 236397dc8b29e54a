"""Parsing of the JSON domain-specification format.

Schema (one object per document)::

    {"kind": "ball",                "dim": d, "radius": r, "center": [..]}
    {"kind": "halfspace",           "dim": d}
    {"kind": "ellipse",             "dim": 2, "semi_axes": [a, b]}
    {"kind": "implicit_polynomial", "dim": d,
     "coefficients": {"e1,e2,...": coefficient, ...},
     "bounding_box": [[lo_1, ..], [hi_1, ..]],
     "interior_point": [..]}

``radius`` defaults to 1 and ``center`` to the origin; ``dim`` is optional for
ellipses (implied by the two semi-axes).  Implicit polynomial keys are
comma-separated nonnegative exponents (the unit disc is ``{"2,0": 1.0,
"0,2": 1.0, "0,0": -1.0}``); derivatives are exact polynomial differentiation.
The bounding box seeds the projection solver and the interior point is the
sign witness (``rho < 0`` there), both required because the defining function
alone does not certify a nonempty domain.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

from .errors import DimensionMismatchError, InvalidInputError
from .geometry import Ball, Domain, Ellipse, Halfspace, ImplicitPolynomial, _integer

__all__ = ["parse_domain_spec", "load_domain_spec"]

_ALLOWED_KEYS = {
    "ball": {"kind", "dim", "radius", "center"},
    "halfspace": {"kind", "dim"},
    "ellipse": {"kind", "dim", "semi_axes"},
    "implicit_polynomial": {"kind", "dim", "coefficients", "bounding_box", "interior_point"},
}


def _require(spec: dict, key: str):
    if key not in spec:
        raise InvalidInputError(f"domain spec is missing required key '{key}'")
    return spec[key]


def _parse_exponents(key: str, dim: int) -> tuple:
    parts = [p.strip() for p in key.split(",")]
    try:
        exps = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"bad exponent key '{key}': expected comma-separated integers") from exc
    if len(exps) != dim:
        raise InvalidInputError(f"exponent key '{key}' has {len(exps)} entries, expected dim = {dim}")
    if any(e < 0 for e in exps):
        raise InvalidInputError(f"exponent key '{key}' has negative exponents")
    return exps


def parse_domain_spec(text: str) -> Domain:
    """Parse a JSON domain-specification document into a validated Domain."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"domain spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise InvalidInputError("domain spec must be a JSON object")
    kind = _require(spec, "kind")
    if not isinstance(kind, str) or kind not in _ALLOWED_KEYS:
        raise InvalidInputError(
            f"unknown domain kind '{kind}' (expected one of {sorted(_ALLOWED_KEYS)})"
        )
    extra = set(spec) - _ALLOWED_KEYS[kind]
    if extra:
        raise InvalidInputError(f"unexpected keys for kind '{kind}': {sorted(extra)}")

    dim = None
    if kind != "ellipse" or "dim" in spec:
        dim = _integer(_require(spec, "dim"), "dim", 2, DimensionMismatchError)

    if kind == "ball":
        return Ball(dim=dim, center=spec.get("center"), radius=spec.get("radius", 1.0))

    if kind == "halfspace":
        return Halfspace(dim)

    if kind == "ellipse":
        ellipse = Ellipse(_require(spec, "semi_axes"))
        if dim not in (None, ellipse.dim):
            raise InvalidInputError(f"dim = {dim} does not match {ellipse.dim} semi-axes")
        return ellipse

    # implicit_polynomial
    raw_coeffs = _require(spec, "coefficients")
    if not isinstance(raw_coeffs, dict) or not raw_coeffs:
        raise InvalidInputError("coefficients must be a non-empty object")
    coefficients = {}
    for key, value in raw_coeffs.items():
        exps = _parse_exponents(str(key), dim)
        if exps in coefficients:
            raise InvalidInputError(f"duplicate exponent key '{key}'")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise InvalidInputError(f"coefficient of '{key}' must be a number, got {value!r}")
        coefficients[exps] = float(value)
    bounding_box = _require(spec, "bounding_box")
    interior_point = _require(spec, "interior_point")
    return ImplicitPolynomial(
        coefficients, bounding_box=bounding_box, interior_point=interior_point, dim=dim
    )


def load_domain_spec(path) -> Domain:
    """Read and parse a domain-specification file."""
    p = Path(path)
    if not p.is_file():
        raise InvalidInputError(f"domain spec file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"domain spec file {p} is not UTF-8 text: {exc}") from exc
    return parse_domain_spec(text)
