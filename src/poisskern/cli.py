"""Command-line interface.

One executable with one subcommand per experiment:

* ``kernel``     -- evaluate a closed-form model kernel at (x, t)
* ``extend``     -- harmonic extension of boundary data by the Poisson integral
* ``scale``      -- blow-up diagnostics: linearization gaps across epsilons
* ``wos``        -- walk-on-spheres cap-measure / kernel-density estimation
* ``ratio``      -- boundary-asymptotic ratio sweep (CSV + optional JSON summary)
* ``derivative`` -- direction-resolved derivative ratios (single or sweep)

Reports are written atomically (temp file + rename).  CSV bodies are fully
deterministic -- configuration is echoed in ``#`` comment lines and floats are
shortest round-trip reprs -- so reruns with identical configuration and seed
produce byte-identical files.  JSON reports carry {version, seed, config} plus
a ``meta`` object confining the only nondeterministic field (the timestamp).

Exit codes: 0 success, 1 validation error (bad arguments, malformed domain
spec, unsupported operation), 2 numerical failure (solver nonconvergence,
under-resolved quadrature, too many truncated walks).  The environment
variable ``POISSKERN_OUT_DIR`` prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import derivative_ratio, derivative_report, normal_sweep
from .domain_spec import load_domain_spec
from .errors import InvalidInputError, NumericalError, PoisskernError
from .geometry import Domain, Halfspace, boundary_frame
from .harmonic_measure import (
    WosConfig,
    WosKernel,
    _cap_area,
    _density_from_cap,
    estimate_cap_measure,
)
from .model_kernels import (
    harmonic_extend,
    halfspace_truncation_tail,
    kernel_normalization,
    model_kernel,
)
from .scaling import linearization_gap, transfer_defining_function

__all__ = ["run", "main", "build_parser"]

_OUT_DIR_ENV = "POISSKERN_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors raise (mapped to exit code 1).

    A word that starts with a minus sign and a digit is a value, never an
    option, since no option starts with a digit: ``--x -0.5,0.2`` gives the
    point (-0.5, 0.2) to every point, point-list and number-list option.
    argparse alone reads only single negative numbers that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise InvalidInputError(message)


def _point(text: str) -> tuple:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coordinate list '{text}'") from exc
    if len(values) < 2:
        raise argparse.ArgumentTypeError(f"coordinate list '{text}' needs at least two entries")
    return values


def _points(text: str) -> tuple:
    points = tuple(_point(part) for part in text.split(";") if part.strip())
    if not points:
        raise argparse.ArgumentTypeError(f"point list '{text}' holds no point")
    return points


def _floats(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list '{text}'") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poisskern", description="Poisson-kernel asymptotics toolkit")
    parser.add_argument("--version", action="version", version=f"poisskern {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--domain", dest="domain_spec", metavar="DOMAIN", required=True,
                       help="path to a JSON domain-spec file")
        p.add_argument("--out", dest="output", metavar="OUT", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (recorded in every report; required for walk-on-spheres runs)")

    def monte_carlo(p: argparse.ArgumentParser):
        p.add_argument("--cap-radius", type=float, help="chordal cap radius (required for walk-on-spheres runs)")
        p.add_argument("--walkers", type=int, help="number of walks (required for walk-on-spheres runs)")
        p.add_argument("--stop-tol", dest="stop_tolerance", metavar="STOP_TOL", type=float,
                       default=None)
        p.add_argument("--max-steps", type=int, default=10_000)
        p.add_argument("--truncation", type=float, default=None,
                       help="truncation ball radius (required for halfspaces)")

    p = sub.add_parser("kernel", help="evaluate a closed-form model kernel")
    common(p)
    p.add_argument("--x", required=True, type=_point, help="interior point, comma-separated")
    p.add_argument("--t", required=True, type=_point, help="boundary point, comma-separated")

    p = sub.add_parser("extend", help="harmonic extension by the Poisson integral")
    common(p)
    p.add_argument("--x", required=True, type=_point)
    p.add_argument("--data", default="one",
                   help="boundary data: 'one' or 'coord:K' (the K-th coordinate)")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--truncation", type=float, default=None,
                   help="boundary truncation radius (required for halfspaces)")

    p = sub.add_parser("scale", help="blow-up linearization-gap diagnostics")
    common(p)
    p.add_argument("--base", required=True, type=_point, help="boundary base point")
    p.add_argument("--deltas", required=True, type=_floats,
                   help="comma-separated frame scales (epsilons)")
    p.add_argument("--radius", type=float, default=1.0,
                   help="radius of the frame-coordinate ball for the gap supremum")

    p = sub.add_parser("wos", help="walk-on-spheres cap measure and kernel density")
    common(p)
    p.add_argument("--x", required=True, type=_point)
    p.add_argument("--cap-center", required=True, type=_point)
    monte_carlo(p)

    p = sub.add_parser("ratio", help="boundary-asymptotic ratio sweep (CSV)")
    common(p)
    p.add_argument("--base", required=True, type=_point)
    p.add_argument("--deltas", required=True, type=_floats)
    p.add_argument("--targets", type=_points, default=None,
                   help="semicolon-separated boundary points (default: the base point)")
    p.add_argument("--kernel", dest="kernel_kind", choices=("model", "wos"), default="model")
    p.add_argument("--summary-out", dest="summary_output", metavar="SUMMARY_OUT", default=None,
                   help="optional JSON summary file")
    monte_carlo(p)

    p = sub.add_parser("derivative", help="direction-resolved derivative ratios")
    common(p)
    p.add_argument("--x", type=_point, default=None)
    p.add_argument("--y", type=_point, default=None)
    p.add_argument("--order", type=int, default=1, choices=(1, 2))
    p.add_argument("--direction", type=_point, default=None)
    p.add_argument("--base", type=_point, default=None, help="sweep mode: boundary base point")
    p.add_argument("--probe-height", type=float, default=None,
                   help="sweep mode: height of x above the base along the normal")
    p.add_argument("--offsets", type=_floats, default=None,
                   help="sweep mode: tangential target offsets")
    return parser


def _config_dict(config: argparse.Namespace) -> dict:
    """The parsed options of the run's subcommand, as JSON-ready values."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(config).items()}


def _resolve_out_path(path: str) -> Path:
    p = Path(path)
    prefix = os.environ.get(_OUT_DIR_ENV)
    if prefix and not p.is_absolute():
        p = Path(prefix) / p
    return p


def _write_text(path: str, text: str):
    """Atomic write: temp file in the target directory, then rename."""
    target = _resolve_out_path(path)
    directory = target.parent
    if not directory.is_dir():
        raise InvalidInputError(f"output directory does not exist: {directory}")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _json_report(config: argparse.Namespace, result: dict) -> str:
    payload = {
        "version": __version__,
        "seed": config.seed,
        "config": _config_dict(config),
        "result": result,
        "meta": {"created": datetime.now(timezone.utc).isoformat()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_report(config: argparse.Namespace, body: str) -> str:
    header = (
        f"# version: {__version__}\n"
        f"# seed: {json.dumps(config.seed)}\n"
        f"# config: {json.dumps(_config_dict(config), sort_keys=True)}\n"
    )
    return header + body


def _boundary_data(spec: str, dim: int):
    if spec == "one":
        return lambda nodes: np.ones(len(nodes))
    if spec.startswith("coord:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad boundary data spec '{spec}'") from exc
        if not 0 <= k < dim:
            raise InvalidInputError(
                f"--data {spec}: coordinate index {k} is outside [0, {dim}) for a {dim}-D domain"
            )
        return lambda nodes: nodes[:, k]
    raise InvalidInputError(f"unknown boundary data '{spec}' (expected 'one' or 'coord:K')")


def _require_truncation(config: argparse.Namespace, domain: Domain) -> None:
    if config.truncation is None and not domain.bounded():
        raise InvalidInputError(f"--truncation is required for {config.command} on an unbounded domain")


def _wos_config(config: argparse.Namespace, domain: Domain) -> WosConfig:
    """The one check of the walk-on-spheres options, for ``wos`` and ``ratio --kernel wos``."""
    for flag in ("seed", "walkers", "cap_radius"):
        if getattr(config, flag) is None:
            raise InvalidInputError(f"--{flag.replace('_', '-')} is required for walk-on-spheres runs")
    _require_truncation(config, domain)
    return WosConfig(
        walkers=config.walkers,
        seed=config.seed,
        stop_tolerance=config.stop_tolerance,
        max_steps=config.max_steps,
    )


def _estimate_record(est) -> dict:
    return {
        "estimate": est.estimate,
        "std_error": est.std_error,
        "walkers": est.walkers_used,
        "truncated": est.truncated_walks,
        "wide_interval": est.wide_interval,
    }


def _cmd_kernel(config: argparse.Namespace, domain: Domain):
    kern = model_kernel(domain)
    value = float(kern(np.asarray(config.x), np.asarray(config.t)))
    _emit(_json_report(config, {"value": value}), config.output)


def _cmd_extend(config: argparse.Namespace, domain: Domain):
    _require_truncation(config, domain)
    data = _boundary_data(config.data, domain.dim)
    value = harmonic_extend(
        domain, data, np.asarray(config.x), config.resolution, truncation=config.truncation
    )
    normalization = kernel_normalization(
        domain, np.asarray(config.x), config.resolution, truncation=config.truncation
    )
    result = {"value": value, "normalization": normalization}
    if isinstance(domain, Halfspace):
        result["truncation_tail_bound"] = halfspace_truncation_tail(
            domain.dim, np.asarray(config.x), config.truncation
        )
    _emit(_json_report(config, result), config.output)


def _cmd_scale(config: argparse.Namespace, domain: Domain):
    gaps = []
    for eps in config.deltas:
        frame = boundary_frame(domain, np.asarray(config.base), eps)
        tdf = transfer_defining_function(frame, domain)
        gaps.append({"epsilon": eps, "gap": linearization_gap(tdf, config.radius)})
    ratios = [
        {
            "epsilon_pair": [gaps[i]["epsilon"], gaps[i + 1]["epsilon"]],
            "gap_ratio": (gaps[i + 1]["gap"] / gaps[i]["gap"]) if gaps[i]["gap"] else None,
        }
        for i in range(len(gaps) - 1)
    ]
    _emit(_json_report(config, {"gaps": gaps, "halving_ratios": ratios}), config.output)


def _cmd_wos(config: argparse.Namespace, domain: Domain):
    wos = _wos_config(config, domain)
    center = np.asarray(config.cap_center, dtype=float)
    cap = estimate_cap_measure(
        domain, np.asarray(config.x), center, config.cap_radius, wos, truncation_radius=config.truncation
    )
    result = {"cap_measure": _estimate_record(cap)}
    # The density divides this cap measure by the area of the cap just
    # checked, which not every domain and cap has; the report then says why
    # instead of giving one.
    try:
        area = _cap_area(domain, center, config.cap_radius)
    except InvalidInputError as exc:
        result["density"] = None
        result["density_unavailable"] = str(exc)
    else:
        result["density"] = _estimate_record(_density_from_cap(cap, area))
    _emit(_json_report(config, result), config.output)


def _cmd_ratio(config: argparse.Namespace, domain: Domain):
    if config.kernel_kind == "wos":
        kernel = WosKernel(domain, _wos_config(config, domain), config.cap_radius, config.truncation)
    else:
        kernel = model_kernel(domain)
    report = normal_sweep(domain, kernel, config.base, config.deltas, config.targets or (config.base,))
    _emit(_csv_report(config, report.to_csv_text()), config.output)
    if config.summary_output is not None:
        summary = report.to_json_summary(seed=config.seed)
        _write_text(config.summary_output, _json_report(config, summary))


def _cmd_derivative(config: argparse.Namespace, domain: Domain):
    kernel = model_kernel(domain)
    sweep_mode = config.base is not None
    if sweep_mode:
        if config.probe_height is None or config.offsets is None:
            raise InvalidInputError("sweep mode requires --probe-height and --offsets")
        report = derivative_report(domain, kernel, config.base, config.probe_height, config.offsets, (config.order,))
        _emit(_json_report(config, report.to_json_summary()), config.output)
        return
    if config.x is None or config.y is None or config.direction is None:
        raise InvalidInputError("point mode requires --x, --y and --direction")
    ratio = derivative_ratio(domain, kernel, config.x, config.y, config.order, config.direction)
    _emit(_json_report(config, {"ratio": ratio, "order": config.order}), config.output)


_DISPATCH = {
    "kernel": _cmd_kernel,
    "extend": _cmd_extend,
    "scale": _cmd_scale,
    "wos": _cmd_wos,
    "ratio": _cmd_ratio,
    "derivative": _cmd_derivative,
}


def run(config: argparse.Namespace) -> int:
    """Execute parsed command-line options; returns the process exit code."""
    try:
        domain = load_domain_spec(config.domain_spec)
        _DISPATCH[config.command](config, domain)
        return 0
    except NumericalError as exc:
        print(f"poisskern: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (PoisskernError, OSError) as exc:
        print(f"poisskern: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
    except InvalidInputError as exc:
        print(f"poisskern: error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
