"""End-to-end command-line interface tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poisskern as pk
from poisskern import __version__, harmonic_measure
from poisskern.cli import build_parser, main


@pytest.fixture
def specs(tmp_path):
    paths = {}
    documents = {
        "disc": {"kind": "ball", "dim": 2},
        "ball3": {"kind": "ball", "dim": 3},
        "ball4": {"kind": "ball", "dim": 4},
        "ellipse": {"kind": "ellipse", "semi_axes": [2.0, 1.0]},
        "halfplane": {"kind": "halfspace", "dim": 2},
    }
    for name, doc in documents.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_kernel_to_stdout(specs, capsys):
    code = main(["kernel", "--domain", specs["disc"], "--x", "0,0", "--t", "1,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["value"] == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    assert set(payload) == {"version", "seed", "config", "result", "meta"}
    assert payload["version"] == __version__
    assert payload["seed"] is None
    assert payload["config"]["command"] == "kernel"


def test_kernel_to_file(specs, tmp_path):
    out = tmp_path / "kernel.json"
    code = main(["kernel", "--domain", specs["ball3"], "--x", "0,0,0", "--t", "0,0,1",
                 "--out", str(out)])
    assert code == 0
    assert _load_json(out)["result"]["value"] == pytest.approx(1 / (4 * math.pi), rel=1e-12)


def test_extend_constant_data(specs, capsys):
    code = main(["extend", "--domain", specs["disc"], "--x", "0.3,0.1",
                 "--resolution", "512"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["value"] == pytest.approx(1.0, abs=1e-10)
    assert result["normalization"] == pytest.approx(1.0, abs=1e-10)


def test_extend_coordinate_data(specs, capsys):
    code = main(["extend", "--domain", specs["disc"], "--x", "0.3,0.1",
                 "--data", "coord:0", "--resolution", "512"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["value"] == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("spec", ["coord:2", "coord:5", "coord:-1"])
def test_extend_coordinate_outside_domain_dimension_exits_one(specs, capsys, spec):
    code = main(["extend", "--domain", specs["disc"], "--x", "0.3,0.1",
                 "--data", spec, "--resolution", "64"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("poisskern: error: --data " + spec)
    assert "[0, 2)" in err


def test_extend_halfplane_reports_truncation_tail(specs, capsys):
    code = main(["extend", "--domain", specs["halfplane"], "--x", "0,1",
                 "--truncation", "50", "--resolution", "1024"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["normalization"] == pytest.approx((2 / math.pi) * math.atan(50.0), abs=1e-8)
    assert result["truncation_tail_bound"] > 0


def test_extend_halfplane_requires_truncation(specs, capsys):
    code = main(["extend", "--domain", specs["halfplane"], "--x", "0,1"])
    assert code == 1
    assert "poisskern: error:" in capsys.readouterr().err


def test_scale_gap_table(specs, capsys):
    code = main(["scale", "--domain", specs["disc"], "--base", "1,0",
                 "--deltas", "0.1,0.05,0.025"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    gaps = {g["epsilon"]: g["gap"] for g in result["gaps"]}
    for eps, gap in gaps.items():
        assert gap == pytest.approx(eps / 2, abs=1e-6)
    ratios = [r["gap_ratio"] for r in result["halving_ratios"]]
    assert all(abs(r - 0.5) < 1e-4 for r in ratios)


def test_wos_report(specs, capsys):
    code = main(["wos", "--domain", specs["disc"], "--x", "0,0",
                 "--cap-center", "1,0", "--cap-radius", "0.4",
                 "--walkers", "4000", "--seed", "11", "--stop-tol", "1e-4"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    cap = result["cap_measure"]
    exact = 4 * math.asin(0.2) / (2 * math.pi)  # chord 0.4 spans arc angle 4*asin(0.2)
    assert abs(cap["estimate"] - exact) < 4 * cap["std_error"]
    assert cap["walkers"] == 4000
    assert cap["truncated"] == 0
    # the density comes from the same walks, equal to the library call bit for bit
    density = pk.estimate_kernel_density(
        pk.Ball(2), np.zeros(2), np.array([1.0, 0.0]), 0.4,
        pk.WosConfig(walkers=4000, seed=11, stop_tolerance=1e-4),
    )
    assert result["density"]["estimate"] == density.estimate > 0
    assert result["density"]["std_error"] == density.std_error
    assert "density_unavailable" not in result


def test_wos_density_unavailable_reports_why(specs, capsys):
    # no cap area on spheres in d = 4: the cap estimate stands, the density says why
    code = main(["wos", "--domain", specs["ball4"], "--x", "0,0,0,0",
                 "--cap-center", "0,0,0,1", "--cap-radius", "0.5",
                 "--walkers", "500", "--seed", "3"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["cap_measure"]["walkers"] == 500
    assert 0.0 < result["cap_measure"]["estimate"] < 1.0
    assert result["density"] is None
    assert "d = 4" in result["density_unavailable"]


def test_wos_on_the_readme_implicit_domain(tmp_path, capsys):
    # The README's implicit ellipse x^2/4 + y^2 - 1: its cap measure agrees with
    # the exact-distance Ellipse on an independent seed, and it has no cap area.
    spec = tmp_path / "implicit.json"
    spec.write_text(json.dumps({"kind": "implicit_polynomial", "dim": 2,
                                "coefficients": {"2,0": 0.25, "0,2": 1.0, "0,0": -1.0},
                                "bounding_box": [[-2.5, -1.5], [2.5, 1.5]], "interior_point": [0.0, 0.0]}))
    code = main(["wos", "--domain", str(spec), "--x", "0.5,0.2", "--cap-center", "2,0", "--cap-radius", "0.3",
                 "--walkers", "5000", "--seed", "5", "--stop-tol", "1e-3"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["density"] is None
    assert "not available for ImplicitPolynomial domains" in result["density_unavailable"]
    cap = result["cap_measure"]
    assert cap["walkers"] == 5000 and cap["truncated"] == 0
    want = pk.estimate_cap_measure(pk.Ellipse([2.0, 1.0]), [0.5, 0.2], [2.0, 0.0], 0.3,
                                   pk.WosConfig(walkers=5000, seed=6, stop_tolerance=1e-3))
    assert 0.0 < want.estimate < 1.0
    assert abs(cap["estimate"] - want.estimate) <= 3.0 * math.hypot(cap["std_error"], want.std_error)


def test_wos_checks_its_cap_center_once(specs, capsys, monkeypatch):
    # The cap estimate and the density's cap area share one check of --cap-center.
    centers = []
    check = harmonic_measure._check_cap_centers

    def counted(domain, T, *args, **kwargs):
        centers.append(np.asarray(T).tolist())
        return check(domain, T, *args, **kwargs)

    monkeypatch.setattr(harmonic_measure, "_check_cap_centers", counted)
    code = main(["wos", "--domain", specs["ellipse"], "--x", "0.5,0.2",
                 "--cap-center", "2,0", "--cap-radius", "0.1",
                 "--walkers", "200", "--seed", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["density"]["walkers"] == 200
    assert centers == [[[2.0, 0.0]]]


def test_wos_requires_seed(specs, capsys):
    code = main(["wos", "--domain", specs["disc"], "--x", "0,0",
                 "--cap-center", "1,0", "--cap-radius", "0.4", "--walkers", "100"])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_numerical_failure_exit_code(specs, capsys):
    # Off the center: one jump from the center lands on the circle and settles.
    code = main(["wos", "--domain", specs["disc"], "--x", "0.5,0",
                 "--cap-center", "1,0", "--cap-radius", "0.4",
                 "--walkers", "50", "--seed", "1", "--stop-tol", "1e-9",
                 "--max-steps", "1"])
    assert code == 2
    assert "poisskern: numerical failure:" in capsys.readouterr().err


def test_bad_domain_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["kernel", "--domain", str(bad), "--x", "0,0", "--t", "1,0"])
    assert code == 1
    assert "poisskern: error:" in capsys.readouterr().err


@pytest.mark.parametrize("document,named", [
    (b'{"kind": "ball", "dim": 2, "radius": null}', "radius must be positive and finite, got None"),
    (b"\xff\xfe", "is not UTF-8 text"),
])
def test_malformed_domain_spec_exits_one_naming_the_input(tmp_path, capsys, document, named):
    # A null radius used to end in a TypeError traceback; a spec that is not
    # UTF-8 exited 1 only because every ValueError did.
    bad = tmp_path / "bad.json"
    bad.write_bytes(document)
    code = main(["kernel", "--domain", str(bad), "--x", "0,0", "--t", "1,0"])
    assert code == 1
    assert named in capsys.readouterr().err


def test_missing_domain_file_exits_one(tmp_path, capsys):
    code = main(["kernel", "--domain", str(tmp_path / "none.json"),
                 "--x", "0,0", "--t", "1,0"])
    assert code == 1


def test_unsupported_kernel_exits_one(specs, capsys):
    code = main(["kernel", "--domain", specs["ellipse"], "--x", "0,0", "--t", "2,0"])
    assert code == 1
    assert "poisskern: error:" in capsys.readouterr().err


def test_usage_error_exits_one(specs, capsys):
    code = main(["kernel", "--domain", specs["disc"], "--x", "0,0"])  # missing --t
    assert code == 1
    assert "poisskern: error:" in capsys.readouterr().err


def test_bad_coordinate_string_exits_one(specs, capsys):
    code = main(["kernel", "--domain", specs["disc"], "--x", "a,b", "--t", "1,0"])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--x", "0.5", "--t", "1,0"], "argument --x: coordinate list '0.5' needs at least two entries"),
    (["kernel", "--x", "a,b", "--t", "1,0"], "argument --x: bad coordinate list 'a,b'"),
    (["ratio", "--base", "1,0", "--deltas", "0.1,x"], "argument --deltas: bad number list '0.1,x'"),
    (["ratio", "--base", "1,0", "--deltas", "0.1", "--targets", ";"],
     "argument --targets: point list ';' holds no point"),
], ids=["one-coordinate", "non-numeric-point", "non-numeric-delta", "no-target"])
def test_list_option_errors_name_the_reason(specs, capsys, argv, message):
    # argparse turns a ValueError from a type function into "invalid <function> value";
    # the reason has to reach the user instead.
    code = main([argv[0], "--domain", specs["disc"], *argv[1:]])
    assert code == 1
    assert capsys.readouterr().err == f"poisskern: error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ("coord:x", "bad boundary data spec 'coord:x'"),
    ("foo", "unknown boundary data 'foo' (expected 'one' or 'coord:K')"),
], ids=["non-integer-index", "unknown-kind"])
def test_extend_bad_data_spec_exits_one(specs, capsys, spec, message):
    code = main(["extend", "--domain", specs["disc"], "--x", "0.3,0.1", "--data", spec])
    assert code == 1
    assert capsys.readouterr().err == f"poisskern: error: {message}\n"


@pytest.mark.parametrize("option", ["--targets=", "--targets=;", "--deltas="])
def test_ratio_empty_list_exits_one_naming_the_option(specs, capsys, option):
    # An empty --targets list used to exit 0 and sweep the base point instead.
    code = main(["ratio", "--domain", specs["disc"], "--base", "1,0", "--deltas", "0.1", option])
    assert code == 1
    assert f"argument {option.split('=')[0]}:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"poisskern {__version__}" in capsys.readouterr().out


def test_ratio_csv_and_summary(specs, tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "sweep.json"
    argv = ["ratio", "--domain", specs["disc"], "--base", "1,0",
            "--deltas", "0.2,0.1,0.05", "--out", str(out),
            "--summary-out", str(summary), "--seed", "5"]
    assert main(argv) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == f"# version: {__version__}"
    assert lines[1] == "# seed: 5"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "delta,y_index,separation,kernel,ratio,far_field"
    rows = [line for line in lines[4:] if line]
    assert len(rows) == 3
    first = rows[0].split(",")
    assert float(first[4]) == pytest.approx((2 - 0.2) / (2 * math.pi), abs=1e-12)
    payload = _load_json(summary)
    assert payload["result"]["c1_hat"] > 0
    assert payload["result"]["seed"] == 5
    assert payload["result"]["domain"]["kind"] == "ball"


def test_ratio_rerun_is_byte_identical(specs, tmp_path):
    argv_for = lambda name: [
        "ratio", "--domain", specs["ellipse"], "--base", "0,1",
        "--deltas", "0.2,0.1", "--kernel", "wos", "--walkers", "2000",
        "--seed", "42", "--stop-tol", "1e-4", "--cap-radius", "0.05",
        "--out", str(tmp_path / name),
    ]
    assert main(argv_for("a.csv")) == 0
    assert main(argv_for("b.csv")) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    # bodies are identical; headers differ only in the echoed output path
    a_body = a.split(b"\n", 3)[3]
    b_body = b.split(b"\n", 3)[3]
    assert a_body == b_body
    assert len(a_body.strip().split(b"\n")) == 3  # header + 2 rows


@pytest.mark.parametrize("truncation", ["-3", "0", "nan", "inf"])
def test_wos_bad_truncation_exits_one(specs, capsys, truncation):
    # A negative radius used to truncate every walk and exit 2 as a numerical failure.
    code = main(["wos", "--domain", specs["halfplane"], "--x", "0,1",
                 "--cap-center", "0,0", "--cap-radius", "0.5", "--walkers", "100",
                 "--seed", "1", "--truncation", truncation])
    assert code == 1
    err = capsys.readouterr().err
    assert f"truncation_radius must be positive and finite, got {float(truncation)}" in err


@pytest.mark.parametrize("command", [
    ["wos", "--x", "0,1", "--cap-center", "0,0", "--cap-radius", "0.5"],
    ["ratio", "--kernel", "wos", "--base", "0,0", "--deltas", "0.1", "--cap-radius", "0.1"],
])
def test_wos_on_unbounded_domain_names_the_truncation_option(specs, capsys, command):
    code = main(command + ["--domain", specs["halfplane"], "--walkers", "100", "--seed", "1"])
    assert code == 1
    assert "--truncation is required" in capsys.readouterr().err


def test_extend_on_unbounded_domain_names_the_truncation_option(specs, capsys):
    # The same check as wos and ratio, instead of the library parameter's name.
    code = main(["extend", "--domain", specs["halfplane"], "--x", "0,1"])
    assert code == 1
    assert "poisskern: error: --truncation is required for extend on an unbounded domain" in capsys.readouterr().err


def test_ratio_wos_requires_cap_radius(specs, capsys):
    code = main(["ratio", "--domain", specs["disc"], "--base", "1,0",
                 "--deltas", "0.1", "--kernel", "wos", "--walkers", "100",
                 "--seed", "1"])
    assert code == 1
    assert "cap-radius" in capsys.readouterr().err


_WOS_OPTIONS = {"--seed": "1", "--walkers": "100", "--cap-radius": "0.1"}


@pytest.mark.parametrize("missing", list(_WOS_OPTIONS))
@pytest.mark.parametrize("command", [
    ["wos", "--x", "0,0", "--cap-center", "1,0"],
    ["ratio", "--kernel", "wos", "--base", "1,0", "--deltas", "0.1"],
])
def test_wos_options_are_checked_by_one_rule(specs, capsys, command, missing):
    # wos and ratio --kernel wos need the same three options, named by the same message.
    options = [word for flag, value in _WOS_OPTIONS.items() if flag != missing for word in (flag, value)]
    code = main(command + ["--domain", specs["disc"]] + options)
    assert code == 1
    assert capsys.readouterr().err == f"poisskern: error: {missing} is required for walk-on-spheres runs\n"


def test_out_dir_environment_prefix(specs, tmp_path, monkeypatch):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("POISSKERN_OUT_DIR", str(outdir))
    code = main(["kernel", "--domain", specs["disc"], "--x", "0,0", "--t", "1,0",
                 "--out", "k.json"])
    assert code == 0
    assert (outdir / "k.json").is_file()


def test_missing_output_directory_exits_one(specs, tmp_path, capsys):
    code = main(["kernel", "--domain", specs["disc"], "--x", "0,0", "--t", "1,0",
                 "--out", str(tmp_path / "absent" / "k.json")])
    assert code == 1
    assert "output directory does not exist" in capsys.readouterr().err


def test_failed_rename_removes_the_temporary_file(specs, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code = main(["kernel", "--domain", specs["disc"], "--x", "0,0", "--t", "1,0",
                 "--out", str(tmp_path / "k.json")])
    assert code == 1
    assert capsys.readouterr().err == "poisskern: error: rename refused\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in specs.values())


def test_derivative_point_mode(specs, capsys):
    code = main(["derivative", "--domain", specs["halfplane"], "--x", "0,0.3",
                 "--y", "0.3,0", "--direction", "1,0", "--order", "1"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["ratio"] == pytest.approx(math.sqrt(2) / math.pi, abs=1e-5)
    assert result["order"] == 1


def test_derivative_sweep_mode(specs, tmp_path):
    out = tmp_path / "deriv.json"
    code = main(["derivative", "--domain", specs["halfplane"], "--base", "0,0",
                 "--probe-height", "0.1", "--offsets", "0,0.05,0.1,0.5,1.0",
                 "--out", str(out)])
    assert code == 0
    result = _load_json(out)["result"]
    assert result["normal_ratio_unbounded"] is True
    labels = {rec["direction_label"] for rec in result["records"]}
    assert labels == {"tangential", "normal"}


def test_derivative_sweep_refuses_targets_inside_the_stencil(specs, capsys):
    # At probe height 2e-6 the step is 1e-6, so the target at offset 0 lies
    # within 10 steps of x; unrefused, its normal ratio read 0.4244 against 1/pi.
    code = main(["derivative", "--domain", specs["halfplane"], "--base", "0,0",
                 "--probe-height", "2e-6", "--offsets", "0,1"])
    assert code == 1
    assert "targets[0] = [0.0, 0.0] is too close" in capsys.readouterr().err


def test_derivative_mode_validation(specs, capsys):
    code = main(["derivative", "--domain", specs["halfplane"], "--x", "0,0.3"])
    assert code == 1
    assert "point mode requires" in capsys.readouterr().err
    code = main(["derivative", "--domain", specs["halfplane"], "--base", "0,0"])
    assert code == 1
    assert "sweep mode requires" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # numpy is the one run-time dependency: a fresh interpreter that imports
    # the package and its CLI must not pull in scipy or mpmath (test-only
    # reference libraries) or the standard library's statistics module.
    code = (
        "import sys, poisskern, poisskern.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'statistics', 'mpmath')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, dest, want", [
    (["kernel", "--x", "-0.5,0.2", "--t", "1,0"], "x", (-0.5, 0.2)),
    (["kernel", "--x", "0,0", "--t", "-1,0"], "t", (-1.0, 0.0)),
    (["extend", "--x", "-.3,0.1"], "x", (-0.3, 0.1)),
    (["scale", "--base", "-1,0", "--deltas", "0.1"], "base", (-1.0, 0.0)),
    (["wos", "--x", "0,0", "--cap-center", "-1,0", "--cap-radius", "0.1", "--walkers", "10",
      "--seed", "1"], "cap_center", (-1.0, 0.0)),
    (["ratio", "--base", "1,0", "--deltas", "0.1", "--targets", "-1,0;0,1"], "targets",
     ((-1.0, 0.0), (0.0, 1.0))),
    (["derivative", "--y", "-0.3,0"], "y", (-0.3, 0.0)),
    (["derivative", "--direction", "-1,0"], "direction", (-1.0, 0.0)),
    (["derivative", "--offsets", "-0.5,0,0.5"], "offsets", (-0.5, 0.0, 0.5)),
], ids=["kernel-x", "kernel-t", "extend-x", "base", "cap-center", "targets", "y", "direction", "offsets"])
def test_point_options_take_values_with_a_leading_minus_sign(argv, dest, want):
    # argparse used to read "-0.5,0.2" as an unknown option ("expected one argument")
    config = build_parser().parse_args([argv[0], "--domain", "d.json", *argv[1:]])
    assert getattr(config, dest) == want


def test_kernel_at_a_point_with_negative_coordinates(specs, capsys):
    code = main(["kernel", "--domain", specs["disc"], "--x", "-0.5,0.2", "--t", "-1,0"])
    assert code == 0
    value = json.loads(capsys.readouterr().out)["result"]["value"]
    assert value == pk.poisson_ball(2, [-0.5, 0.2], [-1.0, 0.0])


@pytest.mark.parametrize("argv, label, x, dist", [
    (["ratio", "--deltas", "1.5,1.9", "--targets", "0,1"], "deltas[0] = 1.5", [-0.5, 0.0], 0.5),
    (["derivative", "--probe-height", "1.5", "--offsets", "0,0.1"], "probe_height = 1.5", [-0.5, 0.0], 0.5),
], ids=["ratio", "derivative"])
def test_a_probe_past_the_center_exits_one_naming_its_height(specs, capsys, tmp_path, argv, label, x, dist):
    # These used to exit 0, recording delta = 0.5 for the requested 1.5.
    out = tmp_path / "out"
    code = main([argv[0], "--domain", specs["disc"], "--base", "1,0", *argv[1:], "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"poisskern: error: {label} reaches past a focal or medial point of the base's normal: "
        f"x = {x} lies at boundary distance {dist}, so the base is not its nearest boundary point\n"
    )
