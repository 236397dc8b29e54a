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
from poisskern import __version__
from poisskern.cli import main


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


def test_wos_requires_seed(specs, capsys):
    code = main(["wos", "--domain", specs["disc"], "--x", "0,0",
                 "--cap-center", "1,0", "--cap-radius", "0.4", "--walkers", "100"])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_numerical_failure_exit_code(specs, capsys):
    code = main(["wos", "--domain", specs["disc"], "--x", "0,0",
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


def test_ratio_wos_requires_cap_radius(specs, capsys):
    code = main(["ratio", "--domain", specs["disc"], "--base", "1,0",
                 "--deltas", "0.1", "--kernel", "wos", "--walkers", "100",
                 "--seed", "1"])
    assert code == 1
    assert "cap-radius" in capsys.readouterr().err


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


def test_derivative_mode_validation(specs, capsys):
    code = main(["derivative", "--domain", specs["halfplane"], "--x", "0,0.3"])
    assert code == 1
    assert "point mode requires" in capsys.readouterr().err
    code = main(["derivative", "--domain", specs["halfplane"], "--base", "0,0"])
    assert code == 1
    assert "sweep mode requires" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # package and its CLI must not pull in any scipy module.
    code = (
        "import sys, poisskern, poisskern.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
