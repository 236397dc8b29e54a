"""poisskern benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``wos``, ``closed_form`` and ``cli``
(see ``perfbench/README.md``).  The program is imported from ``./src``; the
run refuses to start without it.

A run repeats the workload's round of operations for about ``--seconds``
seconds and checks every operation's output.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics from the traced ones, plus the
tracing overhead.  Every metric is printed as a table row (name, value,
unit, sample count); the last line of standard output is one JSON object
with the metrics ``BENCHMARK.json`` lists for that mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2  # fresh processes, on top of this process's own set-up
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

# Units of every metric the table prints; BENCHMARK.json picks the ones it reports.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cli_p50_s": "s", "peak_rss_mb": "MB",
             "ops_failed_frac": "frac"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_record"):
        return "us"
    if name.endswith("_s") or name.endswith(".s_per_query"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if ".steps_" in name:
        return "steps"
    if name.endswith("_per_estimate"):
        return "ratio"
    return "count"


class Context:
    """What operations need from the runner: the work directory and CLI launching."""

    def __init__(self, tracer):
        self.workdir = os.path.join(STATE, "work")
        self.tracer = tracer
        self.traced = False
        self.op_span = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env.pop("POISSKERN_OUT_DIR", None)

    def invoke_cli(self, argv: list[str]):
        """Run one fresh ``poisskern`` process; returns (exit code, stdout, stderr)."""
        if self.traced:
            spans_out = os.path.join(self.workdir, "child_spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_out, *argv]
        else:
            cmd = [sys.executable, "-m", "poisskern.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if self.traced:
            with open(spans_out) as handle:
                self.tracer.adopt(json.load(handle), self.op_span)
            os.unlink(spans_out)
        return proc.returncode, proc.stdout, proc.stderr


def run_round(ops, ctx: Context, traced: bool) -> dict:
    """Run every operation once; time only the call, then check its output."""
    results = []
    trace = ctx.tracer
    first_span = len(trace.spans)
    ctx.traced = traced
    for op in ops:
        if traced:
            trace.active = True
            span = trace.open(f"op.{op.name}")
            ctx.op_span = span[0]
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the benchmark keeps going and counts the failure
            error = f"{type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - t0
            if traced:
                trace.close(span)
                trace.active = False
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # a malformed output fails its check the same way
                error = f"{type(exc).__name__}: {exc}"
        results.append((op.name, latency, error))
    return {"traced": traced, "ops": results, "wall": sum(r[1] for r in results),
            "spans": (first_span, len(trace.spans))}


def run_rounds(workload, ctx: Context, seconds: float, trace: bool) -> list:
    """Repeat rounds while the next one is expected to finish within ``seconds``.

    Traced runs alternate untraced and traced rounds, starting untraced.
    """
    ops = workload.ops()
    rounds = []
    last = {}
    start = time.perf_counter()
    traced = False
    while True:
        t0 = time.perf_counter()
        if traced:
            with tracer.patched(ctx.tracer):
                result = run_round(ops, ctx, True)
        else:
            result = run_round(ops, ctx, False)
        last[traced] = time.perf_counter() - t0
        rounds.append(result)
        if trace:
            traced = not traced
        upcoming = last.get(traced) or last[not traced]
        if len(rounds) >= (2 if trace else 1) and time.perf_counter() - start + upcoming > seconds:
            return rounds


def fresh_setup_s(workload: str) -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "specs.py"), SRC, workload],
                         capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_breakdown(env: dict) -> dict:
    """``python -X importtime -c 'import poisskern'`` in a fresh process, parsed."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import poisskern"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    total = scipy = own = 0
    scipy_modules = 0
    for match in _IMPORT_LINE.finditer(proc.stderr):
        self_us, cumulative_us, name = int(match[1]), int(match[2]), match[3]
        if name == "poisskern":
            total = cumulative_us
        if name == "poisskern" or name.startswith("poisskern."):
            own += self_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
            scipy_modules += 1
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6,
            "import.self_s": own / 1e6, "import.scipy_modules": scipy_modules}


def environment(pk, seed: int) -> dict:
    import numpy
    import scipy

    def read(path, pattern=None):
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            return None
        if pattern is None:
            return text.strip()
        match = re.search(pattern, text, re.M)
        return match[1].strip() if match else None

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "poisskern"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", r"^model name\s*:\s*(.+)$"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "poisskern": pk.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(rounds, setup_samples, cli: bool) -> dict:
    walls = [r["wall"] for r in rounds]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, _, err in r["ops"] if err is not None)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    rows = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (rss_mb, 1),
        "ops_failed_frac": (failed / attempted, attempted),
    }
    if cli:  # one operation is one fresh-process invocation
        latencies = [lat for r in rounds for _, lat, _ in r["ops"]]
        rows["cli_p50_s"] = (statistics.median(latencies), len(latencies))
    return rows


def per_layer(rounds, trace: tracer.Tracer, import_samples, cli: bool) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        lo, hi = r["spans"]
        m = tracer.layer_metrics(trace.spans[lo:hi], r["wall"])
        m["cli.invocations"] = len(r["ops"]) if cli else 0
        m["cli.failed"] = sum(1 for _, _, err in r["ops"] if err is not None) if cli else 0
        for sub in ("kernel", "extend", "scale", "wos", "ratio", "derivative"):
            m[f"cli.{sub}_s"] = sum(lat for name, lat, _ in r["ops"]
                                    if cli and name.split("_")[0] == sub)
        per_round.append(m)
    n = len(traced)
    out = {}
    for name in per_round[0]:
        # Counts stay whole numbers: take a sample rather than a mean of two.
        middle = statistics.median_low if layer_unit(name) in ("count", "steps") else statistics.median
        out[name] = (middle(m[name] for m in per_round), n)
    for name in import_samples[0]:
        out[name] = (statistics.median(s[name] for s in import_samples), len(import_samples))
    overhead = (statistics.median(r["wall"] for r in traced)
                / statistics.median(r["wall"] for r in plain) - 1.0)
    out["trace.overhead_frac"] = (overhead, n + len(plain))
    return out


def print_table(title: str, rows: dict, units: dict):
    print(f"\n{title}")
    print(f"  {'metric':<46} {'value':>16}  {'unit':<6} {'n':>6}")
    for name, (value, n) in rows.items():
        print(f"  {name:<46} {value:>16.6g}  {units[name]:<6} {n:>6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wos", "closed_form", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poisskern", "__init__.py")):
        print(f"perfbench: no poisskern sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)

    # Set-up sample 0 is this process: nothing but the standard library is loaded yet.
    from specs import set_up

    t0 = time.perf_counter()
    pk, domains = set_up(args.workload)
    setup_samples = [time.perf_counter() - t0]
    if not os.path.abspath(pk.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported poisskern from {pk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    cli = args.workload == "cli"
    trace = bool(args.trace)
    ctx = Context(tracer.Tracer())
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    os.makedirs(ctx.workdir)
    try:
        if not trace:
            setup_samples += [fresh_setup_s(args.workload) for _ in range(SETUP_PROBES)]
        workload = workloads.WORKLOADS[args.workload](pk, domains, args.seed, ctx)
        workload.prepare()
        rounds = run_rounds(workload, ctx, args.seconds, trace)
        import_samples = [import_breakdown(ctx.env) for _ in range(IMPORT_PROBES)] if trace else []
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    print(f"poisskern benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(pk, args.seed), sort_keys=True))
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(name, err) for r in rounds for name, _, err in r["ops"] if err is not None]
    for name, err in failures[:10]:
        print(f"FAILED {name}: {err}")

    ops_rows = {}
    for name in dict.fromkeys(name for name, _, _ in rounds[0]["ops"]):
        lats = [lat for r in rounds if not r["traced"] for n, lat, _ in r["ops"] if n == name]
        ops_rows[f"op.{name}_s"] = (statistics.median(lats), len(lats))
    print_table("operations (untraced latency medians)", ops_rows, {k: "s" for k in ops_rows})

    if trace:
        rows = per_layer(rounds, ctx.tracer, import_samples, cli)
        units = {name: layer_unit(name) for name in rows}
        print_table("per-layer metrics (traced rounds)", rows, units)
        os.makedirs(STATE, exist_ok=True)
        ctx.tracer.dump(os.path.join(STATE, f"trace_{args.workload}_{args.seed}.json"))
        wanted = spec["per_layer"]
    else:
        rows = end_to_end(rounds, setup_samples, cli)
        units = E2E_UNITS
        print_table("end-to-end metrics (untraced rounds)", rows, units)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value, _ = rows[m["name"]]
        if units[m["name"]] != m["unit"]:
            raise SystemExit(f"perfbench: unit of {m['name']} is {units[m['name']]}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
