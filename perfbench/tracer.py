"""In-memory span tracer that wraps poisskern's public functions at run time.

Nothing under ``src/`` is edited.  :func:`patched` replaces each traced
function in every ``poisskern`` module namespace that holds it (names imported
with ``from ... import`` are looked up in the importing module), and each
traced method on the class that defines it, then restores the originals.

A span is ``[id, parent_id, name, t0, t1, extra]``; ``extra`` is ``None`` or a
dict that may hold ``counts`` (metric name -> work done by this call),
``err`` (exception class name), ``hist`` (walk step-count histogram) and
``wkey`` (identity of a walk request).  Counts are taken from arguments and
return values at the same boundary as the span, and a count is credited only
at the outermost span that carries it, so nested calls are not counted twice.

This module imports only the standard library at import time, so the traced
CLI child can time ``import poisskern`` without numpy already loaded.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, _clock(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list):
        span[4] = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def adopt(self, spans: list[list], parent_id: int):
        """Append spans recorded by another process under ``parent_id``."""
        offset = len(self.spans)
        for sp in spans:
            parent = parent_id if sp[1] is None else sp[1] + offset
            self.spans.append([sp[0] + offset, parent, sp[2], sp[3], sp[4], sp[5]])

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _extra(span: list) -> dict:
    if span[5] is None:
        span[5] = {}
    return span[5]


def _traced(tracer: Tracer, name, fn, measure=None):
    """Wrap ``fn``; ``name`` is a string or ``f(args) -> str``; ``measure(span, args, out)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sp = tracer.open(name if isinstance(name, str) else name(args))
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            _extra(sp)["err"] = type(exc).__name__
            raise
        finally:
            tracer.close(sp)
        if measure is not None:
            measure(sp, args, kwargs, out)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def _count(key, how):
    def measure(sp, args, kwargs, out):
        _extra(sp).setdefault("counts", {})[key] = int(how(args, kwargs, out))

    return measure


def _rows(X) -> int:
    import numpy as np

    arr = np.asarray(X)
    return 1 if arr.ndim <= 1 else arr.shape[0]


def _kind(domain) -> str:
    return _snake_case(type(domain).__name__)


@functools.lru_cache(maxsize=None)
def _snake_case(name: str) -> str:
    return "".join("_" + c.lower() if c.isupper() else c for c in name).lstrip("_")


def _measure_walks(sp, args, kwargs, out):
    import numpy as np

    feet, truncated, steps = out
    extra = _extra(sp)
    extra["counts"] = {
        "harmonic_measure.walks": int(feet.shape[0]),
        "harmonic_measure.walker_steps": int(steps.sum()),
        "harmonic_measure.truncated_walks": int(truncated.sum()),
    }
    extra["hist"] = np.bincount(steps).tolist()
    # A walk request is identified by everything that determines its walks.
    domain, x, config = args[0], args[1], args[2]
    truncation = kwargs.get("truncation_radius", args[3] if len(args) > 3 else None)
    indices = kwargs.get("walker_indices", args[4] if len(args) > 4 else None)
    extra["wkey"] = repr(
        (id(domain), np.asarray(x, dtype=float).tobytes().hex(), config, truncation,
         None if indices is None else np.asarray(indices).tobytes().hex())
    )


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced function and method."""
    import poisskern
    from poisskern import (
        _rng,
        asymptotics,
        cli,
        domain_spec,
        geometry,
        harmonic_measure,
        model_kernels,
        scaling,
    )

    modules = [poisskern, _rng, asymptotics, cli, domain_spec, geometry,
               harmonic_measure, model_kernels, scaling]
    functions = []  # (module defining it, attribute, span name, measure)

    def fn(module, attr, layer, measure=None):
        functions.append((module, attr, f"{layer}.{attr}", measure))

    fn(_rng, "sphere_directions", "rng",
       _count("rng.directions", lambda a, k, out: out.shape[0]))
    fn(_rng, "stream_keys", "rng")

    fn(geometry, "boundary_quadrature", "geometry.quadrature",
       _count("geometry.quadrature.nodes", lambda a, k, out: len(out)))

    fn(harmonic_measure, "run_walks", "harmonic_measure", _measure_walks)
    fn(harmonic_measure, "wos_exit", "harmonic_measure")
    fn(harmonic_measure, "estimate_cap_measure", "harmonic_measure")
    fn(harmonic_measure, "estimate_kernel_density", "harmonic_measure")
    fn(harmonic_measure, "cap_surface_measure", "harmonic_measure",
       _count("harmonic_measure.cap_area_calls", lambda a, k, out: 1))

    kernel_values = _count("model_kernels.kernel_values", lambda a, k, out: _size(out))
    fn(model_kernels, "poisson_ball", "model_kernels", kernel_values)
    fn(model_kernels, "poisson_halfspace", "model_kernels", kernel_values)
    fn(model_kernels, "harmonic_extend", "model_kernels",
       _count("model_kernels.extend_calls", lambda a, k, out: 1))
    fn(model_kernels, "kernel_normalization", "model_kernels")
    fn(model_kernels, "halfspace_truncation_tail", "model_kernels")

    for attr in ("linearization_gap", "transfer_defining_function", "kernel_pullback",
                 "halfspace_surrogate", "phi_eps", "phi_eps_inverse", "scaled_model_kernel"):
        measure = (_count("scaling.gap_calls", lambda a, k, out: 1)
                   if attr == "linearization_gap" else None)
        fn(scaling, attr, "scaling", measure)

    one_record = _count("asymptotics.records", lambda a, k, out: 1)
    many_records = _count("asymptotics.records", lambda a, k, out: len(out.records))
    fn(asymptotics, "normal_sweep", "asymptotics", many_records)
    fn(asymptotics, "kernel_ratio", "asymptotics", one_record)
    fn(asymptotics, "derivative_report", "asymptotics", many_records)
    fn(asymptotics, "derivative_ratio", "asymptotics", one_record)
    fn(asymptotics, "directional_derivative", "asymptotics")

    fn(domain_spec, "parse_domain_spec", "domain_spec",
       _count("domain_spec.parses", lambda a, k, out: 1))
    fn(domain_spec, "load_domain_spec", "domain_spec")

    out = []
    for module, attr, span_name, measure in functions:
        original = getattr(module, attr)
        wrapper = _traced(tracer, span_name, original, measure)
        for holder in modules:
            if getattr(holder, attr, None) is original:
                out.append((holder, attr, wrapper))

    # Kernel evaluators are closures made by factories: wrap what they return.
    for attr in ("ball_kernel", "halfspace_kernel", "model_kernel"):
        original = getattr(model_kernels, attr)
        wrapper = _traced(tracer, f"model_kernels.{attr}", _evaluator_factory(tracer, original))
        for holder in modules:
            if getattr(holder, attr, None) is original:
                out.append((holder, attr, wrapper))

    # Domain metric queries, per domain kind.
    for cls in (geometry.Ball, geometry.Halfspace, geometry.Ellipse, geometry.Implicit):
        for attr, counter in (("signed_distance", "distance_queries"),
                              ("signed_distance_batch", "distance_queries"),
                              ("project_to_boundary", "projections"),
                              ("project_batch", "projections")):
            original = getattr(cls, attr)

            def name(args, attr=attr):
                return f"geometry.{_kind(args[0])}.{attr}"

            def measure(sp, args, kwargs, result, counter=counter):
                rows = _rows(args[1])
                _extra(sp).setdefault("counts", {})[
                    f"geometry.{_kind(args[0])}.{counter}"] = rows

            out.append((cls, attr, _traced(tracer, name, original, measure)))

    original = harmonic_measure.WosKernel.estimate
    out.append((harmonic_measure.WosKernel, "estimate",
                _traced(tracer, "harmonic_measure.WosKernel.estimate", original)))
    return out


def _size(out) -> int:
    import numpy as np

    return int(np.size(out))


def _evaluator_factory(tracer: Tracer, factory):
    def make(*args, **kwargs):
        evaluate = factory(*args, **kwargs)
        if getattr(evaluate, "__perfbench_original__", None) is not None:
            return evaluate  # already wrapped by a nested factory call
        return _traced(tracer, "model_kernels.evaluate", evaluate,
                       _count("model_kernels.kernel_values", lambda a, k, out: _size(out)))

    return make


_MISSING = object()


@contextmanager
def patched(tracer: Tracer):
    """Install the traced wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(tracer):
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, previous in reversed(saved):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)



# ---------------------------------------------------------------------------
# Aggregation: one traced round's spans -> per-layer metrics
# ---------------------------------------------------------------------------

KINDS = ("ball", "halfspace", "ellipse", "implicit_polynomial")
_FAILURES = {"ConvergenceError", "ProjectionAmbiguityError"}
_SUBGROUPS = {
    "harmonic_measure.run_walks": "harmonic_measure.walks",
    "harmonic_measure.cap_surface_measure": "harmonic_measure.cap_area",
    "model_kernels.harmonic_extend": "model_kernels.extend",
}


@functools.lru_cache(maxsize=None)
def _groups(name: str) -> tuple:
    """Layer first, then the finer groups a span's time is booked to."""
    parts = name.split(".")
    layer = parts[0]
    if layer == "geometry":
        if parts[1] == "quadrature":
            return ("geometry", "geometry.quadrature")
        op = "distance" if parts[2].startswith("signed_distance") else "project"
        return ("geometry", f"geometry.{parts[1]}.{op}")
    sub = _SUBGROUPS.get(name)
    return (layer, sub) if sub else (layer,)


def layer_metrics(spans: list[list], wall_s: float) -> dict:
    """Per-layer metrics of one traced round whose timed phase took ``wall_s``."""
    byid = {sp[0]: sp for sp in spans}
    child_time: dict = {}
    child_err = set()
    for sp in spans:
        if sp[1] in byid:
            child_time[sp[1]] = child_time.get(sp[1], 0.0) + (sp[4] - sp[3])
            if sp[5] and "err" in sp[5]:
                child_err.add(sp[1])

    busy: dict = {}
    self_s: dict = {}
    counts: dict = {}
    hist: list = []
    walk_calls = 0
    distinct_walks: dict = {}
    op_walks: dict = {}  # root span name -> (walker steps, run_walks time)
    failures = 0
    covered = 0.0
    for sp in spans:
        groups = _groups(sp[2])
        layer = groups[0]
        dur = sp[4] - sp[3]
        ancestors = []
        parent = sp[1]
        while parent in byid:
            ancestors.append(byid[parent])
            parent = byid[parent][1]
        above = {g for a in ancestors for g in _groups(a[2])}
        if layer != "op":
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_time.get(sp[0], 0.0)
            if above <= {"op"}:  # outermost library span
                covered += dur
        for g in groups:
            if g not in above:
                busy[g] = busy.get(g, 0.0) + dur
        extra = sp[5]
        if not extra:
            continue
        for key, n in extra.get("counts", {}).items():
            if not any(a[5] and key in a[5].get("counts", {}) for a in ancestors):
                counts[key] = counts.get(key, 0) + n
        if "hist" in extra:
            h = extra["hist"]
            if len(h) > len(hist):
                hist.extend([0] * (len(h) - len(hist)))
            for i, c in enumerate(h):
                hist[i] += c
        if "wkey" in extra:
            walk_calls += 1
            root = ancestors[-1] if ancestors else sp
            distinct_walks.setdefault(root[0], set()).add(extra["wkey"])
            op_steps, op_time = op_walks.get(root[2], (0, 0.0))
            op_walks[root[2]] = (op_steps + extra["counts"]["harmonic_measure.walker_steps"],
                                 op_time + dur)
        if layer == "geometry" and extra.get("err") in _FAILURES and sp[0] not in child_err:
            failures += 1

    def b(group):
        return busy.get(group, 0.0)

    def c(key):
        return counts.get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    m["rng.directions"] = c("rng.directions")
    m["rng.busy_s"] = b("rng")
    m["rng.directions_per_s"] = per(c("rng.directions"), b("rng"))
    for kind in KINDS:
        m[f"geometry.{kind}.distance_queries"] = c(f"geometry.{kind}.distance_queries")
        m[f"geometry.{kind}.distance_busy_s"] = b(f"geometry.{kind}.distance")
        m[f"geometry.{kind}.projections"] = c(f"geometry.{kind}.projections")
        m[f"geometry.{kind}.project_busy_s"] = b(f"geometry.{kind}.project")
    m["geometry.implicit_polynomial.s_per_query"] = per(
        b("geometry.implicit_polynomial.distance"),
        c("geometry.implicit_polynomial.distance_queries"))
    m["geometry.failures"] = failures
    m["geometry.quadrature.nodes"] = c("geometry.quadrature.nodes")
    m["geometry.quadrature.busy_s"] = b("geometry.quadrature")
    m["geometry.busy_s"] = b("geometry")

    walks = c("harmonic_measure.walks")
    steps = c("harmonic_measure.walker_steps")
    m["harmonic_measure.walks"] = walks
    m["harmonic_measure.walker_steps"] = steps
    m["harmonic_measure.busy_s"] = b("harmonic_measure")
    m["harmonic_measure.self_s"] = self_s.get("harmonic_measure", 0.0)
    m["harmonic_measure.walker_steps_per_s"] = per(steps, b("harmonic_measure.walks"))
    m["harmonic_measure.steps_p50"] = _hist_quantile(hist, 0.50)
    m["harmonic_measure.steps_p99"] = _hist_quantile(hist, 0.99)
    m["harmonic_measure.steps_max"] = len(hist) - 1 if hist else 0
    m["harmonic_measure.truncated_walks"] = c("harmonic_measure.truncated_walks")
    m["harmonic_measure.truncated_frac"] = per(c("harmonic_measure.truncated_walks"), walks)
    n_distinct = sum(len(keys) for keys in distinct_walks.values())
    m["harmonic_measure.walk_calls"] = walk_calls
    m["harmonic_measure.redundant_walks"] = walk_calls - n_distinct
    m["harmonic_measure.walks_per_estimate"] = per(walk_calls, n_distinct)
    m["harmonic_measure.cap_area_calls"] = c("harmonic_measure.cap_area_calls")
    m["harmonic_measure.cap_area_busy_s"] = b("harmonic_measure.cap_area")

    m["model_kernels.kernel_values"] = c("model_kernels.kernel_values")
    m["model_kernels.busy_s"] = b("model_kernels")
    m["model_kernels.extend_calls"] = c("model_kernels.extend_calls")
    m["model_kernels.extend_busy_s"] = b("model_kernels.extend")
    m["scaling.gap_calls"] = c("scaling.gap_calls")
    m["scaling.busy_s"] = b("scaling")
    records = c("asymptotics.records")
    m["asymptotics.records"] = records
    m["asymptotics.busy_s"] = b("asymptotics")
    m["asymptotics.self_s"] = self_s.get("asymptotics", 0.0)
    m["asymptotics.self_us_per_record"] = 1e6 * per(self_s.get("asymptotics", 0.0), records)
    m["domain_spec.parses"] = c("domain_spec.parses")
    m["domain_spec.busy_s"] = b("domain_spec")
    m["trace.coverage_frac"] = per(covered, wall_s)
    for op, (op_steps, op_time) in sorted(op_walks.items()):
        m[f"{op}.walker_steps_per_s"] = per(op_steps, op_time)
    return m


def _hist_quantile(hist: list, q: float) -> int:
    total = sum(hist)
    if not total:
        return 0
    need = q * total
    running = 0
    for value, count in enumerate(hist):
        running += count
        if running >= need:
            return value
    return len(hist) - 1
