"""Spans around the public functions of each sfttrace layer.

The wrappers are installed from the benchmark's own files by rebinding the
public names in every loaded ``sfttrace`` module; nothing under ``src/``
knows about them.  Each call records one span (name, start, end, parent,
run id) in flat arrays, and a few calls also record counts at the same
boundary (path lengths, integer sizes, match hits, pair diagnostics).
Self times are derived from the spans afterwards: a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

# (span name, module, attribute) of every wrapped public function; two
# attributes may share one span name
TARGETS = (
    ("cli.main", "sfttrace.cli", "main"),
    ("cli.load_config", "sfttrace.cli", "load_config"),
    ("rep.scaled_trace_sequence", "sfttrace.rep", "scaled_trace_sequence"),
    ("rep.trace_product_detail", "sfttrace.rep", "trace_product_detail"),
    ("rep.trace_product_oracle", "sfttrace.rep", "trace_product_oracle"),
    ("rep.ExactTrace.scaled", "sfttrace.rep", "ExactTrace.scaled"),
    ("rep.ExactTrace.render", "sfttrace.rep", "ExactTrace.render"),
    ("sft.count_paths", "sfttrace.sft", "count_paths"),
    ("sft.is_mixing", "sfttrace.sft", "is_mixing"),
    ("perron.compute_perron", "sfttrace.perron", "compute_perron"),
    ("points.enumerate_heteroclinic", "sfttrace.points", "enumerate_heteroclinic"),
    ("points.matches", "sfttrace.points", "matches_past"),
    ("points.matches", "sfttrace.points", "matches_future"),
    ("points.splice_point", "sfttrace.points", "splice_point"),
    ("algebra.apply_alpha", "sfttrace.algebra", "apply_alpha"),
    ("algebra.tau", "sfttrace.algebra", "tau"),
)

# per-layer metrics: name -> (unit, better); the traced run reports all of them
LAYER_METRICS = {
    "sft.count_paths.calls": ("count", "lower"),
    "sft.count_paths.self_s": ("s", "lower"),
    "sft.count_paths.length_sum": ("count", "lower"),
    "sft.count_paths.bits_max": ("bit", "lower"),
    "rep.trace_product_detail.calls": ("count", "lower"),
    "rep.trace_product_detail.self_s": ("s", "lower"),
    "rep.trace_product_detail.p50_ms": ("ms", "lower"),
    "rep.trace_product_detail.p90_ms": ("ms", "lower"),
    "rep.term_pairs": ("count", "lower"),
    "rep.bridge_pairs": ("count", "lower"),
    "rep.overlap_pairs": ("count", "lower"),
    "rep.ExactTrace.scaled.self_s": ("s", "lower"),
    "rep.trace_product_oracle.self_s": ("s", "lower"),
    "rep.oracle.useful_ratio": ("ratio", "higher"),
    "points.enumerate_heteroclinic.self_s": ("s", "lower"),
    "points.enumerate_heteroclinic.points": ("count", "lower"),
    "points.matches.calls": ("count", "lower"),
    "points.matches.self_s": ("s", "lower"),
    "points.matches.hit_ratio": ("ratio", "higher"),
    "points.splice_point.calls": ("count", "lower"),
    "algebra.apply_alpha.calls": ("count", "lower"),
    "algebra.apply_alpha.self_s": ("s", "lower"),
    "algebra.tau.self_s": ("s", "lower"),
    "perron.compute_perron.self_s": ("s", "lower"),
    "sft.is_mixing.self_s": ("s", "lower"),
    "cli.load_config.self_s": ("s", "lower"),
    "cli.trace_run.other_s": ("s", "lower"),
    "cli.csv_bytes": ("byte", "lower"),
    "rep.ExactTrace.render.self_s": ("s", "lower"),
    "tracing.items_per_s": ("1/s", "higher"),
    "tracing.overhead_frac": ("ratio", "lower"),
}

# metrics that count work; they must repeat exactly from pass to pass
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bit", "byte")
)


def _count_paths(t, args, kwargs, out):
    length = args[3] if len(args) > 3 else kwargs["length"]
    t.add("sft.count_paths.length_sum", length)
    t.counts["sft.count_paths.bits_max"] = max(
        t.counts.get("sft.count_paths.bits_max", 0), out.bit_length())


def _trace_detail(t, args, kwargs, out):
    diag = out[1]
    t.add("rep.term_pairs", diag.bridge_pairs + diag.overlap_pairs)
    t.add("rep.bridge_pairs", diag.bridge_pairs)
    t.add("rep.overlap_pairs", diag.overlap_pairs)


def _oracle(t, args, kwargs, out):
    # every (coefficient, count) pair of the oracle's result counts roundtrip
    # fixed points; coefficients of reduced elements are never zero
    t.add("oracle.fixed_points", sum(n for _, n in out.pairs))


def _matches(t, args, kwargs, out):
    t.add("points.matches.hits", int(bool(out)))


def _enumerate(t, args, kwargs, out):
    t.add("points.enumerate_heteroclinic.points", len(out))


OBSERVERS = {
    "sft.count_paths": _count_paths,
    "rep.trace_product_detail": _trace_detail,
    "rep.trace_product_oracle": _oracle,
    "points.matches": _matches,
    "points.enumerate_heteroclinic": _enumerate,
}


class Tracer:
    """In-memory span recorder; `begin` wraps the targets for one pass and
    `finish` restores them and returns that pass's per-layer numbers."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self._first = 0
        self._restore: list = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        return wrapper

    def begin(self, run_id: int) -> None:
        """Rebind every target in every loaded sfttrace module."""
        self.run_id = run_id
        self.counts = {}
        self._first = len(self.start)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sfttrace" or key.startswith("sfttrace."))]
        for name, mod_name, attr in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def finish(self) -> dict:
        """Restore the original functions and return the per-layer numbers
        of the pass since `begin`, from its spans and counts."""
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore = []
        counts = self.counts
        first = self._first
        ids = range(first, len(self.start))
        dur = {i: self.end[i] - self.start[i] for i in ids}
        child = dict.fromkeys(ids, 0.0)
        in_oracle = {}
        oracle_id = self.name_ids.get("rep.trace_product_oracle")
        for i in ids:
            p = self.parent[i]
            if p >= first:
                child[p] += dur[i]
            in_oracle[i] = self.span_name[i] == oracle_id or in_oracle.get(p, False)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        detail_ms = []
        oracle_attempts = 0
        for i in ids:
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
            if name == "rep.trace_product_detail":
                detail_ms.append(dur[i] * 1e3)
            elif name == "points.matches" and in_oracle[i]:
                oracle_attempts += 1

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "sft.count_paths.calls": calls.get("sft.count_paths", 0),
            "sft.count_paths.length_sum": counts.get("sft.count_paths.length_sum", 0),
            "sft.count_paths.bits_max": counts.get("sft.count_paths.bits_max", 0),
            "rep.trace_product_detail.calls": calls.get("rep.trace_product_detail", 0),
            "rep.term_pairs": counts.get("rep.term_pairs", 0),
            "rep.bridge_pairs": counts.get("rep.bridge_pairs", 0),
            "rep.overlap_pairs": counts.get("rep.overlap_pairs", 0),
            "rep.oracle.useful_ratio": ratio(counts.get("oracle.fixed_points", 0),
                                             oracle_attempts),
            "points.enumerate_heteroclinic.points":
                counts.get("points.enumerate_heteroclinic.points", 0),
            "points.matches.calls": calls.get("points.matches", 0),
            "points.matches.hit_ratio": ratio(counts.get("points.matches.hits", 0),
                                              calls.get("points.matches", 0)),
            "points.splice_point.calls": calls.get("points.splice_point", 0),
            "algebra.apply_alpha.calls": calls.get("algebra.apply_alpha", 0),
            "cli.trace_run.other_s": (total.get("cli.main", 0.0)
                                      - total.get("rep.scaled_trace_sequence", 0.0)),
            "_detail_ms": detail_ms,
        }
        for name in ("sft.count_paths", "rep.trace_product_detail", "rep.ExactTrace.scaled",
                     "rep.trace_product_oracle", "points.enumerate_heteroclinic",
                     "points.matches", "algebra.apply_alpha", "algebra.tau",
                     "perron.compute_perron", "sft.is_mixing", "cli.load_config",
                     "rep.ExactTrace.render"):
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        return m

    def write(self, path) -> None:
        """Write every recorded span as compressed arrays (names by index)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )


def combine(passes: list[dict]) -> dict:
    """One value per layer metric over several traced passes: counts must
    repeat exactly, times are medians, latencies are pooled percentiles."""
    out = {}
    for key in passes[0]:
        if key == "_detail_ms":
            continue
        values = [p[key] for p in passes]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between identical passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    # every workload calls trace_product_detail more than once per pass
    pooled = [x for p in passes for x in p["_detail_ms"]]
    out["rep.trace_product_detail.p50_ms"] = statistics.median(pooled)
    out["rep.trace_product_detail.p90_ms"] = statistics.quantiles(
        pooled, n=10, method="inclusive")[8]
    return out
