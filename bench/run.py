"""Benchmark of sfttrace: four seeded workloads, exactness checks on every
output, and a traced run that reports per-layer numbers.

Run from the repository root:

  python3 bench/run.py --workload wide-sweep --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --trace 1          # every workload in turn, traced
  python3 bench/run.py --smoke            # every workload once at a tiny size

One process, one thread, closed loop: a pass (one ``trace-run`` or one
sweep over the oracle cases) starts only after the previous one ends, and
passes repeat until ``--seconds`` have elapsed.  Fixed gauges of the
machine's speed (``calibrate.py``) are timed between passes and after every
set-up probe, and ``items_per_s`` and ``setup_s`` are scaled by them, so
that the shared machine's drifting speed cancels out.  The unscaled
figures are printed and kept in the result file.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Generated configs,
span files and a full result record go to ``.bench_work/`` in the
repository root.  The exit code is 0 when every output was exact, 1 when
any item failed, 2 when sfttrace cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("wide-sweep", "golden-long", "many-terms", "oracle-check")

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_PROBES = 7


def load_program() -> None:
    """Import sfttrace from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sfttrace

    if Path(sfttrace.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"sfttrace was imported from {sfttrace.__file__}, not {src}")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(wl) -> float:
    """One cold set-up in a fresh interpreter, as timed by that interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(ROOT / "src"), *wl.probe_args()],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def timed_pass(wl):
    """One timed pass: (seconds, outcome, info)."""
    t0 = time.perf_counter()
    try:
        raw = wl.timed_pass()
    except Exception:  # the pass counts as failed; keep measuring
        traceback.print_exc(file=sys.stderr)
        raw = None
    elapsed = time.perf_counter() - t0
    outcome, info = wl.collect(raw)
    return elapsed, outcome, info


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path) -> dict:
    """Measure one workload; returns the result record (see module docstring)."""
    import calibrate
    import tracer
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(name, seed, "smoke" if smoke else "full", workdir)
    n_probes = 0 if trace else 1 if smoke else SETUP_PROBES

    outcomes: dict = {}
    # passes: (seconds, mean of the kernel's seconds before and after the pass);
    # setups: (seconds, start-up gauge seconds right after)
    passes, traced_rates, layer_passes, infos, setups = [], [], [], [], []
    spans = tracer.Tracer() if trace else None
    # set-up probes are spread over the run so that one slow moment of a
    # shared machine does not skew them all; their time does not count
    # against the measuring window
    next_probe = time.perf_counter()
    deadline = next_probe + seconds
    kernel_s = calibrate.kernel_seconds()
    while True:
        if len(setups) < n_probes and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            setups.append((setup_seconds(wl), calibrate.startup_seconds()))
            kernel_s = calibrate.kernel_seconds()
            deadline += time.perf_counter() - t0
            next_probe += seconds / n_probes
        elapsed, outcome, info = timed_pass(wl)
        next_kernel_s = calibrate.kernel_seconds()
        passes.append((elapsed, (kernel_s + next_kernel_s) / 2))
        kernel_s = next_kernel_s
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        infos.append(info)
        if spans is not None:
            spans.begin(len(traced_rates))
            try:
                elapsed, outcome, info = timed_pass(wl)
            finally:
                layer = spans.finish()
            layer["cli.csv_bytes"] = info["cli.csv_bytes"]
            layer_passes.append(layer)
            traced_rates.append(wl.items / elapsed)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if smoke or time.perf_counter() >= deadline:
            break
    while len(setups) < n_probes:
        setups.append((setup_seconds(wl), calibrate.startup_seconds()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = wl.check(outcomes)

    rates = [wl.items / e for e, _ in passes]
    items_per_s = statistics.median(rates)
    unscaled = {"items_per_s": items_per_s,
                "kernel_s": statistics.median(k for _, k in passes)}
    if setups:
        unscaled["setup_s"] = statistics.median(s for s, _ in setups)
        unscaled["startup_gauge_s"] = statistics.median(g for _, g in setups)
    if trace:
        metrics = tracer.combine(layer_passes)
        metrics["tracing.items_per_s"] = statistics.median(traced_rates)
        metrics["tracing.overhead_frac"] = 1 - metrics["tracing.items_per_s"] / items_per_s
        units = tracer.LAYER_METRICS
        spans.write(workdir / f"spans-{name}-seed{seed}.npz")
    else:
        metrics = {
            "items_per_s": statistics.median(
                wl.items / calibrate.scale(e, k, calibrate.KERNEL_REF_S) for e, k in passes),
            "setup_s": statistics.median(
                calibrate.scale(s, g, calibrate.STARTUP_REF_S) for s, g in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    attempted, failed = checked.pop("attempted"), checked.pop("failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(rates) + len(traced_rates),
        "pass_items_per_s": rates,
        "pass_kernel_s": [k for _, k in passes],
        "setup_probes_s": setups,
        "unscaled": unscaled,
        "items_per_pass": wl.items,
        "failed_frac": failed / attempted,
        "inputs": wl.record,
        "checks": checked,
        "recorded_floats": {k: v for k, v in infos[-1].items() if k != "cli.csv_bytes"},
        "environment": environment(),
    }


def report(result: dict, workdir: Path) -> None:
    """Human-readable lines, the result file, then the JSON line last."""
    name, seed = result["workload"], result["seed"]
    print(f"workload {name}  seed {seed}  trace {result['trace']}  "
          f"{result['passes']} passes of {result['items_per_pass']} items")
    for key, value in result["inputs"].items():
        print(f"  input {key}: {value}")
    env = result["environment"]
    print("  env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for key, m in result["metrics"].items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    for key, value in result["unscaled"].items():
        print(f"  {'unscaled ' + key:<40} {value:.6g} {'1/s' if key == 'items_per_s' else 's'}")
    print(f"  {'failed_frac':<40} {result['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for key, value in {**result["checks"], **result["recorded_floats"]}.items():
        print(f"  {key}: {value}")
    out = workdir / "results" / f"{name}-seed{seed}-trace{result['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of each workload at a tiny size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        # each workload in its own process, one after another
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--smoke"] if args.smoke else [])).returncode for w in WORKLOADS]
        return max(codes)

    # a single-threaded load: BLAS thread pools would also add noise to set-up
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import sfttrace from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, workdir)
    report(result, workdir)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
