"""fillgraph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census-v4|ops-audit|synth-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports ``fillgraph`` from
``src/`` of that checkout and nothing else.  Every pass runs in a fresh
interpreter (``perfbench/workloads.py``), one caller and one call at a
time.  Passes repeat until the next one would overrun ``--seconds`` (at
least one runs).  End-to-end figures are medians over passes (unit
percentiles are taken within each pass first), and set-up time is the
median over every pass plus set-up-only starts before and after them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes) and
``trace.overhead_frac``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passed; 1 when a correctness check failed
(the result is still printed); 2 when the benchmark could not run, for
example without ``src/fillgraph`` (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("census-v4", "ops-audit", "synth-grid")
MIN_SETUP_SAMPLES = 11
TIME_LIMIT_S = 170  # the whole run, children included


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    # single process, single thread, asserts on, only this checkout's source
    for var in ("FILLGRAPH_THREADS", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(var, None)
    return env


def run_child(args, deadline, *extra):
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, *extra]
    launch = time.perf_counter()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {args.workload} pass overran the "
                         f"{TIME_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{args.workload} child exited {proc.returncode}:"
                         f"\n{tail}")
    return json.loads(lines[-1])


def environment():
    numba = importlib.util.find_spec("numba") is not None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "numba": numba, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def measure(args):
    """Run the passes; returns (untraced records, traced records, setups)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    budget_end = start + args.seconds
    # half the set-up samples before the passes and the rest after, so
    # they span the run rather than one moment of it
    setups = [run_child(args, deadline, "--setup-only")["setup_s"]
              for _ in range(MIN_SETUP_SAMPLES // 2)]
    plain, traced = [], []
    durations = []
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        extra = []
        if trace:
            spans = OUT / (f"{args.workload}-seed{args.seed}-"
                           f"pass{len(traced)}.spans.tsv")
            extra = ["--trace", "--spans", str(spans)]
        t0 = time.monotonic()
        rec = run_child(args, deadline, *extra)
        durations.append(time.monotonic() - t0)
        (traced if trace else plain).append(rec)
        if args.trace and not traced:
            continue  # a traced run has at least one traced pass
        if time.monotonic() + statistics.median(durations) > budget_end:
            break
    setups += [r["setup_s"] for r in plain]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(args, deadline, "--setup-only")["setup_s"])
    return plain, traced, setups


def end_to_end(plain, setups):
    """(name, value, unit, sample note) of every end-to-end metric."""
    def median(key):
        return statistics.median(r[key] for r in plain)

    passes = f"median of {len(plain)} passes"
    units = f"{passes} of {plain[0]['samples']} unit samples each"
    return [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups"),
        ("wall_s", median("wall_s"), "s", passes),
        ("unit_p50_ms", median("p50_ms"), "ms", units),
        ("unit_p99_ms", median("p99_ms"), "ms", units),
        ("peak_rss_mb", median("rss_mb"), "MB", passes),
    ]


def per_layer(plain, traced):
    names = traced[0]["trace"]
    metrics = {k: statistics.median(r["trace"][k] for r in traced)
               for k in names}
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1
    return metrics


def print_layer_table(metrics):
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print("per-layer self time (median traced pass, set-up included, "
          "checks excluded):")
    for layer in sorted(LAYERS, key=lambda x: -metrics[f"{x}.self_s"]):
        t = metrics[f"{layer}.self_s"]
        print(f"  {layer:<10} {t:10.4f} s  {100 * t / total:6.2f} %")
    print(f"  {'total':<10} {total:10.4f} s")


def main(argv=None):
    p = argparse.ArgumentParser(
        description="fillgraph benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fillgraph" / "__init__.py").is_file():
        print(f"benchmark: no fillgraph source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        plain, traced, setups = measure(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    env = environment()
    rows = end_to_end(plain, setups)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    failures = [f for r in plain + traced for f in r["failures"]]
    correct = failed == 0 and not failures

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  scale {args.scale}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, each in a "
          f"fresh interpreter; {plain[0]['attempted']} units per pass")
    speed = statistics.median(r["speed"] for r in plain)
    raw_wall = statistics.median(r["wall_raw_s"] for r in plain)
    print(f"times are in quiet-CPU seconds (perfbench/pace.py): CPU speed "
          f"{speed:.4g}, uncorrected wall_s {raw_wall:.6g} s (medians over "
          "passes)")
    for name, value, unit, note in rows:
        print(f"  {name:<12} {value:12.6g} {unit:<5} ({note})")
    print(f"  {'failed_frac':<12} {failed / attempted:12.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    for f in failures:
        print(f"FAIL: {f}")

    if args.trace:
        metrics = per_layer(plain, traced)
        print_layer_table(metrics)
        print("per-layer metrics:")
        for k in sorted(metrics):
            print(f"  {k} = {metrics[k]:.6g}")
        units = metric_units()
        result_metrics = {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in metrics.items()}
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, value, unit, _ in rows}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    passes = [{k: r[k] for k in ("setup_s", "setup_raw_s", "wall_s",
                                 "wall_raw_s", "speed", "p50_ms",
                                 "p99_ms", "rss_mb", "attempted", "failed")}
              for r in plain]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, env=env, failures=failures,
                                  passes=passes, setups=setups),
                             indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def metric_units():
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
