"""The benchmark's own tests, at smoke scale (seconds, not minutes).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's tier-1 collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "wall_s", "unit_p50_ms", "failed_frac"):
        assert name in proc.stdout


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "ops-audit", "--seed", "3", "--seconds",
                     "1", "--trace", "1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ops.calls.join"] == metrics["ops.calls.plumb"] == 300
    assert 0 < metrics["ops.consum_reject_ratio"] < 1
    assert metrics["ops.self_s"] > 0 and metrics["core.self_s"] > 0
    assert metrics["synthesis.self_s"] == 0


def test_second_seed_gives_same_unit_counts_and_passes():
    counts = []
    for seed in (1, 2):
        for setup, run_pass in (workloads.WORKLOADS["ops-audit"],
                                workloads.WORKLOADS["synth-grid"]):
            run = workloads.Pass()
            state = setup(workloads.SMOKE, seed)
            counts.append(run_pass(workloads.SMOKE, seed, state, run))
            assert run.failures == [] and run.failed_units == 0
            assert len(run.latencies) == counts[-1]
    assert counts[:2] == counts[2:]


def test_wrong_expected_value_fails_the_gate():
    run = workloads.Pass()
    wrong = {**workloads.CENSUS_CLASSES, 3: 37}
    workloads.census_pass(workloads.SMOKE, 0, None, run, classes=wrong)
    # the census(3) unit and the CSV row count of enumerate -V 3
    assert run.failed_units == 2

    run = workloads.Pass()
    state = workloads.ops_setup(workloads.SMOKE, 0)
    too_many = dict(workloads.OPS_MIN_CASES, consum=5)
    workloads.ops_pass(workloads.SMOKE, 0, state, run, min_cases=too_many)
    assert run.failed_units == 0
    assert run.failures == ["consum: 4 case branches covered, want 5"]


def test_failed_check_exits_nonzero_with_result(monkeypatch, capsys):
    record = {"setup_s": 0.1, "setup_raw_s": 0.2, "wall_s": 1.0,
              "wall_raw_s": 2.0, "speed": 0.5, "samples": 2, "p50_ms": 500.0,
              "p99_ms": 500.0, "rss_mb": 30.0, "attempted": 2, "failed": 1,
              "failures": ["unit broke"]}
    monkeypatch.setattr(bench, "measure", lambda args: ([record], [], [0.1]))
    rc = bench.main(["--workload", "census-v4", "--seed", "1",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 1


def test_without_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ops-audit", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("core.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("ops.outer", lambda: [inner() for _ in range(3)])
    outer()
    (o, *_), selft = tracer.spans, tracer.self_times()
    assert len(tracer.spans) == 4
    assert sum(selft) == pytest.approx((o[3] - o[2]) / 1e9)
    assert tracer.metrics()["core.self_s"] == pytest.approx(sum(selft[1:]))


def test_pace_speed_scales_units_by_the_loops_around_them():
    pace = Pace()
    assert pace.speed(0.0, 1.0) == 1.0  # not started: times stay as read
    pace.mids = [0.05 * i for i in range(100)]
    pace.speeds = [0.5] * 50 + [1.0] * 50
    pace.speeds[10] = 0.01  # one loop the kernel interrupted
    # a long span takes the mean speed of the loops inside it
    assert pace.speed(0.0, 4.99) == pytest.approx((0.01 + 49 * 0.5 + 50) / 100)
    # a short one the median of the nearest loops: the interrupted loop
    # does not move it
    assert pace.speed(0.5, 0.501) == 0.5
    assert pace.speed(4.9, 4.91) == 1.0

    run = workloads.Pass(pace=pace)
    run._spans = [(0.5, 0.501, 0.002, False), (4.9, 4.91, 0.004, False),
                  (4.92, 4.93, 0.001, True)]
    assert run.latencies == pytest.approx([0.001, 0.005])
    assert run.work_s == pytest.approx(0.007)
