"""Tests of the benchmark itself:

    python3 -m pytest bench/test_bench.py -q

They run every workload at a tiny size, plant wrong answers for the
checker, compare printed metric names with BENCHMARK.json, and check that
tracing leaves stdout unchanged.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ehrhart_lab import cli  # noqa: E402
from ehrhart_lab.roots import find_roots  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seconds: float = 0.5) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2].removeprefix("detail ")), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_has_no_failures_and_prints_every_metric(workload):
    detail, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    detail, result = bench("classify", trace=1, seconds=1.5)
    assert result["correct"], detail["problems"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["roots.find_roots.calls"] > 0 and values["cli.calls"] == values["trace.ops"]
    assert abs(values["trace.unaccounted_s"]) < 0.05 * values["trace.wall_s"]


def outcome(argv):
    return run.call(cli, workloads.Op(tuple(argv)))


def checker_failures(workload: str, planted) -> int:
    checker = run.Checker()
    checker.run(workloads.WORKLOADS[workload], [planted], cli, random.Random(0))
    return len(checker.failed)


def test_checker_counts_planted_wrong_classify_verdict():
    good = outcome(["classify", "--delta", "1,1234,2345,1234,1"])
    assert checker_failures("classify", good) == 0
    payload = json.loads(good.out)
    assert payload["hypotheses"]["S"]["verdict"] == "holds-exact"
    # a wrong S verdict keeps the exit code consistent, so only the oracle sees it
    payload["hypotheses"]["S"]["verdict"] = "fails-exact"
    planted = workloads.Outcome(good.op, good.seconds, good.code, json.dumps(payload))
    assert workloads.check_classify(planted) == []
    assert checker_failures("classify", planted) == 1


def test_checker_counts_planted_wrong_sweep_flag():
    good = outcome(["regions", "-d", "4", "--d1", "76..76", "--d2", "230..230"])
    assert checker_failures("sweep", good) == 0
    planted = workloads.Outcome(good.op, good.seconds, good.code,
                                good.out.replace("76,230,1,1", "76,230,0,1"))
    assert checker_failures("sweep", planted) == 1


def test_checker_counts_planted_wrong_realize_anchor():
    good = outcome(["realize", "--delta", "1,1,68,1,1"])
    assert checker_failures("realize", good) == 0
    planted = workloads.Outcome(good.op, good.seconds, 0, good.out)
    assert checker_failures("realize", planted) == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--delta", "1,17,400,2000,400,17,1"],
    ["regions", "-d", "6", "--d1", "700..701", "--d2", "10500..10501", "--d3", "23500..23501"],
    ["realize", "--delta", "1,1,68,1,1"],
])
def test_tracing_leaves_stdout_unchanged(argv):
    find_roots.cache_clear()
    plain = outcome(argv)
    find_roots.cache_clear()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        traced = outcome(argv)
    finally:
        uninstall()
    assert (traced.code, traced.out) == (plain.code, plain.out)
    assert recorder.spans and all(s is not None for s in recorder.spans)
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the original
