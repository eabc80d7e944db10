"""Benchmark of the ehrhart-lab command line, run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 36 --trace 0

Workloads are described in bench/workloads.py and bench/README.md.  The
package is imported from ./src of the checkout this file lives in; every
operation is an in-process call of `ehrhart_lab.cli.main` with stdout
captured.  With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a traced
replay (see bench/spans.py).  Outputs are checked after the timed loop.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads
from workloads import Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 15
ORACLE_SAMPLES = 12      # outcomes per run checked against sympy/mpmath
REPEAT_SAMPLES = 6       # outcomes per run re-run for byte-identical stdout
TRACE_SHARE = 1 / 3      # share of --seconds spent on the untraced replay


def load_package():
    """Import ehrhart_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "ehrhart_lab" / "cli.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'ehrhart_lab'}")
    sys.path.insert(0, str(SRC))
    import ehrhart_lab.cli

    if Path(ehrhart_lab.cli.__file__).resolve().parent != SRC / "ehrhart_lab":
        sys.exit(f"error: imported ehrhart_lab from {ehrhart_lab.cli.__file__}")
    return ehrhart_lab.cli


def measure_setup(launches: int = SETUP_LAUNCHES) -> list[float]:
    """Wall times of fresh interpreters that import ehrhart_lab.cli; one
    unmeasured launch first so that bytecode compilation is not counted."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import ehrhart_lab.cli"]
    times = []
    for k in range(launches + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return times


def call(cli, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # noqa: BLE001 - a traceback is a failed operation
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return Outcome(op, seconds, code, out.getvalue(), error)


def run_stream(cli, ops, seconds: float):
    """Call ops in order until `seconds` of wall time have passed."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        outcomes.append(call(cli, op))
    return outcomes


def run_passes(cli, corpus, seconds: float, min_passes: int = 2):
    """Repeat the corpus while another pass fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([call(cli, op) for op in corpus])
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Checker:
    """Failed operations and notes collected after the timed loop."""

    def __init__(self):
        self.failed: dict[int, list[str]] = {}
        self.unchecked = 0
        self.oracle_checked = 0

    def fail(self, outcome, problems):
        if problems:
            self.failed.setdefault(id(outcome), []).extend(problems)

    def run(self, workload, outcomes, cli, rng):
        """Check every outcome, an oracle sample and, for streamed workloads,
        a repeat sample (corpus workloads compare their passes instead)."""
        documented = workloads.DOCUMENTED_EXIT_CODES
        for o in outcomes:
            if o.error is not None:
                self.fail(o, [o.error.strip().splitlines()[-1]])
            elif o.code not in documented:
                self.fail(o, [f"exit {o.code} outside {documented}"])
            else:
                try:
                    self.fail(o, workload.check(o))
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    self.fail(o, [f"unreadable output: {exc!r}"])
        healthy = [o for o in outcomes if id(o) not in self.failed]
        for o in rng.sample(healthy, min(ORACLE_SAMPLES, len(healthy))):
            problems, unchecked = workload.oracle(o, rng)
            self.fail(o, problems)
            self.unchecked += unchecked
            self.oracle_checked += 1
        repeats = 0 if workload.passes else min(REPEAT_SAMPLES, len(healthy))
        for o in rng.sample(healthy, repeats):
            again = call(cli, o.op)
            if (again.code, again.out) != (o.code, o.out):
                self.fail(o, ["stdout or exit code changed on repeat"])

    def report(self):
        return {"failed_ops": len(self.failed), "oracle_checked": self.oracle_checked,
                "oracle_unchecked_hypotheses": self.unchecked,
                "problems": [p for ps in self.failed.values() for p in ps][:10]}


def layer_metrics(recorder, untraced_s: float, traced_s: float, ops: int,
                  misses: int) -> dict:
    self_s = recorder.self_times()
    calls = recorder.calls()
    counts = recorder.counts
    out = {"trace.ops": ops, "trace.wall_s": traced_s, "trace.untraced_wall_s": untraced_s,
           "trace.overhead_s": traced_s - untraced_s,
           "trace.unaccounted_s": traced_s - sum(self_s.values())}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["roots.find_roots.misses"] = misses
    for name in ("roots.numeric_verdicts", "exact.routh.degenerate",
                 "wps.enumerate.systems", "realize.tower.nodes",
                 "realize.weights.enumerated", "realize.weights.after_dominance",
                 "realize.actions.enumerated", "realize.actions.after_age",
                 "realize.actions.after_closure"):
        out[name] = counts.get(name, 0)
    w_in, a_in = out["realize.weights.enumerated"], out["realize.actions.enumerated"]
    out["realize.dominance_yield"] = out["realize.weights.after_dominance"] / w_in if w_in else 0.0
    out["realize.closure_yield"] = out["realize.actions.after_closure"] / a_in if a_in else 0.0
    return out


def write_spans(recorder, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for layer, start, end, parent in recorder.spans:
            fh.write(json.dumps([layer, start, end, parent]) + "\n")
        fh.write(json.dumps({"counts": dict(recorder.counts)}) + "\n")
    return path


def timed_run(cli, name: str, seed: int, seconds: float, rng):
    """End-to-end metrics, tracing off."""
    workload = workloads.WORKLOADS[name]
    setup = measure_setup()
    if workload.passes:
        passes = run_passes(cli, workload.corpus(seed), seconds)
        outcomes = [o for p in passes for o in p]
        values, detail = workload.metrics(passes)
    else:
        outcomes = run_stream(cli, workload.ops(seed), seconds)
        values, detail = workload.metrics(outcomes)
    checker = Checker()
    checker.run(workload, outcomes, cli, rng)
    if workload.passes:
        for group in zip(*passes):
            if len({(o.code, o.out) for o in group}) != 1:
                checker.fail(group[0], ["stdout differs between passes"])
    detail.update(setup_launches=len(setup), setup_spread=spread(setup))
    return outcomes, {"setup_s": statistics.median(setup), **values}, checker, detail


def traced_run(cli, name: str, seed: int, seconds: float, rng):
    """Per-layer metrics: a stretch of the workload untraced, then the same
    operations again with every layer wrapped (find_roots cache cleared in
    between, so both replays start cold)."""
    workload = workloads.WORKLOADS[name]
    find_roots = sys.modules["ehrhart_lab.roots"].find_roots
    if workload.passes:
        outcomes = [call(cli, op) for op in workload.corpus(seed)]
    else:
        outcomes = run_stream(cli, workload.ops(seed), seconds * TRACE_SHARE)
    find_roots.cache_clear()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        replay = [call(cli, o.op) for o in outcomes]
    finally:
        uninstall()
    metrics = layer_metrics(recorder, sum(o.seconds for o in outcomes),
                            sum(o.seconds for o in replay), len(replay),
                            find_roots.cache_info().misses)
    checker = Checker()
    checker.run(workload, outcomes, cli, rng)
    for o, r in zip(outcomes, replay):
        if (o.code, o.out) != (r.code, r.out):
            checker.fail(o, ["stdout or exit code changed under tracing"])
    path = write_spans(recorder, name, seed)
    detail = {"spans": len(recorder.spans), "spans_file": str(path.relative_to(ROOT))}
    return outcomes, metrics, checker, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_package()
    run_fn = traced_run if args.trace else timed_run
    outcomes, metrics, checker, more = run_fn(
        cli, args.workload, args.seed, args.seconds, random.Random(args.seed))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if args.trace else "end_to_end"]
    detail = {"workload": args.workload, "seed": args.seed, **more, **checker.report()}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not checker.failed,
        "attempted": len(outcomes),
        "failed": len(checker.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
