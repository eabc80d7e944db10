"""The benchmark's three workloads: seeded inputs, output checks, metrics.

Every operation is one `ehrhart_lab.cli.main([...])` call.  Inputs depend
only on the seed; the program sees nothing but the generated arguments.

classify  `classify --delta` on fresh random palindromic vectors, dimension
          cycling through 4..16 in seeded order, entries uniform in 1..3000.
          Fresh vectors keep the `find_roots` cache from answering repeats.
sweep     `regions` over seeded boxes: 4x4x4 boxes in dimensions 6 and 7
          (the cubic criterion, the main part) alternating with 32x32 boxes
          in dimensions 4 and 5 (the quadratic criterion, the control).
realize   `realize --delta` on the three acceptance anchors plus one seeded
          draw from each of three pools of palindromic delta_1 = 1 targets.
          Each pool holds targets with the same search route (tower only,
          chart and tower, chart only with several realizations), so the
          draw changes the inputs but not the kind of work.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import oracle

VERDICTS = {"holds-exact", "holds-numeric", "fails-exact", "fails-numeric",
            "boundary-indeterminate"}
HYPOTHESES = ("CL", "Real", "NCS", "CS", "HS", "S")
DOCUMENTED_EXIT_CODES = (0, 2, 3)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    part: str = "main"      # "main" or "control": which metrics it feeds
    size: int = 1           # operations it carries (grid points for regions)


@dataclass
class Outcome:
    op: Op
    seconds: float
    code: int | None
    out: str
    error: str | None = None    # traceback when the call raised


def percentile(values, q: int) -> float:
    """Linearly interpolated q-th percentile, 1 <= q <= 99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _delta_arg(op: Op) -> list[int]:
    return [int(x) for x in op.argv[op.argv.index("--delta") + 1].split(",")]


def expected_exit(verdicts: list[str]) -> int:
    if any(v.startswith("fails") for v in verdicts):
        return 2
    if "boundary-indeterminate" in verdicts:
        return 3
    return 0


def compare_with_oracle(program_holds: dict[str, bool], entries) -> tuple[list[str], int]:
    """(problems, number of hypotheses the oracle could not decide)."""
    problems, unchecked = [], 0
    for name, ref in oracle.hypothesis_verdicts(entries).items():
        if name not in program_holds:
            continue
        if ref == oracle.UNCHECKED:
            unchecked += 1
        elif program_holds[name] != (ref == oracle.HOLDS):
            problems.append(f"{name}: program says holds={program_holds[name]}, "
                            f"oracle says {ref}")
    return problems, unchecked


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

CLASSIFY_DIMS = range(4, 17)
CLASSIFY_MAX_ENTRY = 3000
CLASSIFY_TAIL = 95   # about 15 of ~300 vectors per run lie beyond it


def classify_ops(seed: int):
    rng = random.Random(seed)
    while True:
        dims = list(CLASSIFY_DIMS)
        rng.shuffle(dims)
        for d in dims:
            half = [rng.randint(1, CLASSIFY_MAX_ENTRY) for _ in range((d - 1) // 2)]
            mid = [rng.randint(1, CLASSIFY_MAX_ENTRY)] if d % 2 == 0 else []
            entries = [1, *half, *mid, *half[::-1], 1]
            yield Op(("classify", "--delta", ",".join(map(str, entries))),
                     part="main" if d >= 8 else "control")


def check_classify(o: Outcome) -> list[str]:
    payload = json.loads(o.out)
    hyps = payload["hypotheses"]
    verdicts = [hyps[name]["verdict"] for name in HYPOTHESES]
    problems = [f"unknown verdict {v}" for v in verdicts if v not in VERDICTS]
    if o.code != expected_exit(verdicts):
        problems.append(f"exit {o.code} does not match verdicts {verdicts}")
    d = len(_delta_arg(o.op)) - 1
    low = payload.get("low_dim")
    if (low is not None) != (d <= 7):
        problems.append("low_dim block present iff d <= 7 violated")
    elif low is not None:
        holds = {n: hyps[n]["verdict"].startswith("holds") for n in ("CL", "Real")}
        if (low["is_cl"], low["is_real"]) != (holds["CL"], holds["Real"]):
            problems.append("closed-form flags disagree with CL/Real verdicts")
    return problems


def oracle_classify(o: Outcome, rng: random.Random) -> tuple[list[str], int]:
    hyps = json.loads(o.out)["hypotheses"]
    holds = {n: hyps[n]["verdict"].startswith("holds") for n in HYPOTHESES
             if hyps[n]["verdict"] != "boundary-indeterminate"}
    return compare_with_oracle(holds, _delta_arg(o.op))


def classify_metrics(outcomes: list[Outcome]) -> tuple[dict, dict]:
    lat = [o.seconds for o in outcomes]
    low = [o.seconds for o in outcomes if o.op.part == "control"]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "p50_ms": statistics.median(lat) * 1000,
        "tail_ms": percentile(lat, CLASSIFY_TAIL) * 1000,
        "control_ops_per_s": len(low) / sum(low),
    }
    detail = {"vectors": len(lat), "tail_percentile": CLASSIFY_TAIL,
              "beyond_tail": sum(x > percentile(lat, CLASSIFY_TAIL) for x in lat),
              "low_dim_vectors": len(low)}
    return values, detail


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

# entry ranges per dimension: each holds the cube vector and every generic
# case label (cl, real, mixed, quartet)
SWEEP_RANGES = {
    4: ((1, 200), (1, 600)),
    5: ((1, 600), (1, 4000)),
    6: ((1, 800), (1, 12000), (1, 25000)),
    7: ((1, 2500), (1, 65000), (1, 270000)),
}
CUBIC_BOX = 4        # 4x4x4 = 64 points per call
QUADRATIC_BOX = 32   # 32x32 = 1024 points per call
SWEEP_TAIL = 95      # about 30 of ~600 cubic calls per run lie beyond it


def _box(rng: random.Random, d: int, side: int) -> tuple[str, ...]:
    argv = ["regions", "-d", str(d)]
    for k, (lo, hi) in enumerate(SWEEP_RANGES[d], start=1):
        start = rng.randint(lo, hi - side + 1)
        argv += [f"--d{k}", f"{start}..{start + side - 1}"]
    return tuple(argv)


def sweep_ops(seed: int):
    rng = random.Random(seed)
    while True:
        for cubic, quadratic in ((6, 4), (7, 5)):
            yield Op(_box(rng, cubic, CUBIC_BOX), "main", CUBIC_BOX ** 3)
            yield Op(_box(rng, quadratic, QUADRATIC_BOX), "control",
                     QUADRATIC_BOX ** 2)


def _box_points(op: Op) -> tuple[int, list[range]]:
    d = int(op.argv[op.argv.index("-d") + 1])
    ranges = []
    for k in range(1, len(SWEEP_RANGES[d]) + 1):
        lo, hi = op.argv[op.argv.index(f"--d{k}") + 1].split("..")
        ranges.append(range(int(lo), int(hi) + 1))
    return d, ranges


def _rows(o: Outcome) -> list[list[str]]:
    return [line.split(",") for line in o.out.splitlines()[2:]]


def check_sweep(o: Outcome) -> list[str]:
    d, ranges = _box_points(o.op)
    lines = o.out.splitlines()
    problems = []
    if o.code != 0:
        problems.append(f"exit {o.code}")
    if lines[:1] != ["# ehrhart-lab v1"]:
        problems.append("missing CSV version header")
    rows = _rows(o)
    expected = [list(map(str, p)) for p in itertools.product(*ranges)]
    if [r[:len(ranges)] for r in rows] != expected:
        problems.append("rows do not cover the box in row-major order")
    for r in rows:
        flags, label = r[len(ranges):len(ranges) + 3], r[-1]
        if set(flags) - {"0", "1"} or not label.startswith(f"dim{d}-"):
            problems.append(f"malformed row {r}")
            break
    return problems


def _palindrome(d: int, free: list[int]) -> list[int]:
    left = [1, *free]
    return left + left[::-1] if d % 2 else left + left[-2::-1]


def oracle_sweep(o: Outcome, rng: random.Random, points: int = 2):
    d, ranges = _box_points(o.op)
    problems, unchecked = [], 0
    rows = _rows(o)
    for r in rng.sample(rows, min(points, len(rows))):
        free = [int(x) for x in r[:len(ranges)]]
        holds = {"CL": r[len(ranges)] == "1", "Real": r[len(ranges) + 1] == "1"}
        found, skipped = compare_with_oracle(holds, _palindrome(d, free))
        problems += [f"point {free}: {p}" for p in found]
        unchecked += skipped
    return problems, unchecked


def sweep_metrics(outcomes: list[Outcome]) -> tuple[dict, dict]:
    cubic = [o for o in outcomes if o.op.part == "main"]
    quad = [o for o in outcomes if o.op.part == "control"]
    lat = [o.seconds for o in cubic]
    values = {
        "ops_per_s": sum(o.op.size for o in cubic) / sum(lat),
        "p50_ms": statistics.median(lat) * 1000,
        "tail_ms": percentile(lat, SWEEP_TAIL) * 1000,
        "control_ops_per_s": sum(o.op.size for o in quad) / sum(o.seconds for o in quad),
    }
    detail = {"cubic_calls": len(cubic), "cubic_points": sum(o.op.size for o in cubic),
              "quadratic_calls": len(quad),
              "quadratic_points": sum(o.op.size for o in quad),
              "tail_percentile": SWEEP_TAIL}
    return values, detail


# ----------------------------------------------------------------------
# realize
# ----------------------------------------------------------------------

FLAGSHIP = "1,1,1,1,9,28,9,1,1,1,1"
# anchor -> (exit code, realizations, search-log fields), from the
# acceptance suite
ANCHORS = {
    FLAGSHIP: (0, 1, {"weights_enumerated": 24, "weights_after_dominance": 1,
                      "actions_enumerated": 215, "actions_after_age_bound": 58,
                      "actions_after_chart_closure": 1,
                      "multiplicity_candidates": [1, 2, 3, 6, 9, 18, 27, 54]}),
    "1,1,68,1,1": (2, 0, {}),
    "1,1,190,190,1,1": (2, 0, {}),
}
FLAGSHIP_WEIGHTS = "1,1,1,1,1,1,2,2,2,3,3"

# Within a pool every target has the same search log shape (route, weight
# systems, actions after each filter), so the draw changes the input but
# not the amount of work.  Measured per target on the baseline machine:
# 1.4-1.7 s, 1.7-2.0 s and 0.5-0.6 s.
REALIZE_POOLS = {
    # dimension 5, sums 192 and 288: three overlattice towers, no chart
    "tower": ["1,1,94,94,1,1", "1,1,142,142,1,1"],
    # dimension 6, sum 120: one chart (312 -> 149 actions) and one tower
    "chart+tower": [f"1,1,{a},{116 - 2 * a},{a},1,1" for a in range(9, 14)],
    # dimension 6, sum 50: chart only (63 -> 46 -> 33 actions), 3 or 4
    # realizations told apart by canonical form
    "chart": ["1,1,10,26,10,1,1", "1,1,12,22,12,1,1"],
}


def realize_corpus(seed: int) -> list[Op]:
    """Anchors plus one draw per pool, in seeded order.  The chart-only
    targets (the flagship and the "chart" draw) are the control part."""
    rng = random.Random(seed)
    draws = {name: rng.choice(pool) for name, pool in REALIZE_POOLS.items()}
    targets = list(ANCHORS) + list(draws.values())
    rng.shuffle(targets)
    chart_only = {FLAGSHIP, draws["chart"]}
    return [Op(("realize", "--delta", t), "control" if t in chart_only else "main")
            for t in targets]


def check_realize(o: Outcome) -> list[str]:
    payload = json.loads(o.out)
    entries = _delta_arg(o.op)
    found = payload["realizations"]
    log = payload["search_log"]
    problems = []
    expected = 3 if log["undecided"] else (0 if found else 2)
    if o.code != expected:
        problems.append(f"exit {o.code}, expected {expected}")
    d = len(entries) - 1
    if any(len(r["vertices"]) != d + 1 or any(len(v) != d for v in r["vertices"])
           for r in found):
        problems.append("realization is not a d-simplex")
    key = ",".join(map(str, entries))
    if key in ANCHORS:
        code, count, fields = ANCHORS[key]
        if o.code != code or len(found) != count or log["undecided"]:
            problems.append(f"anchor {key}: exit {o.code}, {len(found)} realizations, "
                            f"undecided {log['undecided']}")
        for name, value in fields.items():
            if log[name] != value:
                problems.append(f"anchor {key}: {name} = {log[name]}, expected {value}")
        if key == FLAGSHIP and found and (found[0]["weights"], found[0]["mult"]) != (
                FLAGSHIP_WEIGHTS, 3):
            problems.append("flagship realization has the wrong weights or index")
    return problems


def realize_metrics(passes: list[list[Outcome]]) -> tuple[dict, dict]:
    """Latencies are per target: each target's median over the passes.
    The corpus has six targets, too few for a percentile with ten samples
    beyond it, so the tail is the slowest target's median time."""
    pass_s = [sum(o.seconds for o in p) for p in passes]
    per_target = [statistics.median(group) for group in
                  zip(*([o.seconds for o in p] for p in passes))]
    chart = [o.seconds for p in passes for o in p if o.op.part == "control"]
    flagship = [o.seconds for p in passes for o in p if o.op.argv[-1] == FLAGSHIP]
    corpus_s = statistics.median(pass_s)
    values = {
        "ops_per_s": len(passes[0]) / corpus_s,
        "p50_ms": statistics.median(per_target) * 1000,
        "tail_ms": max(per_target) * 1000,
        "control_ops_per_s": len(chart) / sum(chart),
    }
    detail = {"passes": len(passes), "targets": [o.op.argv[-1] for o in passes[0]],
              "corpus_s": corpus_s, "flagship_s": statistics.median(flagship),
              "target_median_s": per_target}
    return values, detail


def oracle_realize(o: Outcome, rng: random.Random) -> tuple[list[str], int]:
    """Each realization's normalized volume must equal the delta sum."""
    entries = _delta_arg(o.op)
    problems = [
        "normalized volume differs from the delta sum"
        for r in json.loads(o.out)["realizations"]
        if oracle.normalized_volume(r["vertices"]) != sum(entries)
    ]
    return problems, 0


@dataclass(frozen=True)
class Workload:
    check: Callable        # Outcome -> problems, run on every operation
    oracle: Callable       # (Outcome, rng) -> (problems, unchecked), on a sample
    metrics: Callable      # outcomes (or passes) -> (metric values, detail)
    ops: Callable | None = None      # seed -> endless operation stream
    corpus: Callable | None = None   # seed -> operations repeated in passes

    @property
    def passes(self) -> bool:
        return self.corpus is not None


WORKLOADS = {
    "classify": Workload(check_classify, oracle_classify, classify_metrics,
                         ops=classify_ops),
    "sweep": Workload(check_sweep, oracle_sweep, sweep_metrics, ops=sweep_ops),
    "realize": Workload(check_realize, oracle_realize, realize_metrics,
                        corpus=realize_corpus),
}
