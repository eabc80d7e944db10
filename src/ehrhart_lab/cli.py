"""Command-line interface.

Commands: classify, cube-delta, roots, series, regions, scan-weights,
realize.  Output is JSON (schema_version 1) or CSV with a `# ehrhart-lab
v1` header line; identical flags always produce byte-identical output.

Exit codes: 0 success / property holds; 1 usage or input error;
2 certified negative (a hypothesis fails, or a realization search comes
back empty); 3 indeterminate (an undecided realization search branch, or
a `roots` solve that did not converge).  Every `classify` verdict is
exact, so `classify` exits 0 or 2 on valid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import __version__
from .criteria import CLOSED_FORMS, classify, region_rows
from .delta import (
    InvalidDeltaError,
    cube_delta,
    ehrhart_polynomial,
    ehrhart_series,
    parse_delta,
)
from .realize import UnsupportedDeltaError, realize, weight_rows
from .roots import HYPOTHESES, NumericalFailure, find_roots, hypothesis_report

CSV_HEADER = "# ehrhart-lab v1"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INDETERMINATE = 3


class CliError(Exception):
    """Usage-level error: message to stderr, exit code 1."""


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        r = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise CliError(f"range must look like 1..200, got {text!r}") from exc
    if not r:
        raise CliError(f"range {text!r} is empty")
    return r


def _emit_json(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=False)


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def cmd_classify(args) -> int:
    dv = parse_delta(args.delta)
    if not dv.palindromic:
        raise CliError("classify requires a palindromic delta-vector")
    if dv.d in CLOSED_FORMS and min(dv.entries[1:dv.d // 2 + 1]) < 1:
        # the closed-form classifiers need their free entries to be >= 1
        raise CliError("classify needs delta_1..delta_{d-1} >= 1 in dimensions 2..7")
    report = hypothesis_report(dv)
    low_dim = classify(dv) if dv.d in CLOSED_FORMS else None
    if low_dim is not None:
        # the closed-form criteria and the exact transforms must agree
        if low_dim.is_cl != report.verdicts["CL"].holds or (
            low_dim.is_real != report.verdicts["Real"].holds
        ):
            print(
                "internal disagreement between closed-form and exact verdicts; "
                "please report this input.",
                file=sys.stderr,
            )
            return EXIT_USAGE
    if args.format == "json":
        payload = {
            "command": "classify",
            "delta": dv.to_json(),
            "dimension": dv.d,
            "hypotheses": report.to_json(),
        }
        if low_dim is not None:
            payload["low_dim"] = {
                "is_cl": low_dim.is_cl,
                "is_real": low_dim.is_real,
                "mixed": low_dim.mixed,
                "case_label": low_dim.case_label,
                "discriminant": (
                    None
                    if low_dim.discriminant_value is None
                    else str(low_dim.discriminant_value)
                ),
            }
        print(_emit_json(payload))
    else:
        rows = []
        for name in HYPOTHESES:
            v = report.verdicts[name]
            w = v.witness or ("", "")
            rows.append([name, v.verdict, w[0], w[1]])
        if low_dim is not None:
            rows.append(["case_label", low_dim.case_label, "", ""])
        print(_emit_csv(["hypothesis", "verdict", "witness_re", "witness_im"], rows))
    if all(v.holds for v in report.verdicts.values()):
        return EXIT_OK
    return EXIT_NEGATIVE


def _require_dimension(d: int):
    if d < 1:
        raise CliError("--dimension must be >= 1")


def cmd_cube_delta(args) -> int:
    _require_dimension(args.dimension)
    dv = cube_delta(args.dimension)
    if args.format == "json":
        print(_emit_json({"command": "cube-delta", "dimension": args.dimension,
                          "delta": dv.to_json()}))
    else:
        print(str(dv))
    return EXIT_OK


def cmd_roots(args) -> int:
    dv = parse_delta(args.delta)
    try:
        rs = find_roots(ehrhart_polynomial(dv))
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    if args.format == "json":
        print(_emit_json({
            "command": "roots",
            "delta": dv.to_json(),
            "roots": [
                {"re": r.re, "im": r.im, "multiplicity": r.multiplicity,
                 "error_radius": r.error_radius}
                for r in rs.roots
            ],
        }))
    else:
        rows = [[f"{r.re!r}", f"{r.im!r}", r.multiplicity, f"{r.error_radius!r}"]
                for r in rs.roots]
        print(_emit_csv(["re", "im", "multiplicity", "error_radius"], rows))
    return EXIT_OK


def cmd_series(args) -> int:
    dv = parse_delta(args.delta)
    if args.terms < 1:
        raise CliError("--terms must be >= 1")
    values = ehrhart_series(dv, args.terms)
    if args.format == "json":
        print(_emit_json({"command": "series", "delta": dv.to_json(),
                          "values": values}))
    else:
        print(_emit_csv(["m", "count"], [[m, v] for m, v in enumerate(values)]))
    return EXIT_OK


def cmd_regions(args) -> int:
    d = args.dimension
    r1 = _parse_range(args.d1)
    r2 = _parse_range(args.d2) if args.d2 else None
    r3 = _parse_range(args.d3) if args.d3 else None
    try:
        rows_iter = region_rows(d, r1, r2, r3)
        header = ([f"d{k}" for k in range(1, d // 2 + 1)]
                  + ["is_cl", "is_real", "mixed", "case_label"])
        rows = [
            list(point) + [int(c.is_cl), int(c.is_real), int(c.mixed), c.case_label]
            for point, c in rows_iter
        ]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(_emit_csv(header, rows))
    return EXIT_OK


def cmd_scan_weights(args) -> int:
    d = args.dimension
    total = args.delta_sum
    _require_dimension(d)
    rows = [[mult, str(w)] for mult, w in weight_rows(d, total)]
    if args.format == "json":
        print(_emit_json({
            "command": "scan-weights", "dimension": d, "delta_sum": total,
            "rows": [{"mult": m, "weights": w} for m, w in rows],
        }))
    else:
        print(_emit_csv(["multiplicity", "weights"], rows))
    return EXIT_OK


def cmd_realize(args) -> int:
    try:
        dv = parse_delta(args.delta)
        result = realize(dv)
    except UnsupportedDeltaError as exc:
        raise CliError(str(exc)) from exc
    if args.format == "json":
        print(_emit_json({
            "command": "realize",
            "delta": dv.to_json(),
            "realizations": [
                {
                    "weights": str(r.weights),
                    "mult": r.mult,
                    "action": str(r.action) if r.action else None,
                    "vertices": r.simplex.to_json(),
                }
                for r in result.realizations
            ],
            "search_log": result.log.to_json(),
        }))
    else:
        log = result.log
        print(f"realizations: {len(result.realizations)}")
        for r in result.realizations:
            action = f" action {r.action}" if r.action else ""
            print(f"- weights {r.weights} mult {r.mult}{action}")
            for v in r.simplex.vertices:
                print("    " + " ".join(str(x) for x in v))
        print(f"multiplicity candidates: {list(log.multiplicity_candidates)}")
        print(f"weights enumerated: {log.weights_enumerated}")
        print(f"weights after dominance: {log.weights_after_dominance}")
        print(f"actions enumerated: {log.actions_enumerated}")
        print(f"actions after age bound: {log.actions_after_age_bound}")
        print(f"actions after chart closure: {log.actions_after_chart_closure}")
        if log.tower_scans:
            print(f"overlattice towers: {log.tower_scans}")
        if log.undecided:
            print(f"undecided: {log.undecided}")
    if result.undecided:
        return EXIT_INDETERMINATE
    return EXIT_OK if result.realizations else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrhart-lab",
        description=(
            "Delta-vectors of lattice polytopes: counting polynomials, root "
            "location hypotheses, closed-form classifiers, weight-system "
            "scans, and realization of palindromic vectors as simplices."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="accepted for script compatibility; output never depends on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=("json", "csv"), default=default)

    p = sub.add_parser("classify", help="hypothesis report and low-dimension classification")
    p.add_argument("--delta", required=True, help="comma-separated entries, e.g. 1,76,230,76,1")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cube-delta", help="delta-vector of the cube [-1,1]^d")
    p.add_argument("-d", "--dimension", type=int, required=True)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_cube_delta)

    p = sub.add_parser("roots", help="numerical roots of the counting polynomial")
    p.add_argument("--delta", required=True)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("series", help="lattice point counts L(0), L(1), ...")
    p.add_argument("--delta", required=True)
    p.add_argument("--terms", type=int, default=8)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("regions", help="classification sweep over delta entries")
    p.add_argument("-d", "--dimension", type=int, required=True)
    p.add_argument("--d1", required=True, help="range lo..hi for delta_1")
    p.add_argument("--d2", help="range for delta_2 (dimensions 4..7)")
    p.add_argument("--d3", help="range for delta_3 (dimensions 6, 7)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("scan-weights", help="candidate weight systems for a delta sum")
    p.add_argument("-d", "--dimension", type=int, required=True)
    p.add_argument("--delta-sum", type=int, required=True)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_scan_weights)

    p = sub.add_parser("realize", help="find simplices with a given delta-vector")
    p.add_argument("--delta", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_realize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call: parsing leaves the
    parser unchanged, and building it costs more than a small command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the documented 1
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, InvalidDeltaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
