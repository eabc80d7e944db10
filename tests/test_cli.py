import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ehrhart_lab import cli
from ehrhart_lab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_regions.json").read_text())


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cube_delta_command():
    code, out, _ = run_cli("cube-delta", "-d", "5")
    assert code == 0
    assert out.strip() == "1,237,1682,1682,237,1"
    code, out, _ = run_cli("cube-delta", "-d", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["delta"] == [1, 76, 230, 76, 1]


def test_classify_exit_codes():
    code, out, _ = run_cli("classify", "--delta", "1,76,230,76,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypotheses"]["CL"]["verdict"] == "holds-exact"
    assert payload["low_dim"]["is_cl"] is True

    code, out, _ = run_cli("classify", "--delta", "1,1,1,1,9,28,9,1,1,1,1")
    assert code == 2
    payload = json.loads(out)
    assert payload["hypotheses"]["HS"]["verdict"] == "fails-exact"
    assert payload["hypotheses"]["S"]["verdict"] == "holds-exact"

    code, out, _ = run_cli("classify", "--delta", "1,7,1")
    assert code == 2  # CL fails even though the roots are real
    payload = json.loads(out)
    assert payload["hypotheses"]["Real"]["verdict"] == "holds-exact"
    assert payload["hypotheses"]["CS"]["verdict"] == "holds-exact"


def test_classify_csv():
    code, out, _ = run_cli("classify", "--delta", "1,6,1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ehrhart-lab v1"
    assert lines[1] == "hypothesis,verdict,witness_re,witness_im"
    assert any(line.startswith("CL,holds-exact") for line in lines)


def test_classify_usage_errors():
    code, _, err = run_cli("classify", "--delta", "1,x,1")
    assert code == 1 and "error" in err
    code, _, err = run_cli("classify", "--delta", "1,3,0")
    assert code == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("classify", "--delta", "1,0,1"),
    ("series", "--delta", "1,2", "--terms", "0"),
    ("regions", "-d", "4", "--d1", "5..1", "--d2", "1..2"),
    ("cube-delta", "-d", "0"),
    ("scan-weights", "-d", "0", "--delta-sum", "6"),
])
def test_input_errors_print_one_line(argv):
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_boundary_roots_are_decided():
    # roots on both lines Re z = -1 and Re z = 0: the open strip CS fails
    code, out, _ = run_cli("classify", "--delta", "1,4,22,4,1")
    assert code == 2
    assert json.loads(out)["hypotheses"]["CS"]["verdict"] == "fails-exact"


def test_roots_nonconvergence_exits_three():
    # the standard 32-simplex: roots -1, ..., -32 defeat double precision
    code, out, err = run_cli("roots", "--delta", "1" + ",0" * 32)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_roots_command():
    code, out, _ = run_cli("roots", "--delta", "1,7,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "re,im,multiplicity,error_radius"
    assert len(lines) == 4


def test_series_command():
    code, out, _ = run_cli("series", "--delta", "1,6,1", "--terms", "3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [1, 9, 25]


def test_regions_command():
    code, out, _ = run_cli("regions", "-d", "4", "--d1", "70..80",
                           "--d2", "225..235")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "d1,d2,is_cl,is_real,mixed,case_label"
    row = [l for l in lines if l.startswith("76,230,")]
    assert row and row[0].split(",")[2:4] == ["1", "1"]
    code, _, _ = run_cli("regions", "-d", "4", "--d1", "1..3")
    assert code == 1  # missing --d2


def test_scan_weights_command():
    code, out, _ = run_cli("scan-weights", "-d", "10", "--delta-sum", "54")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + 24
    assert lines[2] == '1,"1,1,1,1,1,1,6,6,9,9,18"'


def test_realize_command_exit_codes():
    code, out, _ = run_cli("realize", "--delta", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["realizations"]) == 1
    code, out, _ = run_cli("realize", "--delta", "1,1,68,1,1")
    assert code == 2
    payload = json.loads(out)
    assert payload["realizations"] == []
    assert payload["search_log"]["undecided"] == []
    code, _, err = run_cli("realize", "--delta", "1,2,1")
    assert code == 1


def test_realize_text_format():
    code, out, _ = run_cli("realize", "--delta", "1,1,1", "--format", "text")
    assert code == 0
    assert "realizations: 1" in out
    assert "weights 1,1,1" in out


def test_outputs_deterministic():
    for argv in (
        ["classify", "--delta", "1,95,294,95,1"],
        ["roots", "--delta", "1,76,230,76,1"],
        ["regions", "-d", "2", "--d1", "1..9"],
        ["scan-weights", "-d", "4", "--delta-sum", "12"],
        ["realize", "--delta", "1,1,68,1,1"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_threads_flag_accepted():
    code, out, _ = run_cli("--threads", "4", "cube-delta", "-d", "3")
    assert code == 0 and out.strip() == "1,23,23,1"


def test_bad_usage_returns_one():
    code, _, _ = run_cli("no-such-command")
    assert code == 1


def test_regions_dimension_six():
    code, out, _ = run_cli("regions", "-d", "6", "--d1", "722..722",
                           "--d2", "10543..10543", "--d3", "23548..23548")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "d1,d2,d3,is_cl,is_real,mixed,case_label"
    assert lines[2].startswith("722,10543,23548,1,1")


def test_realize_undecided_exits_three(monkeypatch):
    import ehrhart_lab.realize as rz

    monkeypatch.setattr(rz, "TOWER_LEVEL_CAP", 0)
    monkeypatch.setattr(rz, "ACTION_SPACE_CAP", 0)
    code, out, _ = run_cli("realize", "--delta", "1,1,21,1,1")
    assert code == 3
    payload = json.loads(out)
    assert payload["search_log"]["undecided"]


def test_cached_parser_matches_fresh_parsers(monkeypatch):
    calls = [
        ("classify", "--delta", "1,7,1", "--format", "csv"),
        ("series", "--delta", "1,6,1", "--terms", "3"),
        ("classify", "--delta", "1,76,230,76,1"),
        ("classify", "--delta", "1,7,1", "--format", "xml"),   # usage error
        ("regions", "-d", "6", "--d1", "1..2", "--d2", "1..2", "--d3", "1..2"),
        ("cube-delta", "-d", "4", "--format", "json"),
        ("series", "--delta", "1,6,1", "--terms", "3"),
        ("roots",),                                            # usage error
        ("classify", "--delta", "1,7,1", "--format", "csv"),
    ]
    cached = [run_cli(*argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(*argv) for argv in calls] == cached
    assert [code for code, _, _ in cached] == [2, 0, 0, 1, 0, 0, 0, 1, 2]


# recorded before the integer remainder chain replaced the Fraction one:
# 4x4x4 boxes at four origins per cubic dimension (the first of each holds
# a case-2b point, b0 = 0) and classify's low_dim.discriminant strings.
# Recorded before the table-driven classifier: boxes in dimensions 2..5
# across the thresholds, the tangent/mixed lines and the vertices
# (76, 230) and (237, 1682), and full `classify` JSON for d = 2..5
@pytest.mark.parametrize("command", sorted(GOLDEN["regions"]))
def test_regions_csv_golden(command):
    code, out, _ = run_cli(*command.split())
    assert code == 0
    assert out == GOLDEN["regions"][command]


def test_classify_discriminant_golden():
    for delta, disc in GOLDEN["discriminants"].items():
        _, out, _ = run_cli("classify", "--delta", delta)
        assert json.loads(out)["low_dim"]["discriminant"] == disc, delta


@pytest.mark.parametrize("command", sorted(GOLDEN["classify"]))
def test_classify_json_golden(command):
    code, out, err = run_cli(*command.split())
    assert [code, out] == GOLDEN["classify"][command]
    assert err == ""
