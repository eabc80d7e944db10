"""Command-line fuzz: `roots` and `classify` on random palindromic vectors
end in a documented exit code without a traceback, and print the same
bytes again once the root cache is cleared."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrhart_lab.cli import main
from ehrhart_lab.roots import find_roots


@st.composite
def palindromic_entries(draw):
    d = draw(st.integers(1, 20))
    free = draw(st.lists(st.integers(0, 3000), min_size=d // 2, max_size=d // 2))
    half, mid = free[: (d - 1) // 2], free[(d - 1) // 2:]
    return ",".join(map(str, [1, *half, *mid, *half[::-1], 1]))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(delta=palindromic_entries(), command=st.sampled_from(["roots", "classify"]),
       fmt=st.sampled_from(["json", "csv"]))
def test_cli_exit_codes_and_repeats(delta, command, fmt):
    argv = [command, "--delta", delta, "--format", fmt]
    code, out, err = run(argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err and err.count("\n") <= 1
    find_roots.cache_clear()
    assert run(argv) == (code, out, err)
