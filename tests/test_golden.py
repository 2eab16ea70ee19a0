"""The CLI's output, byte for byte, against the files in tests/golden.

The inputs are batch 0 of seed 0 of each benchmark workload, made by
perfbench/problemgen.py, run with the workload's flags, the README example
(golden/readme.in) and an empty file (golden/empty.in, which must give exit
0 and no output at all); each runs through cli.main under --stable, in text
and in JSON lines.  Any change to a verdict, certificate, note or byte of
formatting fails here; write the files again only for a change that means
to alter the output.  golden/selfcheck.txt, the --selfcheck --stable report,
is checked by test_cli.py's test_main_selfcheck.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from schubvanish import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))
import problemgen  # noqa: E402

FIXED_INPUTS = ("empty", "readme")


def problem_file(name):
    """The input text of a case and the flags it runs with."""
    if name in FIXED_INPUTS:
        return (GOLDEN / f"{name}.in").read_text(encoding="utf-8"), ()
    workload = problemgen.WORKLOADS[name]
    return problemgen.make_batch(workload, 0, 0, references=False).text, workload.cli_args


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("jsonlines", "jsonl")])
@pytest.mark.parametrize("name", [*FIXED_INPUTS, *sorted(problemgen.WORKLOADS)])
def test_output_matches_golden(name, fmt, suffix, tmp_path):
    text, flags = problem_file(name)
    src = tmp_path / "problems.txt"
    src.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(src), "--stable", f"--format={fmt}", *flags])
    assert code == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{name}.{suffix}").read_bytes()
