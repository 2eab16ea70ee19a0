"""Tests of the benchmark itself: generator, output checker, tracer.

    python3 -m pytest perfbench/test_perfbench.py -q

They run from any working directory; the package comes from ../src.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import outcheck  # noqa: E402
import problemgen  # noqa: E402
from schubvanish import cli, permcore, schubitope, schubpoly, vanishing  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# Traced names the ROADMAP plans to delete; the tracer reports them as absent.
DELETABLE = {"exactlp.solve_feasibility", "schubitope.lp_feasible"}


def cli_output(workload: problemgen.Workload, text: str) -> str:
    """Run cli.main in-process on a problem file and return its stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problems.txt"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(path), "--stable", "--format=jsonlines", *workload.cli_args])
    assert code == 0
    return out.getvalue()


def sub_batch(name: str, keep, problems: int) -> problemgen.Batch:
    """The first kept problems of seed 0, batch 0, with their reference answers."""
    full = problemgen.make_batch(problemgen.WORKLOADS[name], 0, 0)
    lines, expected = ["# part of a benchmark batch"], {}
    for rid, line in outcheck.problem_lines(full.text).items():
        if keep(line) and len(lines) <= problems:
            lines.append(line)
            if rid in full.expected:
                expected[f"L{len(lines)}"] = full.expected[rid]
    return problemgen.Batch("\n".join(lines) + "\n", expected)


def small_batch(name: str, problems: int) -> problemgen.Batch:
    return sub_batch(name, lambda line: True, problems)


def cheap_cross_check_batch() -> problemgen.Batch:
    """Rank-4 problems only from the cross-check generator (rank 5 is slow)."""
    return sub_batch("cross-check", lambda line: len(line.split(",")[0].split()[-1]) == 4, 8)


# --- generator -------------------------------------------------------------


def test_generator_is_deterministic_across_processes():
    outputs = set()
    for hashseed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "problemgen.py"), "--workload", "cross-check",
             "--seed", "7", "--batch", "3"],
            capture_output=True, env=dict(ENV, PYTHONHASHSEED=hashseed), check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().decode() == problemgen.make_batch(
        problemgen.WORKLOADS["cross-check"], 7, 3).text


def test_generator_seeds_differ_and_composition_is_fixed():
    for workload in problemgen.WORKLOADS.values():
        a = problemgen.make_batch(workload, 1, 0)
        b = problemgen.make_batch(workload, 2, 0)
        assert a.text != b.text
        problems = [cli.parse_problem_line(line) for line in outcheck.problem_lines(a.text).values()]
        assert len(problems) == workload.batch_size
        ranks = sorted(len(p.embedded().factors[0]) for p in problems)
        assert ranks == sorted(s.rank for s in workload.strata for _ in range(s.count))
        for p in problems:
            lengths = [permcore.length(w) for w in p.embedded().factors]
            n = len(p.embedded().factors[0])
            if p.target is None:
                assert sum(lengths) == n * (n - 1) // 2
            else:
                assert sum(lengths) == permcore.length(p.embedded().target)


def test_generator_references_match_package_on_s4():
    for u, v, w in itertools.product(permcore.all_perms(4), repeat=3):
        if sum(map(permcore.length, (u, v, w))) == 6:
            assert problemgen.intersection_number(u, v, w) == schubpoly.intersection_number((u, v, w))
            verdict = vanishing.symmetric_test((u, v, w)).outcome.value
            assert problemgen.staircase_misses_schubitope(u, v, w) == (verdict == "VANISHES")


def test_generator_batch_text_does_not_depend_on_references():
    for workload in problemgen.WORKLOADS.values():
        cheap = problemgen.make_batch(workload, 3, 1, references=False)
        full = problemgen.make_batch(workload, 3, 1)
        assert cheap.text == full.text
        assert len(full.expected) == workload.batch_size


# --- checker ---------------------------------------------------------------


def test_checker_accepts_real_output():
    for name, batch in (("asym-flexible", small_batch("asym-flexible", 10)),
                        ("cross-check", cheap_cross_check_batch())):
        workload = problemgen.WORKLOADS[name]
        result = outcheck.check_batch(workload, batch, cli_output(workload, batch.text), 0)
        assert (result.attempted, result.failed, result.messages) == (
            len(outcheck.problem_lines(batch.text)), 0, [])


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def _dump(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def test_checker_rejects_tampered_subset_certificate():
    workload = problemgen.WORKLOADS["asym-flexible"]
    batch = small_batch("asym-flexible", 10)
    records = _records(cli_output(workload, batch.text))
    victim = next(r for r in records if "schubitope_asymmetric" in r.get("certificates", {}))
    victim["certificates"]["schubitope_asymmetric"]["rhs"] -= 1
    result = outcheck.check_batch(workload, batch, _dump(records), 0)
    assert result.failed == 1
    assert "does not replay" in result.messages[0]


def test_checker_rejects_flipped_verdicts():
    workload = problemgen.WORKLOADS["asym-flexible"]
    batch = small_batch("asym-flexible", 10)
    stdout = cli_output(workload, batch.text)
    lines = outcheck.problem_lines(batch.text)
    pinned = {lines[r["id"]]: {"verdicts": r["verdicts"], "oracle": r.get("oracle")}
              for r in _records(stdout)}
    assert outcheck.check_batch(workload, batch, stdout, 0, pinned).failed == 0

    records = _records(stdout)
    vanished = next(r for r in records if r["verdicts"]["schubitope_asymmetric"] == "VANISHES")
    vanished["verdicts"]["schubitope_asymmetric"] = "INCONCLUSIVE"
    del vanished["certificates"]["schubitope_asymmetric"]
    flipped = _dump(records)
    unreferenced = problemgen.Batch(batch.text, {})
    assert outcheck.check_batch(workload, unreferenced, flipped, 0).failed == 0
    assert outcheck.check_batch(workload, unreferenced, flipped, 0, pinned).failed == 1
    assert outcheck.check_batch(workload, batch, flipped, 0).failed == 1

    records = _records(stdout)
    kept = next(r for r in records if r["verdicts"]["schubitope_asymmetric"] == "INCONCLUSIVE")
    kept["verdicts"]["schubitope_asymmetric"] = "VANISHES"
    assert outcheck.check_batch(workload, unreferenced, _dump(records), 0).failed == 1


def test_checker_rejects_vanishing_beside_positive_oracle():
    workload = problemgen.WORKLOADS["cross-check"]
    batch = cheap_cross_check_batch()
    records = _records(cli_output(workload, batch.text))
    positive = next(r for r in records if r["oracle"] > 0)
    positive["verdicts"]["bruhat"] = "VANISHES"
    result = outcheck.check_batch(workload, batch, _dump(records), 0)
    assert result.failed == 1
    assert "positive intersection number" in result.messages[0]


def test_checker_rejects_flipped_symmetric_verdict_by_scan_reference():
    workload = problemgen.WORKLOADS["cross-check"]
    batch = cheap_cross_check_batch()
    records = _records(cli_output(workload, batch.text))
    vanished = next(r for r in records if r["verdicts"]["schubitope_symmetric"] == "VANISHES")
    vanished["verdicts"]["schubitope_symmetric"] = "INCONCLUSIVE"
    del vanished["certificates"]["schubitope_symmetric"]
    result = outcheck.check_batch(workload, batch, _dump(records), 0)
    assert result.failed == 1
    assert "!= reference VANISHES" in result.messages[0]


def test_checker_replays_and_rejects_farkas_certificates():
    if getattr(schubitope, "FarkasCertificate", None) is None:
        pytest.skip("the package has no LP-multiplier certificates")
    line = "sym: 3256147, 2143657, 4632175"
    workload = problemgen.Workload("t", "sym", (problemgen.Stratum(7, 1),), ())
    _, factors, _ = outcheck.parse_problem(line)
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in factors])
    farkas = schubitope.lp_feasible(d, tuple(range(6, -1, -1)))
    assert isinstance(farkas, schubitope.FarkasCertificate)
    record = {"id": "L1", "n": 7, "mode": "symmetric",
              "verdicts": {"schubitope_symmetric": "VANISHES"},
              "certificates": {"schubitope_symmetric": cli._serialize_certificate(farkas)}}
    assert outcheck.check_record(record, line, workload, {}, None) == []
    content = record["certificates"]["schubitope_symmetric"]["content"]
    content[0] = str(int(content[0]) + 5)
    assert outcheck.check_record(record, line, workload, {}, None) != []


def test_checker_fails_every_problem_of_a_dead_batch():
    workload = problemgen.WORKLOADS["asym-flexible"]
    batch = small_batch("asym-flexible", 10)
    stdout = cli_output(workload, batch.text)
    result = outcheck.check_batch(workload, batch, stdout, 1)
    assert (result.attempted, result.failed) == (10, 10)
    missing = outcheck.check_batch(workload, batch, "".join(stdout.splitlines(True)[1:]), 0)
    assert missing.failed == 1


# --- tracer ----------------------------------------------------------------


def test_traced_run_is_byte_identical_and_self_times_add_up():
    for name, batch in (("asym-flexible", small_batch("asym-flexible", 4)),
                        ("cross-check", cheap_cross_check_batch())):
        workload = problemgen.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            problems = Path(tmp) / "problems.txt"
            problems.write_text(batch.text)
            spans = Path(tmp) / "spans.json"
            argv = [str(problems), "--stable", "--format=jsonlines", *workload.cli_args]
            plain = subprocess.run([sys.executable, "-m", "schubvanish", *argv],
                                   capture_output=True, cwd=ROOT, env=ENV, check=True)
            traced = subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *argv],
                                    capture_output=True, cwd=ROOT, env=ENV, check=True)
            report = json.loads(spans.read_text())
        assert plain.stdout and traced.stdout == plain.stdout
        assert "cli.run_problem" not in report["absent"]
        assert set(report["absent"]) <= DELETABLE
        roots = [r for r in report["roots"] if r["name"] == "cli.run_problem"]
        assert len(roots) == len(outcheck.problem_lines(batch.text))
        for root in roots:
            assert abs(sum(root["self_ms"].values()) - root["ms"]) < 1e-6 * max(1.0, root["ms"])
            assert all(ms >= 0 for ms in root["self_ms"].values())


def test_tracer_reports_missing_names_as_absent():
    import traced_cli

    tracer = traced_cli.Tracer()
    spec = traced_cli.SPANS
    try:
        traced_cli.SPANS = spec + (("exactlp", "no_such_function", "exactlp.solve"),
                                   ("no_such_module", "f", "x.y"))
        tracer.install()
    finally:
        traced_cli.SPANS = spec
        tracer.uninstall()
    assert {"exactlp.no_such_function", "no_such_module.f"} <= set(tracer.absent)
    assert set(tracer.absent) <= DELETABLE | {"exactlp.no_such_function", "no_such_module.f"}
    assert cli.run_problem.__module__ == "schubvanish.cli"
    assert not hasattr(cli.run_problem, "__wrapped__")
