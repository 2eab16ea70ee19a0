import io
import json
import re
import sys
import time

import pytest

from schubvanish import cli, refsuite, rivals
from schubvanish.vanishing import SchubertProblem

BATCH = [
    "# a few pinned problems",
    "sym: 3256147, 2143657, 4632175",
    "",
    "asym: 4123, 1342 -> 4312",
    "sym: 1234, 1234, 4321",
    "asym: 231645, 231645 -> 451623",
]


def run(lines, **kwargs):
    options = cli.Options(**kwargs)
    records, code = cli.run_batch(lines, options)
    return records, code, options


def emit(records, options):
    buf = io.StringIO()
    cli.emit_records(records, options, buf)
    return buf.getvalue()


def test_parse_problem_line():
    p = cli.parse_problem_line("sym: 321, 213, 231")
    assert isinstance(p, SchubertProblem)
    assert p.mode == "symmetric"
    assert p.factors == ((3, 2, 1), (2, 1, 3), (2, 3, 1))
    a = cli.parse_problem_line("asym: 4123, 1342 -> 4312")
    assert a.mode == "asymmetric"
    assert a.target == (4, 3, 1, 2)
    spaced = cli.parse_problem_line("sym: 3 2 1, 2 1 3, 2 3 1")
    assert spaced.factors == p.factors


@pytest.mark.parametrize(
    "bad",
    [
        "321, 213",           # missing mode
        "mix: 321, 213",      # unknown mode
        "sym: 321",           # too few factors
        "asym: 4123, 1342",   # missing target
        "asym: -> 4312",      # missing factors
        "sym: 321, 2134x",    # bad word
    ],
)
def test_parse_problem_line_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_problem_line(bad)


def test_run_batch_known_verdicts():
    records, had_error, _ = run(BATCH, stable=True)
    assert not had_error
    by_id = {r["id"]: r for r in records}
    assert by_id["L2"]["verdicts"]["schubitope_symmetric"] == "VANISHES"
    assert by_id["L2"]["certificates"]["schubitope_symmetric"]["kind"] == "subset"
    assert by_id["L4"]["verdicts"]["schubitope_asymmetric"] == "VANISHES"
    assert by_id["L5"]["verdicts"]["schubitope_symmetric"] == "INCONCLUSIVE"
    assert by_id["L6"]["verdicts"]["schubitope_asymmetric"] == "INCONCLUSIVE"
    assert all(r["elapsed_ms"] == 0 for r in records)


def test_run_batch_all_tests_with_oracle():
    records, had_error, _ = run(
        ["sym: 1234, 1234, 4321", "asym: 1423, 1423 -> 4213"],
        tests=("schubitope", "bruhat", "descent_cycling", "root_game", "oracle"),
        stable=True,
    )
    assert not had_error
    first, second = records
    assert first["verdicts"]["bruhat"] == "INCONCLUSIVE"
    assert first["verdicts"]["descent_cycling"] == "INCONCLUSIVE"
    assert first["verdicts"]["root_game"] == "INCONCLUSIVE"
    assert first["oracle"] == 1
    # the asymmetric problem symmetrizes to the dc-trivial vanishing triple
    assert second["verdicts"]["descent_cycling"] == "VANISHES"
    assert second["verdicts"]["root_game"] == "VANISHES"
    assert second["verdicts"]["schubitope_asymmetric"] == "INCONCLUSIVE"
    assert second["oracle"] == 0


def test_oracle_gating_by_rank():
    line = ["sym: 3256147, 2143657, 4632175"]
    records, _, _ = run(line, tests=("schubitope", "oracle"), stable=True)
    assert "oracle" not in records[0]
    records, _, _ = run(line, tests=("schubitope", "oracle"), stable=True, oracle_max_n=7)
    assert records[0]["oracle"] == 0
    assert "details" not in records[0]


def test_oracle_above_its_cap_leaves_a_note(tmp_path, capsys):
    src = tmp_path / "seven.txt"
    src.write_text("sym: 3256147, 2143657, 4632175\n", encoding="utf-8")
    args = [str(src), "--stable", "--tests=schubitope,oracle"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (
        "L1 mode=symmetric n=7\n"
        "  schubitope_symmetric: VANISHES\n"
        "    certificate: rows {5,6} give 3 > 2\n"
        "  oracle not run: rank 7 above --oracle-max-n=6\n"
        "  elapsed_ms: 0\n\n"
    )
    assert cli.main(args + ["--format=jsonlines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "oracle" not in record
    assert record["details"] == {"oracle": "rank 7 above --oracle-max-n=6"}


def test_flexible_in_batch():
    records, _, _ = run(
        ["asym: 231645, 231645 -> 451623"],
        tests=("schubitope", "flexible"),
        flexible_samples=8,
        stable=True,
    )
    assert records[0]["verdicts"]["flexible"] == "INCONCLUSIVE"
    assert "distinct contents" in records[0]["details"]["flexible"]


def test_error_records_and_continue():
    records, had_error, _ = run(
        ["sym: 321, 213, 231", "nonsense", "sym: 1234, 1234, 4321"], stable=True
    )
    assert had_error
    assert len(records) == 3
    assert records[1] == {"id": "L2", "line": 2, "error": "expected 'sym:' or 'asym:' prefix"}
    assert records[2]["verdicts"] == {"schubitope_symmetric": "INCONCLUSIVE"}


@pytest.mark.parametrize(
    "bad, error",
    [
        (b"\xff\xfe", "expected 'sym:' or 'asym:' prefix"),
        (b"sym: 2\xff13, 213, 231", "cannot parse permutation from '2\\udcff13'"),
    ],
    ids=["no-prefix", "bad-word"],
)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_line_is_one_error_record(
    bad, error, source, tmp_path, capsys, monkeypatch
):
    data = b"sym: 1423, 1423, 1423\n" + bad + b"\nasym: 4123, 1342 -> 4312\n"
    if source == "file":
        src = tmp_path / "bytes.txt"
        src.write_bytes(data)
        args = [str(src)]
    else:
        args = []
    for fmt in ("text", "jsonlines"):
        # stdin as a strict UTF-8 text stream, as under a strict UTF-8 locale
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main([*args, "--stable", f"--format={fmt}"]) == 2
        out = capsys.readouterr().out
        if fmt == "text":
            first, second, third = out.strip().split("\n\n")
            assert first.startswith("L1 mode=symmetric n=4\n")
            assert second == f"L2 ERROR line 2: {error}"
            assert third.startswith("L3 mode=asymmetric n=4\n")
        else:
            first, second, third = [json.loads(line) for line in out.splitlines()]
            assert first["verdicts"] == {"schubitope_symmetric": "VANISHES"}
            assert second == {"id": "L2", "line": 2, "error": error}
            assert third["verdicts"] == {"schubitope_asymmetric": "VANISHES"}


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_leading_byte_order_mark_is_skipped(source, tmp_path, capsys, monkeypatch):
    data = b"\xef\xbb\xbfsym: 1423, 1423, 1423\nasym: 4123, 1342 -> 4312\n"
    if source == "file":
        src = tmp_path / "bom.txt"
        src.write_bytes(data)
        args = [str(src)]
    else:
        args = []
    for fmt in ("text", "jsonlines"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert cli.main([*args, "--stable", f"--format={fmt}"]) == 0
        out = capsys.readouterr().out
        if fmt == "text":
            first, second = out.strip().split("\n\n")
            assert first.startswith("L1 mode=symmetric n=4\n  schubitope_symmetric: VANISHES\n")
            assert second.startswith("L2 mode=asymmetric n=4\n  schubitope_asymmetric: VANISHES\n")
        else:
            first, second = [json.loads(line) for line in out.splitlines()]
            assert first["verdicts"] == {"schubitope_symmetric": "VANISHES"}
            assert second["verdicts"] == {"schubitope_asymmetric": "VANISHES"}


RANK_13 = " ".join(str(i) for i in range(13, 0, -1))
IDENTITY_13 = " ".join(str(i) for i in range(1, 14))
MIXED_BATCH = [
    "sym: 1423, 1423, 1423",
    f"sym: {RANK_13}, {IDENTITY_13}, {IDENTITY_13}",
]


def test_root_game_has_no_rank_cap():
    records, code, _ = run(MIXED_BATCH, tests=("schubitope", "root_game"), stable=True)
    assert code == 0
    # w0 puts one token on every root, so no filter is overloaded
    assert records[1]["verdicts"]["root_game"] == "INCONCLUSIVE"


def test_failing_problem_becomes_one_error_record(tmp_path, capsys, monkeypatch):
    # a rival that raises on the rank-13 line; the rank-4 record must still come out
    root_game_test = rivals.root_game_test

    def refuse_rank_13(ws):
        if len(ws[0]) == 13:
            raise ValueError("refused rank 13")
        return root_game_test(ws)

    monkeypatch.setattr(rivals, "root_game_test", refuse_rank_13)
    src = tmp_path / "mixed.txt"
    src.write_text("\n".join(MIXED_BATCH) + "\n", encoding="utf-8")
    rc = cli.main([str(src), "--stable", "--format=jsonlines", "--tests=schubitope,root_game"])
    captured = capsys.readouterr()
    first, second = [json.loads(line) for line in captured.out.splitlines()]
    assert rc == 1
    assert first["id"] == "L1"
    assert first["verdicts"] == {"schubitope_symmetric": "VANISHES", "root_game": "VANISHES"}
    assert second == {
        "id": "L2", "line": 2, "error": "ValueError: refused rank 13"
    }
    assert "Traceback" in captured.err
    # a parse error alongside still gives exit code 2
    src.write_text("\n".join(MIXED_BATCH + ["broken"]) + "\n", encoding="utf-8")
    assert cli.main([str(src), "--stable", "--tests=schubitope,root_game"]) == 2
    assert len(capsys.readouterr().out.strip().split("\n\n")) == 3


@pytest.mark.parametrize("flag", ["--compress", "--jobs=2", "--force-oracle"])
def test_removed_flags_are_unknown(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--stable", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_round_trip():
    records, _, options = run(BATCH, stable=True, fmt="jsonlines")
    text = emit(records, options)
    lines = text.splitlines()
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert json.loads(line) == record


def test_stable_output_is_deterministic():
    records1, _, options = run(BATCH, stable=True, fmt="jsonlines", seed=7)
    records2, _, _ = run(BATCH, stable=True, fmt="jsonlines", seed=7)
    assert emit(records1, options) == emit(records2, options)


def test_text_output_mentions_certificates():
    records, _, options = run(["sym: 1423, 1423, 1423"], stable=True)
    text = emit(records, options)
    assert "schubitope_symmetric: VANISHES" in text
    assert "certificate: rows" in text
    assert "elapsed_ms: 0" in text


def test_main_with_files(tmp_path, capsys):
    src = tmp_path / "batch.txt"
    src.write_text("\n".join(BATCH) + "\n", encoding="utf-8")
    rc = cli.main([str(src), "--stable", "--format=jsonlines"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(out.splitlines()) == 4

    bad = tmp_path / "bad.txt"
    bad.write_text("sym: 321, 213, 231\nbroken line\n", encoding="utf-8")
    rc = cli.main([str(bad), "--stable", "--format=jsonlines"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "error" in out

    rc = cli.main([str(src), "--tests=unknown"])
    assert rc == 2

    rc = cli.main([str(tmp_path / "missing.txt")])
    assert rc == 2


def test_main_selfcheck(capsys, monkeypatch):
    rc = cli.main(["--selfcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all cases pass" in out
    lines = out.splitlines()
    assert len(lines) == len(refsuite.CASES) + 1
    assert all(re.fullmatch(r"ok   \w+ \d+ ms", line) for line in lines[:-1])
    # --stable zeroes every case time, so two runs print the same bytes
    assert cli.main(["--selfcheck", "--stable"]) == 0
    stable = capsys.readouterr().out
    assert cli.main(["--selfcheck", "--stable"]) == 0
    assert capsys.readouterr().out == stable
    assert stable == re.sub(r"\d+ ms", "0 ms", out)

    def slow_failure():
        time.sleep(0.03)
        return ["pinned failure"]

    monkeypatch.setattr(refsuite, "CASES", (("slow", slow_failure),))
    assert cli.main(["--selfcheck"]) == 1
    head, message, summary = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL slow \d+ ms", head) and int(head.split()[2]) >= 30
    assert message == "     pinned failure"
    assert summary == "reference suite: FAILURES"
    assert cli.main(["--selfcheck", "--stable"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "FAIL slow 0 ms"


@pytest.mark.parametrize("flag", ["--flexible-samples=-1", "--oracle-max-n=-3"])
def test_negative_counts_are_rejected(flag, tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("asym: 4123, 1342 -> 4312\n", encoding="utf-8")
    assert cli.main([str(src), "--tests=schubitope,flexible,oracle", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag.split("=")[0]
    assert captured.err == f"error: {name} must be nonnegative, got {flag.split('=')[1]}\n"


@pytest.mark.parametrize("flag", ["--tests=", "--tests=,", "--tests= , "])
def test_empty_test_list_is_rejected(flag, tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("sym: 1423, 1423, 1423\n", encoding="utf-8")
    assert cli.main([str(src), flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tests selects no test\n"


def test_flexible_that_cannot_run_leaves_a_note(tmp_path, capsys):
    lines = ["asym: 4123, 1342 -> 4312", "sym: 1423, 1423, 1423"]
    records, code, _ = run(lines, tests=("schubitope", "flexible"), stable=True)
    assert code == 0
    asym, sym = records
    assert "flexible" not in asym["verdicts"] and "flexible" not in sym["verdicts"]
    assert asym["details"]["flexible"] == "needs --flexible-samples > 0"
    assert sym["details"]["flexible"] == "only defined for asymmetric problems"
    src = tmp_path / "two.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main([str(src), "--stable", "--tests=flexible"]) == 0
    text = capsys.readouterr().out
    assert "  flexible not run: needs --flexible-samples > 0\n" in text
    assert "  flexible not run: only defined for asymmetric problems\n" in text
    assert cli.main([str(src), "--stable", "--tests=flexible", "--format=jsonlines"]) == 0
    first, second = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert first["verdicts"] == {} and second["verdicts"] == {}
    assert first["details"] == {"flexible": "needs --flexible-samples > 0"}
    # with samples, the asymmetric line gets its verdict and the symmetric one its note
    records, _, _ = run(lines, tests=("flexible",), flexible_samples=4, stable=True)
    assert records[0]["verdicts"]["flexible"] == "VANISHES"
    assert records[1]["details"] == {"flexible": "only defined for asymmetric problems"}


def test_descent_cycling_past_its_cap_leaves_a_note(tmp_path, capsys, monkeypatch):
    # the class of 3216547, 3216547, 4261573 has nine members
    dc_test = rivals.dc_test
    monkeypatch.setattr(rivals, "dc_test", lambda t: dc_test(t, cap=5))
    src = tmp_path / "nine.txt"
    src.write_text("sym: 3216547, 3216547, 4261573\n", encoding="utf-8")
    args = [str(src), "--stable", "--tests=schubitope,descent_cycling"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "L1 mode=symmetric n=7\n"
        "  schubitope_symmetric: VANISHES\n"
        "    certificate: rows {2,3,4,5,6} give 15 > 14\n"
        "  descent_cycling not run: descent-cycling class exceeds 5\n"
        "  elapsed_ms: 0\n\n"
    )
    assert cli.main(args + ["--format=jsonlines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdicts"] == {"schubitope_symmetric": "VANISHES"}
    assert record["details"] == {"descent_cycling": "descent-cycling class exceeds 5"}


def test_descent_cycling_note_shows_in_text():
    records, _, options = run(
        ["sym: 1423, 1423, 1423, 1234"], tests=("descent_cycling",), stable=True
    )
    assert records[0]["verdicts"] == {}
    assert "  descent_cycling not run: only defined for three factors\n" in emit(
        records, options
    )


ILL_POSED = [
    "sym: 1234, 1234, 1234",
    "asym: 1423, 1423 -> 4321",
    "sym: 2134, 1243",
    "asym: 231, 312 -> 4321",
    "sym: 12, 21",
]
ALL_TESTS = "--tests=schubitope,flexible,bruhat,descent_cycling,root_game,oracle"
SYM_NOTE = "factor lengths do not sum to n(n-1)/2"
ASYM_NOTES = {
    "flexible": "factor lengths do not sum to the content total",
    "schubitope_asymmetric": "factor lengths do not sum to the target length",
}
MISMATCH = "DEGREE_MISMATCH"
ILL_POSED_TEXT = f"""\
L1 mode=symmetric n=4
  bruhat: {MISMATCH}
  descent_cycling: {MISMATCH}
  root_game: {MISMATCH}
  schubitope_symmetric: {MISMATCH}
    note: {SYM_NOTE}
  flexible not run: only defined for asymmetric problems
  oracle: 0
  elapsed_ms: 0

L2 mode=asymmetric n=4
  bruhat: {MISMATCH}
  descent_cycling: {MISMATCH}
  flexible: {MISMATCH}
    note: {ASYM_NOTES["flexible"]}
  root_game: {MISMATCH}
  schubitope_asymmetric: {MISMATCH}
    note: {ASYM_NOTES["schubitope_asymmetric"]}
  oracle: 0
  elapsed_ms: 0

L3 mode=symmetric n=4
  bruhat: {MISMATCH}
  root_game: {MISMATCH}
  schubitope_symmetric: {MISMATCH}
    note: {SYM_NOTE}
  descent_cycling not run: only defined for three factors
  flexible not run: only defined for asymmetric problems
  oracle: 0
  elapsed_ms: 0

L4 mode=asymmetric n=4
  bruhat: {MISMATCH}
  descent_cycling: {MISMATCH}
  flexible: {MISMATCH}
    note: {ASYM_NOTES["flexible"]}
  root_game: {MISMATCH}
  schubitope_asymmetric: {MISMATCH}
    note: {ASYM_NOTES["schubitope_asymmetric"]}
  oracle: 0
  elapsed_ms: 0

L5 mode=symmetric n=2
  bruhat: INCONCLUSIVE
  root_game: INCONCLUSIVE
  schubitope_symmetric: INCONCLUSIVE
  descent_cycling not run: only defined for three factors
  flexible not run: only defined for asymmetric problems
  oracle: 1
  elapsed_ms: 0

"""


def test_degree_mismatch_in_both_formats(tmp_path, capsys):
    # too long, too short, two factors of the wrong total, a target of the
    # wrong length, and one well-posed line in S_2; every test selected
    src = tmp_path / "ill_posed.txt"
    src.write_text("\n".join(ILL_POSED) + "\n", encoding="utf-8")
    args = [str(src), "--stable", ALL_TESTS, "--flexible-samples=4"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == ILL_POSED_TEXT
    assert cli.main(args + ["--format=jsonlines"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    sym_rivals = {key: MISMATCH for key in ("bruhat", "root_game", "schubitope_symmetric")}
    asym_all = {
        key: MISMATCH
        for key in ("bruhat", "descent_cycling", "flexible", "root_game", "schubitope_asymmetric")
    }
    flexible_note = {"flexible": "only defined for asymmetric problems"}
    three_note = {"descent_cycling": "only defined for three factors"}
    assert records == [
        {
            "id": "L1", "mode": "symmetric", "n": 4, "oracle": 0, "elapsed_ms": 0,
            "verdicts": {**sym_rivals, "descent_cycling": MISMATCH},
            "details": {**flexible_note, "schubitope_symmetric": SYM_NOTE},
        },
        {
            "id": "L2", "mode": "asymmetric", "n": 4, "oracle": 0, "elapsed_ms": 0,
            "verdicts": asym_all, "details": ASYM_NOTES,
        },
        {
            "id": "L3", "mode": "symmetric", "n": 4, "oracle": 0, "elapsed_ms": 0,
            "verdicts": sym_rivals,
            "details": {**three_note, **flexible_note, "schubitope_symmetric": SYM_NOTE},
        },
        {
            "id": "L4", "mode": "asymmetric", "n": 4, "oracle": 0, "elapsed_ms": 0,
            "verdicts": asym_all, "details": ASYM_NOTES,
        },
        {
            "id": "L5", "mode": "symmetric", "n": 2, "oracle": 1, "elapsed_ms": 0,
            "verdicts": {key: "INCONCLUSIVE" for key in sym_rivals},
            "details": {**three_note, **flexible_note},
        },
    ]
