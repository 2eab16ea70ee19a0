import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubvanish import cli, permcore, refsuite, rivals, schubitope, schubpoly
from schubvanish.vanishing import Outcome, SchubertProblem

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from problemgen import asymmetric_problem, format_permutation  # noqa: E402

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


# Monk triples of rank 10, of values 0 and 1
RANK_10_ZERO = "sym: 10 9 8 7 6 5 3 4 2 1, 1 2 4 3 5 6 7 8 9 10, 1 2 3 4 5 6 7 8 9 10"
RANK_10_ONE = "sym: 10 9 8 7 6 5 4 2 3 1, 1 2 3 4 5 6 7 9 8 10, 1 2 3 4 5 6 7 8 9 10"
# a rank-10 zero whose product takes 5,660 steps of the oracle
RANK_10_COSTLY = "sym: 1 2 5 3 7 6 9 4 10 8, 9 5 4 10 2 1 8 7 6 3, 1 4 5 2 3 7 10 8 6 9"


def test_oracle_gating_by_rank():
    # the oracle's cap is on its work, so rank 10 runs with the default options
    lines = [RANK_10_ZERO, RANK_10_ONE, RANK_10_COSTLY, "sym: 3256147, 2143657, 4632175"]
    records, _, _ = run(lines, tests=("schubitope", "oracle"), stable=True)
    assert [record["oracle"] for record in records] == [0, 1, 0, 0]
    assert not any("details" in record for record in records)


def test_oracle_above_its_cap_leaves_a_note(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(schubpoly, "ORACLE_STEP_CAP", 1000)
    src = tmp_path / "ten.txt"
    src.write_text(RANK_10_COSTLY + "\n", encoding="utf-8")
    args = [str(src), "--stable", "--tests=schubitope,oracle"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "L1 mode=symmetric n=10\n"
        "  schubitope_symmetric: INCONCLUSIVE\n"
        "  oracle not run: oracle work exceeds 1000 steps\n"
        "  elapsed_ms: 0\n\n"
    )
    assert cli.main(args + ["--format=jsonlines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "oracle" not in record
    assert record["verdicts"] == {"schubitope_symmetric": "INCONCLUSIVE"}
    assert record["details"] == {"oracle": "oracle work exceeds 1000 steps"}


def test_oracle_note_is_the_same_in_fresh_processes():
    # the step count is deterministic: no hash order can move the stop
    script = (
        "import sys\n"
        "from schubvanish import cli, schubpoly\n"
        "schubpoly.ORACLE_STEP_CAP = 1000\n"
        "sys.exit(cli.main(['--stable', '--format=jsonlines', '--tests=oracle']))\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script], input=(RANK_10_COSTLY + "\n").encode(),
            capture_output=True, env=dict(child_env(), PYTHONHASHSEED=hash_seed), timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == (
        b'{"details": {"oracle": "oracle work exceeds 1000 steps"}, "elapsed_ms": 0, '
        b'"id": "L1", "mode": "symmetric", "n": 10, "verdicts": {}}\n'
    )


def test_flexible_in_batch():
    records, _, _ = run(
        ["asym: 231645, 231645 -> 451623"],
        tests=("schubitope", "flexible"),
        flexible_samples=8,
        stable=True,
    )
    assert records[0]["verdicts"]["flexible"] == "INCONCLUSIVE"
    assert "distinct contents" in records[0]["details"]["flexible"]


def test_flexible_continues_from_the_asymmetric_verdict(monkeypatch):
    # with both tests selected, the code is decided by one flow, the
    # asymmetric test's, and the flexible verdict is the one it gives alone
    pinned = [
        "asym: 4123, 1342 -> 4312",  # the code vanishes
        "asym: 1234, 1342 -> 2143",  # a sampled content vanishes
        "asym: 4265713, 1375642 -> 7654321",  # every sample is the code
        "asym: 231645, 231645 -> 451623",  # samples repeat the code
        "asym: 13427586, 12534867 -> 31582647",  # 16 distinct contents
        "asym: 4123, 1342 -> 4321",  # DEGREE_MISMATCH
    ]
    rng = random.Random(23)  # six seeded problems at each of the ranks 4-7
    lines = pinned + [
        "asym: {}, {} -> {}".format(*map(format_permutation, asymmetric_problem(n, rng)))
        for n in range(4, 8) for _ in range(6)
    ]
    flows = []
    real = schubitope.filling_or_cut

    def counting(d, alpha):
        flows.append(tuple(alpha))
        return real(d, alpha)

    monkeypatch.setattr(schubitope, "filling_or_cut", counting)

    def run_each(tests):
        runs = []
        for line in lines:
            flows.clear()
            records, code, _ = run([line], tests=tests, flexible_samples=16, stable=True)
            assert code == 0
            runs.append((records[0], list(flows)))
        return runs

    both, alone = run_each(("schubitope", "flexible")), run_each(("flexible",))
    for line, (record, both_flows), (alone_record, alone_flows) in zip(lines, both, alone):
        problem = cli.parse_problem_line(line)
        code = permcore.code(problem.embedded().target)
        mismatch = record["verdicts"]["flexible"] == "DEGREE_MISMATCH"
        assert both_flows.count(code) == (0 if mismatch else 1), line
        assert both_flows == alone_flows, line
        for key in ("verdicts", "certificates", "details"):
            assert record.get(key, {}).get("flexible") == alone_record.get(key, {}).get(
                "flexible"
            ), (line, key)
    outcomes = [record["verdicts"]["flexible"] for record, _ in both]
    assert outcomes[:len(pinned)] == ["VANISHES", "VANISHES", "INCONCLUSIVE",
                                      "INCONCLUSIVE", "INCONCLUSIVE", "DEGREE_MISMATCH"]
    # among the seeded lines the code vanishes on some, and nothing on others
    seeded = {(record["verdicts"]["schubitope_asymmetric"], record["verdicts"]["flexible"])
              for record, _ in both[len(pinned):]}
    assert seeded == {("VANISHES", "VANISHES"), ("INCONCLUSIVE", "INCONCLUSIVE")}
    assert [record["verdicts"]["schubitope_asymmetric"] for record, _ in both][:2] == [
        "VANISHES", "INCONCLUSIVE"]
    assert both[2][0]["details"]["flexible"] == "1 distinct contents tried"
    assert both[4][0]["details"]["flexible"] == "16 distinct contents tried"
    assert both[5][0]["details"] == {
        "flexible": "factor lengths do not sum to the content total",
        "schubitope_asymmetric": "factor lengths do not sum to the target length",
    }


def test_records_do_not_depend_on_the_order_or_repeats_of_tests(monkeypatch):
    # the tests run once each, in the order of KNOWN_TESTS: a reordered or
    # repeated --tests list gives the same records, and the flexible test
    # still starts from the asymmetric verdict, so the code is flowed once
    lines = [
        "asym: 4123, 1342 -> 4312",  # the code vanishes
        "asym: 1234, 1342 -> 2143",  # a sampled content vanishes
        "asym: 4123, 1342 -> 4321",  # DEGREE_MISMATCH
        "asym: 231645, 231645 -> 451623",
        "sym: 1234, 1234, 4321",
        "sym: 2143, 1342, 1423",
        "sym: 1423, 1423, 1423, 2134",
    ]
    flows = []
    real = schubitope.filling_or_cut

    def counting(d, alpha):
        flows.append(tuple(alpha))
        return real(d, alpha)

    monkeypatch.setattr(schubitope, "filling_or_cut", counting)
    shuffled = tuple(reversed(cli.KNOWN_TESTS)) + ("bruhat", "flexible", "schubitope")
    records = [
        run(lines, tests=tests, flexible_samples=16, stable=True)[0]
        for tests in (cli.KNOWN_TESTS, shuffled)
    ]
    assert records[0] == records[1]
    not_run = {key for record in records[0]
               for key in record.get("details", {}).keys() - record["verdicts"].keys()}
    assert not_run == {"flexible", "descent_cycling"}
    assert all("oracle" in record for record in records[0])
    code = permcore.code(cli.parse_problem_line(lines[0]).embedded().target)
    for tests in (("schubitope", "flexible"), ("flexible", "schubitope"),
                  ("flexible", "schubitope", "flexible", "schubitope")):
        flows.clear()
        (record,), _, _ = run(lines[:1], tests=tests, flexible_samples=16, stable=True)
        assert flows.count(code) == 1, tests
        assert record["verdicts"] == {
            "schubitope_asymmetric": "VANISHES", "flexible": "VANISHES"}


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


@pytest.mark.parametrize("flag", ["--compress", "--jobs=2", "--force-oracle", "--oracle-max-n=9"])
def test_removed_flags_are_unknown(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--stable", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def parse_through_main(argv, tmp_path, monkeypatch):
    """(exit code, Options, input source) of cli.main(argv).

    The batch is not run: run_batch records the options it is given, and
    Options and source are None when it was not called.  The
    files "file", "-3" and "--stable" exist in the working directory, and
    each file and stdin hold one comment line naming their source.
    """
    monkeypatch.chdir(tmp_path)
    for name in ("file", "-3", "--stable"):
        (tmp_path / name).write_text(f"# {name}\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"# stdin\n")))
    seen = []

    def record(lines, options):
        seen.append((options, lines[0][2:]))
        return [], 0

    monkeypatch.setattr(cli, "run_batch", record)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *seen[0]) if seen else (code, None, None)


@pytest.mark.parametrize(
    "argv, fields, source",
    [
        ([], {}, "stdin"),
        (["--format=jsonlines"], {"fmt": "jsonlines"}, "stdin"),
        (["--format", "jsonlines"], {"fmt": "jsonlines"}, "stdin"),
        (["--form=jsonlines"], {"fmt": "jsonlines"}, "stdin"),
        (["--flex", "16"], {"flexible_samples": 16}, "stdin"),
        (["--flexible-samples=16", "--seed", "7"],
         {"flexible_samples": 16, "seed": 7}, "stdin"),
        (["--seed", "-3"], {"seed": -3}, "stdin"),
        (["--seed=-3"], {"seed": -3}, "stdin"),
        (["--seed", "+4"], {"seed": 4}, "stdin"),
        (["--seed=1", "--seed", "2"], {"seed": 2}, "stdin"),  # the last one wins
        (["--stable", "--sta"], {"stable": True}, "stdin"),
        (["--tests", " bruhat, root_game ,"], {"tests": ("bruhat", "root_game")}, "stdin"),
        (["--te=oracle,oracle"], {"tests": ("oracle", "oracle")}, "stdin"),
        (["file"], {}, "file"),
        (["file", "--stable"], {"stable": True}, "file"),
        (["--stable", "file", "--seed=5"], {"stable": True, "seed": 5}, "file"),
        (["-"], {}, "stdin"),
        (["--", "file"], {}, "file"),
        (["--", "--stable"], {}, "--stable"),  # a file name after --
        (["--stable", "--", "-"], {"stable": True}, "stdin"),
        (["file", "--"], {}, "file"),
        (["--seed", "3", "--"], {"seed": 3}, "stdin"),
        (["--", "-3"], {}, "-3"),  # a file whose name starts with - goes after --
        (["file", "--stable", "--"], {"stable": True}, "file"),
    ],
)
def test_accepted_arguments(argv, fields, source, tmp_path, monkeypatch, capsys):
    code, options, got = parse_through_main(argv, tmp_path, monkeypatch)
    assert capsys.readouterr().out == ""
    assert code == 0
    assert options == cli.Options()._replace(**fields)
    assert got == source


@pytest.mark.parametrize(
    "argv",
    [
        ["--compress"],  # unknown
        ["--bogus=1", "file"],
        ["-x"],
        ["-stable"],
        ["--s"],  # ambiguous: --seed, --stable, --selfcheck
        ["--se=3"],  # ambiguous: --seed, --selfcheck
        ["--", "file", "--s"],
        ["--seed=x"],  # not an int
        ["--flexible-samples", "1.5"],
        ["--seed="],
        ["--format=xml"],  # not a format
        ["--format", "Text"],
        ["--seed"],  # no value
        ["--tests", "--stable"],
        ["--flexible-samples", "-x"],
        ["--stable=1"],  # a value on a switch
        ["--selfcheck=yes"],
        ["--stable="],
        ["-hx"],
        ["file", "other"],  # a second positional
        ["--", "file", "other"],
        ["file", "--stable", "other"],
        ["-3"],  # a word that starts with - is a flag
        ["-hh"],
        ["--seed", "--", "7"],  # -- is the value of --seed here, and not an int
        ["--tests=-"],  # an unknown test, refused after parsing
        ["--tests", "-"],
    ],
)
def test_refused_arguments(argv, tmp_path, monkeypatch, capsys):
    code, options, _ = parse_through_main(argv, tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert (code, options, captured.out) == (2, None, "")
    assert "error: " in captured.err


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["--he"], ["--stable", "-h", "--seed=x"],
     ["--compress", "-h"], ["file", "other", "--help"],
     ["--tests=bogus", "-h", "--", "file"]],
)
def test_help_names_every_flag_with_its_default(argv, tmp_path, monkeypatch, capsys):
    code, options, _ = parse_through_main(argv, tmp_path, monkeypatch)
    assert (code, options) == (0, None)
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("usage: schubvanish ")
    for flag, default in [
        ("--tests", "(default: schubitope)"),
        ("--flexible-samples", "(default: 0)"),
        ("--seed", "(default: 0)"),
        ("--stable", None),
        ("--format", "(default: text)"),
        ("--selfcheck", None),
    ]:
        assert f" {flag} " in out
        if default is not None:
            entry = out[out.index(f" {flag} "):]
            assert entry.index(default) < entry.index(" --", 1)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--selfcheck", "--tests=bogus"], 0),
        (["--selfcheck", "--flexible-samples=-1", "--stable"], 0),
        (["--selfcheck", "--seed=x"], 2),
    ],
)
def test_selfcheck_runs_before_the_option_checks(argv, code, monkeypatch, capsys):
    runs = []

    def report(out, stable):
        runs.append(stable)
        return True

    monkeypatch.setattr(refsuite, "run_reference_report", report)
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert runs == ([] if code else ["--stable" in argv])


def test_json_round_trip():
    records, _, options = run(BATCH, stable=True, fmt="jsonlines")
    text = emit(records, options)
    lines = text.splitlines()
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        assert json.loads(line) == record


# text with lone surrogates, DEL, C0 controls, astral characters and the
# characters json escapes by name; ints past 2^64 either way
JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from("\x00\x1f\x7f\x80\"\\\b\f\n\r\t\ud800\udcff\udfff\U0001f600\U0010ffff")
)
JSON_VALUES = st.recursive(
    JSON_TEXT | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_writer_equals_json_dumps(value):
    assert cli.to_json(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize(
    "value", [True, None, 1.5, (1,), {1: 2}, [b"x"], {"k": Outcome.VANISHES}, Outcome.VANISHES]
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli.to_json(value)


def test_error_records_with_undecodable_and_non_ascii_text(capsys, monkeypatch):
    data = "sym: \xb21, 12\nsym: \uff11\uff12, \uff12\uff11\n".encode() + b"sym: 2\xff13, 213\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert cli.main(["--stable", "--format=jsonlines"]) == 2
    out = capsys.readouterr().out
    records, _ = cli.run_batch(data.decode("utf-8", "surrogateescape").splitlines(), cli.Options())
    assert [r["error"] for r in records] == [
        "cannot parse permutation from '\xb21'",
        "cannot parse permutation from '\uff11\uff12'",
        "cannot parse permutation from '2\\udcff13'",
    ]
    assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


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


def test_console_script_runs_cli_main():
    # read as text, since Python 3.10 has no tomllib
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    section = pyproject.read_text(encoding="utf-8").split("\n[project.scripts]\n")[1]
    entries = re.findall(r'^(\S+) = "(.*)"$', section.split("\n[")[0], re.MULTILINE)
    assert entries == [("schubvanish", "schubvanish.cli:exit_main")]


def test_main_selfcheck(capsys, monkeypatch):
    rc = cli.main(["--selfcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert all(re.fullmatch(r"ok   \w+ \d+ ms", line) for line in lines[:-1])
    # --stable zeroes every case time, so two runs print the same bytes: one
    # line per case of PINNED, in its order, then the summary
    assert cli.main(["--selfcheck", "--stable"]) == 0
    stable = capsys.readouterr().out
    assert cli.main(["--selfcheck", "--stable"]) == 0
    assert capsys.readouterr().out == stable
    assert stable == re.sub(r"\d+ ms", "0 ms", out)
    golden = Path(__file__).resolve().parent / "golden" / "selfcheck.txt"
    assert stable.encode("utf-8") == golden.read_bytes()

    def slow_failure(pins):
        time.sleep(0.03)
        yield "pinned failure"

    monkeypatch.setattr(refsuite, "PINNED", {"slow": ()})
    monkeypatch.setattr(refsuite, "check_pinned", slow_failure)
    assert cli.main(["--selfcheck"]) == 1
    head, message, summary = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"FAIL slow \d+ ms", head) and int(head.split()[2]) >= 30
    assert message == "     pinned failure"
    assert summary == "reference suite: FAILURES"
    assert cli.main(["--selfcheck", "--stable"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "FAIL slow 0 ms"


@pytest.mark.parametrize(
    "case, index, change, message",
    [
        # the cube's Bruhat verdict pinned wrong: the record must disagree
        ("cube_of_1423", 0,
         {"verdicts": {"schubitope_symmetric": "VANISHES", "bruhat": "VANISHES"}},
         "sym: 1423, 1423, 1423: bruhat gave INCONCLUSIVE, expected VANISHES"),
        # the asymmetric witness's oracle value pinned wrong
        ("root_game_misses", 1, {"oracle": 1},
         "asym: 3216547, 3216547 -> 7236415: oracle 0, expected 1"),
    ],
)
def test_selfcheck_fails_on_a_wrong_pin(case, index, change, message, capsys, monkeypatch):
    # the self-check compares the batch evaluator's records with the table,
    # so a wrong pin must show up as a failure of its case, line and test
    pins = list(refsuite.PINNED[case])
    pins[index] = pins[index]._replace(**change)
    monkeypatch.setitem(refsuite.PINNED, case, tuple(pins))
    assert cli.main(["--selfcheck", "--stable"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(refsuite.PINNED) + 2
    assert [line for line in lines if not line.startswith("ok   ")] == [
        f"FAIL {case} 0 ms",
        f"     {message}",
        "reference suite: FAILURES",
    ]


def test_selfcheck_replays_the_certificates_it_is_given(monkeypatch):
    # a vanishing verdict whose certificate does not replay fails its line,
    # as does a rival's vanishing verdict without a note
    real = cli.run_batch

    def tampered(lines, options):
        records, code = real(lines, options)
        for record in records:
            for cert in record.get("certificates", {}).values():
                cert["rhs"] += 1
            record.pop("details", None)
        return records, code

    monkeypatch.setattr(cli, "run_batch", tampered)
    found = list(refsuite.check_pinned(refsuite.PINNED["seven_letter_triple"]))
    assert found == [
        "sym: 3256147, 2143657, 4632175: schubitope_symmetric certificate does not replay"
    ]
    found = list(refsuite.check_pinned(refsuite.PINNED["descent_cycling_and_root_game_win"]))
    assert found == [
        "sym: 1423, 1423, 1342: descent_cycling vanishes without a note",
        "sym: 1423, 1423, 1342: root_game vanishes without a note",
    ]


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout.

    Its standard streams are buffered, as by default, whatever this
    process's PYTHONUNBUFFERED says.
    """
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("fmt", ["text", "jsonlines"])
def test_closed_output_pipe_exits_1_without_a_traceback(fmt, tmp_path):
    # far more output than a pipe buffer holds, so the CLI is still writing
    # when the reader goes away
    problems = tmp_path / "many.txt"
    problems.write_text("sym: 1423, 1423, 1423\n" * 2000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "schubvanish", "--stable", f"--format={fmt}", str(problems)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.readline().startswith(b"L1 " if fmt == "text" else b"{")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_closed_output_pipe_keeps_the_exit_code_of_a_failed_parse(tmp_path):
    # as `head -c 10`: the reader takes a few bytes of the first record and
    # leaves while the CLI is still writing; the malformed line still gives 2
    problems = tmp_path / "many.txt"
    problems.write_text("broken\n" + "sym: 1423, 1423, 1423\n" * 3000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "schubvanish", "--stable", str(problems)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.read(10) == b"L1 ERROR l"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert stderr == b""


def test_selfcheck_on_a_closed_output_pipe_exits_1_without_a_traceback():
    # the reader is gone before the first line, so the report's first write
    # (or the flush after it) meets a closed pipe whatever the buffering
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "schubvanish", "--selfcheck", "--stable"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
        )
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("fmt", ["text", "jsonlines"])
def test_module_run_writes_what_main_writes(fmt, sink, tmp_path, capsys):
    # python -m ends by os._exit; output several pipe buffers long, and
    # block-buffered into a file, must still come out whole
    problems = tmp_path / "many.txt"
    problems.write_text("\n".join(BATCH * 500) + "\n", encoding="utf-8")
    argv = ["--stable", f"--format={fmt}", "--tests=schubitope,bruhat", str(problems)]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 3 * 65536
    command = [sys.executable, "-m", "schubvanish", *argv]
    if sink == "pipe":
        done = subprocess.run(command, capture_output=True, env=child_env(), timeout=60)
        out = done.stdout
    else:
        with open(tmp_path / "out", "wb") as handle:
            done = subprocess.run(
                command, stdout=handle, stderr=subprocess.PIPE, env=child_env(), timeout=60
            )
        out = (tmp_path / "out").read_bytes()
    assert (done.returncode, done.stderr) == (0, b"")
    assert out == expected


def test_module_run_exits_2_on_a_malformed_line():
    done = subprocess.run(
        [sys.executable, "-m", "schubvanish", "--stable", "--format=jsonlines"],
        input=b"sym: 321, 213, 231\nbroken line\n",
        capture_output=True, env=child_env(), timeout=60,
    )
    assert done.returncode == 2
    first, second = [json.loads(line) for line in done.stdout.splitlines()]
    assert first["id"] == "L1"
    assert second == {"id": "L2", "line": 2, "error": "expected 'sym:' or 'asym:' prefix"}


def test_exit_main_keeps_the_traceback_of_a_failing_problem():
    script = (
        "import sys\n"
        "from schubvanish import cli, rivals\n"
        "def refuse(ws):\n"
        "    raise ValueError('refused')\n"
        "rivals.bruhat_vanishing_test = refuse\n"
        "sys.argv[1:] = ['--stable', '--format=jsonlines', '--tests=schubitope,bruhat']\n"
        "cli.exit_main()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], input=b"sym: 321, 213, 231\n",
        capture_output=True, env=child_env(), timeout=60,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout) == {"id": "L1", "line": 1, "error": "ValueError: refused"}
    assert done.stderr.startswith(b"Traceback (most recent call last):\n")
    assert done.stderr.endswith(b"\nValueError: refused\n")


@pytest.mark.parametrize("reader", ["open", "closed"])
def test_exit_main_flushes_what_main_left_buffered(reader):
    # a main that leaves unterminated text in both streams; a closed reader
    # gives exit code 1 and no traceback, and stderr still comes out
    script = (
        "import sys\n"
        "from schubvanish import cli\n"
        "def main():\n"
        "    sys.stdout.write('out')\n"
        "    sys.stderr.write('err')\n"
        "    return 3\n"
        "cli.main = main\n"
        "cli.exit_main()\n"
    )
    read_end, write_end = os.pipe()
    if reader == "closed":
        os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
        )
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    assert stderr == b"err"
    if reader == "closed":
        assert proc.returncode == 1
    else:
        with os.fdopen(read_end, "rb") as out:
            assert out.read() == b"out"
        assert proc.returncode == 3


# `python -m schubvanish` as a -c script, given a stream condition first:
# under "full disk" stdout fails on every write as a full disk does, under
# "bruhat raises" the bruhat test raises on every problem, under "reader
# gone" stdout is a pipe whose read end is closed, under "closed by caller"
# the script closes sys.stdout, under "no descriptor" FullDisk has no fileno,
# and under "main returns" the script ends by sys.exit(cli.main()), so the
# interpreter's exit flush runs on what main() left behind
STAND_IN = """
import errno, io, os, sys
from schubvanish import cli, rivals

class FullDisk(io.RawIOBase):
    def writable(self):
        return True

    def fileno(self):
        return 1

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

def refuse(factors):
    raise ValueError("refused")

condition = sys.argv.pop(1)
if "bruhat raises" in condition:
    rivals.bruhat_vanishing_test = refuse
if "no descriptor" in condition:
    del FullDisk.fileno
if "full disk" in condition:
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(FullDisk()))
if "closed by caller" in condition:
    sys.stdout.close()
if "reader gone" in condition:
    r, w = os.pipe()
    os.close(r)
    os.dup2(w, 1)
if "main returns" in condition:
    sys.exit(cli.main())
cli.exit_main()
"""

CLOSED_AT_START = {"stdin closed": 0, "stdout closed": 1, "stderr closed": 2}
RAISES = ["--stable", "--format=jsonlines", "--tests=schubitope,bruhat", "one.in"]
RAISED = b'{"error": "ValueError: refused", "id": "L1", "line": 1}\n'
MISSING = b"error: [Errno 2] No such file or directory: 'missing.txt'\n"

# (argv, stream condition) -> (exit code, stdout, stderr): lost text gives 1,
# or leaves 2 at 2, with no traceback; empty text loses nothing; stderr text
# never reaches stdout
STREAM_ROWS = [
    (["one.in"], "stdout closed", 1, b"", b""),
    (["--format=jsonlines", "one.in"], "stdout closed", 1, b"", b""),
    (["empty.in"], "stdout closed", 0, b"", b""),
    (["broken.in"], "stdout closed", 2, b"", b""),
    (["--selfcheck", "--stable"], "stdout closed", 1, b"", b""),
    (["--help"], "stdout closed", 1, b"", b""),
    (["missing.txt"], "stdout closed", 2, b"", MISSING),
    (["missing.txt"], "stderr closed", 2, b"", b""),
    (["--bogus"], "stderr closed", 2, b"", b""),
    (RAISES, "stderr closed, bruhat raises", 1, RAISED, b""),
    ([], "stdin closed", 2, b"", b"error: standard input is closed\n"),
    (["--help"], "full disk", 1, b"", b""),
    (["one.in"], "full disk", 1, b"", b""),
    (["broken.in"], "full disk", 2, b"", b""),
    (["--selfcheck", "--stable"], "full disk", 1, b"", b""),
    (["one.in"], "full disk, no descriptor", 1, b"", b""),
    (["one.in"], "stdout closed by caller", 1, b"", b""),
    (["--help"], "reader gone, main returns", 1, b"", b""),
    (["one.in"], "reader gone, main returns", 1, b"", b""),
    (["--selfcheck", "--stable"], "reader gone, main returns", 1, b"", b""),
]


def test_exit_main_under_each_stream_condition(tmp_path):
    (tmp_path / "one.in").write_text("sym: 1423, 1423, 1423\n")
    (tmp_path / "broken.in").write_text("broken\nsym: 1423, 1423, 1423\n")
    (tmp_path / "empty.in").write_text("")
    wrong = []
    for args, condition, *expected in STREAM_ROWS:
        fd = next((fd for name, fd in CLOSED_AT_START.items() if name in condition.split(", ")), None)
        done = subprocess.run(
            [sys.executable, "-c", STAND_IN, condition, *args], cwd=tmp_path,
            capture_output=True, env=child_env(), timeout=60,
            preexec_fn=None if fd is None else lambda: os.close(fd),
        )
        got = [done.returncode, done.stdout, done.stderr]
        if got != expected:
            wrong.append((args, condition, got))
    assert wrong == []


def test_lost_output_leaves_no_descriptor_open(monkeypatch):
    monkeypatch.setattr(sys, "stdout", open("/dev/full", "w"))  # every write: ENOSPC
    probe = os.open(os.devnull, os.O_RDONLY)
    os.close(probe)
    assert cli._write("stdout", "x", 0) == 1
    assert os.open(os.devnull, os.O_RDONLY) == probe  # the lowest free descriptor
    os.close(probe)
    sys.stdout.close()


def test_main_returns_its_code_without_ending_the_process():
    script = (
        "from schubvanish import cli\n"
        "code = cli.main(['--stable'])\n"
        "print('main returned', code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], input=b"broken line\n",
        capture_output=True, env=child_env(), timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.endswith(b"\nmain returned 2\n")


@pytest.mark.parametrize("flag", ["--flexible-samples=-1"])
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
    # the class of 3216547, 3216547, 4261573 has nine members on five nodes,
    # none dc-trivial or of value 1: under a cap of three nodes its walk
    # stops with the cap's note, while 1423, 1423, 1342 is dc-trivial itself
    # and 1234, 1234, 4321 has value 1 itself
    monkeypatch.setattr(rivals, "DC_NODE_CAP", 3)
    src = tmp_path / "nine.txt"
    src.write_text(
        "sym: 3216547, 3216547, 4261573\nsym: 1423, 1423, 1342\nsym: 1234, 1234, 4321\n",
        encoding="utf-8",
    )
    args = [str(src), "--stable", "--tests=schubitope,descent_cycling"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(
        "L1 mode=symmetric n=7\n"
        "  descent_cycling: INCONCLUSIVE\n"
        "    note: no dc-trivial member in the first 3 nodes\n"
        "  schubitope_symmetric: VANISHES\n"
        "    certificate: rows {2,3,4,5,6} give 15 > 14\n"
        "  elapsed_ms: 0\n\n"
    )
    assert cli.main(args + ["--format=jsonlines"]) == 0
    nine, trivial, unit = map(json.loads, capsys.readouterr().out.splitlines())
    assert nine["verdicts"] == {
        "descent_cycling": "INCONCLUSIVE", "schubitope_symmetric": "VANISHES"
    }
    assert nine["details"] == {"descent_cycling": "no dc-trivial member in the first 3 nodes"}
    assert trivial["verdicts"]["descent_cycling"] == "VANISHES"
    assert trivial["details"]["descent_cycling"] == (
        "dc-trivial member 1423,1423,1342 after 0 moves"
    )
    assert unit["verdicts"]["descent_cycling"] == "INCONCLUSIVE"
    assert unit["details"]["descent_cycling"] == "value-1 member 1234,1234,4321 after 0 moves"


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
    "sym: 10 9 8 7 6 5 4 3 2 1 11, 1 2 3 4 5 6 7 8 9 10 11, 1 2 3 4 5 6 7 8 9 10 11",
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

L6 mode=symmetric n=11
  bruhat: {MISMATCH}
  descent_cycling: {MISMATCH}
  root_game: {MISMATCH}
  schubitope_symmetric: {MISMATCH}
    note: {SYM_NOTE}
  flexible not run: only defined for asymmetric problems
  oracle: 0
  elapsed_ms: 0

"""


def test_degree_mismatch_in_both_formats(tmp_path, capsys):
    # too long, too short, two factors of the wrong total, a target of the
    # wrong length, one well-posed line in S_2, and a rank-11 line too short,
    # whose zero costs the oracle nothing; every test selected
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
        {
            "id": "L6", "mode": "symmetric", "n": 11, "oracle": 0, "elapsed_ms": 0,
            "verdicts": {**sym_rivals, "descent_cycling": MISMATCH},
            "details": {**flexible_note, "schubitope_symmetric": SYM_NOTE},
        },
    ]
