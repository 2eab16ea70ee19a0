"""Batch front-end: parse problems, run selected tests, emit verdicts.

Input is line oriented:

    sym: 3256147, 2143657, 4632175
    asym: 4123, 1342 -> 4312

Permutations are comma-separated; each word is either a contiguous digit
string (rank <= 9) or space-separated values.  Blank lines and ``#``
comments are skipped.  Output is text or JSON lines, one record per
problem, in input order.  A record is the JSON object ``run_problem``
returns: JSON lines print it as it is, and text renders the same record.
A line that fails to parse (undecodable UTF-8 included), or a problem that
raises while it is evaluated, becomes an error record
``{"id", "line", "error"}`` at its position; every other record still
prints.  A test that cannot run on a problem (flexible without samples,
descent cycling on other than three factors or past its class-size cap,
the oracle above --oracle-max-n) leaves a note in place of its verdict,
and the other verdicts stand.  Exit codes: 0 clean; 2 when any line
failed to parse or the arguments or input file are bad; otherwise 1 when
any problem raised while it was evaluated (an internal error), or when
the reader closed standard output before every record was written or it
was closed at start.

The command line is flags and at most one input file (``-`` or none reads
stdin).  A word that starts with ``-``, other than ``-``, is a flag: its
full name, a unique prefix of it, or ``-h``; a value follows as
``--flag=value`` or as the next word, and ``--`` ends the flags.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence, TextIO

from . import permcore, vanishing
from .schubitope import FarkasCertificate, InfeasibleSubset
from .vanishing import Outcome, SchubertProblem, VanishingVerdict

# Every batch is a fresh process, so this module imports only what a batch
# runs: rivals (Bruhat, descent cycling, root games), refsuite (--selfcheck),
# schubpoly (the oracle), json (jsonlines output) and traceback (a failing
# problem) are imported where they are used.

KNOWN_TESTS = (
    "schubitope",
    "flexible",
    "bruhat",
    "descent_cycling",
    "root_game",
    "oracle",
)

DEFAULT_TESTS = ("schubitope",)


class Options(NamedTuple):
    tests: tuple[str, ...] = DEFAULT_TESTS
    oracle_max_n: int = 6
    flexible_samples: int = 0
    seed: int = 0
    stable: bool = False
    fmt: str = "text"


def parse_problem_line(line: str) -> SchubertProblem:
    """Parse one ``sym:`` or ``asym:`` line into a problem."""
    text = line.strip()
    if ":" not in text:
        raise ValueError("expected 'sym:' or 'asym:' prefix")
    head, _, body = text.partition(":")
    head = head.strip().lower()
    if head == "sym":
        factors = _parse_perm_list(body)
        if len(factors) < 2:
            raise ValueError("a symmetric problem needs at least two factors")
        return SchubertProblem(tuple(factors))
    if head == "asym":
        if "->" not in body:
            raise ValueError("an asymmetric problem needs '-> target'")
        left, _, right = body.partition("->")
        factors = _parse_perm_list(left)
        if not factors:
            raise ValueError("an asymmetric problem needs at least one factor")
        target = permcore.parse_permutation(right)
        return SchubertProblem(tuple(factors), target)
    raise ValueError(f"unknown mode {head!r}")


def _parse_perm_list(text: str) -> list[permcore.Perm]:
    parts = [p for p in (piece.strip() for piece in text.split(",")) if p]
    return [permcore.parse_permutation(p) for p in parts]


def _serialize_certificate(cert) -> dict:
    if isinstance(cert, InfeasibleSubset):
        return {
            "kind": "subset",
            "rows": list(cert.rows),
            "lhs": cert.lhs,
            "rhs": cert.rhs,
        }
    if isinstance(cert, FarkasCertificate):
        return {
            "kind": "farkas",
            "columns": list(cert.columns),
            "content": [str(x) for x in cert.content],
            "prefix": [[s, j, str(mult)] for (s, j), mult in cert.prefix],
        }
    raise TypeError(f"cannot serialize certificate {cert!r}")


def _record_verdict(record: dict, verdict: VanishingVerdict) -> None:
    key = verdict.method
    record["verdicts"][key] = verdict.outcome.value
    if verdict.certificate is not None:
        record["certificates"][key] = _serialize_certificate(verdict.certificate)
    if verdict.detail:
        record["details"][key] = verdict.detail


def run_problem(
    problem: SchubertProblem, record_id: str, options: Options, index: int
) -> dict:
    """Run the selected tests on one problem and return its record.

    The record is the JSON object printed for the problem.  It always has
    ``id``, ``n``, ``mode``, ``verdicts`` (test key -> outcome) and
    ``elapsed_ms``; ``certificates`` and ``details`` (the notes) appear when
    some test left one, and ``oracle`` when the oracle ran.
    """
    start = time.perf_counter()
    embedded = problem.embedded()
    n = len(embedded.factors[0])
    record: dict = {"id": record_id, "n": n, "mode": problem.mode,
                    "verdicts": {}, "certificates": {}, "details": {}}
    details = record["details"]

    asymmetric = None  # the flexible test starts from this verdict on the code
    if "schubitope" in options.tests:
        if problem.mode == "symmetric":
            verdict = vanishing.symmetric_test(embedded.factors)
        else:
            verdict = asymmetric = vanishing.asymmetric_test(
                embedded.factors, embedded.target
            )
        _record_verdict(record, verdict)

    if "flexible" in options.tests:
        if problem.mode == "symmetric":
            details["flexible"] = "only defined for asymmetric problems"
        elif options.flexible_samples <= 0:
            details["flexible"] = "needs --flexible-samples > 0"
        else:
            seed = options.seed * 1_000_003 + index
            verdict = vanishing.flexible_test_sampled(
                embedded.factors, embedded.target, options.flexible_samples, seed,
                asymmetric,
            )
            _record_verdict(record, verdict)

    # the rival tests read the problem as a symmetric one
    if {"bruhat", "descent_cycling", "root_game"}.intersection(options.tests):
        from . import rivals

        factors = embedded.symmetrized().factors
        if "bruhat" in options.tests:
            _record_verdict(record, rivals.bruhat_vanishing_test(factors))
        if "descent_cycling" in options.tests:
            if len(factors) != 3:
                details["descent_cycling"] = "only defined for three factors"
            else:
                try:
                    triple = rivals.Triple(*factors)
                except ValueError:  # the lengths do not sum to n(n-1)/2
                    _record_verdict(
                        record, VanishingVerdict(Outcome.DEGREE_MISMATCH, "descent_cycling")
                    )
                else:
                    try:
                        _record_verdict(record, rivals.dc_test(triple))
                    except rivals.ClassSizeExceeded as exc:
                        details["descent_cycling"] = str(exc)
        if "root_game" in options.tests:
            _record_verdict(record, rivals.root_game_test(factors))

    if "oracle" in options.tests:
        if n > options.oracle_max_n:
            details["oracle"] = f"rank {n} above --oracle-max-n={options.oracle_max_n}"
        else:
            from . import schubpoly

            if problem.mode == "symmetric":
                record["oracle"] = schubpoly.intersection_number(embedded.factors)
            else:
                record["oracle"] = schubpoly.asymmetric_coefficient(
                    embedded.factors, embedded.target
                )

    for key in ("certificates", "details"):
        if not record[key]:
            del record[key]
    elapsed = time.perf_counter() - start
    record["elapsed_ms"] = 0 if options.stable else int(elapsed * 1000)
    return record


def run_batch(lines: Sequence[str], options: Options) -> tuple[list[dict], int]:
    """Parse and evaluate every input line; order preserving.

    Returns the records (results interleaved with error records
    ``{"id", "line", "error"}`` at their input positions) and the exit code:
    2 when any line failed to parse, else 1 when any problem raised while it
    was evaluated, else 0.
    """
    records: list[dict] = []
    parse_failed = False
    run_failed = False
    index = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        record_id = f"L{lineno}"
        try:
            problem = parse_problem_line(text)
        except ValueError as exc:
            parse_failed = True
            records.append({"id": record_id, "line": lineno, "error": str(exc)})
            continue
        try:
            records.append(run_problem(problem, record_id, options, index))
        except Exception as exc:  # one failing problem must not end the batch
            import traceback

            traceback.print_exc()
            run_failed = True
            error = f"{type(exc).__name__}: {exc}"
            records.append({"id": record_id, "line": lineno, "error": error})
        index += 1
    return records, 2 if parse_failed else 1 if run_failed else 0


def _emit_text(record: dict, out: TextIO) -> None:
    if "error" in record:
        out.write(f"{record['id']} ERROR line {record['line']}: {record['error']}\n\n")
        return
    verdicts = record["verdicts"]
    certificates = record.get("certificates", {})
    details = record.get("details", {})
    out.write(f"{record['id']} mode={record['mode']} n={record['n']}\n")
    for key in sorted(verdicts):
        out.write(f"  {key}: {verdicts[key]}\n")
        cert = certificates.get(key)
        if cert is not None:
            rows = ",".join(str(r) for r in cert["rows"])
            out.write(
                f"    certificate: rows {{{rows}}} give "
                f"{cert['lhs']} > {cert['rhs']}\n"
            )
        detail = details.get(key)
        if detail:
            out.write(f"    note: {detail}\n")
    for key in sorted(details.keys() - verdicts.keys()):
        out.write(f"  {key} not run: {details[key]}\n")
    if "oracle" in record:
        out.write(f"  oracle: {record['oracle']}\n")
    out.write(f"  elapsed_ms: {record['elapsed_ms']}\n\n")


def emit_records(records: Sequence[dict], options: Options, out: TextIO) -> None:
    if options.fmt == "jsonlines":
        import json

        for record in records:
            out.write(json.dumps(record, sort_keys=True))
            out.write("\n")
    else:
        for record in records:
            _emit_text(record, out)


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None


def _format(value: str) -> str:
    if value not in ("text", "jsonlines"):
        raise ValueError(f"invalid choice: {value!r} (choose from 'text', 'jsonlines')")
    return value


# The command line, one row per flag: the key of its value (an Options field,
# selfcheck or help), its conversion (None for a switch) and its help.
# parse_args and --help read only this table; the value flags' defaults come
# from Options().
FLAGS: dict[str, tuple[str, Optional[Callable[[str], object]], str]] = {
    "--help": ("help", None, "show this help message and exit"),
    "--tests": ("tests", str, f"comma list from {{{','.join(KNOWN_TESTS)}}}"),
    "--oracle-max-n": (
        "oracle_max_n", _int,
        "largest rank the brute-force oracle runs at; above it the record gets a note",
    ),
    "--flexible-samples": (
        "flexible_samples", _int,
        "sampled contents the flexible test may try per problem; with 0 it does "
        "not run and the record gets a note",
    ),
    "--seed": ("seed", _int, "seed of the flexible test's sampling"),
    "--stable": ("stable", None, "zero the timing fields so output is byte-reproducible"),
    "--format": (
        "fmt", _format, "text or jsonlines: one text block or one JSON object per problem"
    ),
    "--selfcheck": ("selfcheck", None, "run the pinned reference problems and report pass/fail"),
}

USAGE = "usage: schubvanish [options] [--] [input]"


def _defaults() -> dict:
    values: dict = {key: False for key, convert, _ in FLAGS.values() if convert is None}
    values.update(Options()._asdict(), input="-")
    values["tests"] = ",".join(values["tests"])
    return values


def _print_help(out: TextIO) -> int:
    defaults = _defaults()
    out.write(
        f"{USAGE}\n\n"
        "Decide vanishing of Schubert intersection numbers with exact, "
        "certificate-producing tests.\n\n"
        "input: a file of problem lines; '-' or none reads stdin.  A word that\n"
        "starts with '-' is a flag, so a file named like '-3' goes after '--'.\n\n"
        "options:\n"
    )
    for flag, (key, convert, text) in FLAGS.items():
        if key == "help":
            flag = "-h, --help"
        elif convert is not None:
            flag += " " + flag[2:].upper().replace("-", "_")
            text += f" (default: {defaults[key]})"
        out.write(f"  {flag}\n      {text}\n")
    return 0


def _refuse(message: str) -> NoReturn:
    sys.stderr.write(f"{USAGE}\nschubvanish: error: {message}\n")
    raise SystemExit(2)


def _flag_of(word: str) -> tuple[Optional[str], Optional[str]]:
    """(flag, its ``=value`` or None) of a word that starts with ``-``; the
    flag is None when unknown.  An ambiguous prefix exits 2."""
    name, eq, value = word.partition("=")
    if name == "-h":
        name = "--help"
    elif name.startswith("--") and name not in FLAGS:
        matches = [flag for flag in FLAGS if flag.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {word} could match {', '.join(matches)}")
        name = matches[0] if matches else name
    return name if name in FLAGS else None, value if eq else None


def parse_args(argv: Sequence[str]) -> dict:
    """The command line's values by key (see FLAGS), defaults filled in.

    A word that starts with ``-``, other than ``-`` itself, is a flag: its
    full name, a unique prefix of it, or ``-h``.  A value flag takes its
    value as ``--flag=value`` or as the next word, whatever that word is,
    and the last value given wins.  ``--`` ends the flags.  Any other word
    is the input; there is at most one.  Help stops the parse where it
    stands, with ``values["help"]`` set.  An unknown flag or a second
    input exits 2 once every word is read; an ambiguous prefix, a bad or
    missing value, or a value on a switch exits 2 where it stands.
    """
    values = _defaults()
    inputs: list[str] = []
    unknown: list[str] = []
    words = iter(argv)
    for word in words:
        if word == "--":
            inputs.extend(words)
        elif not word.startswith("-") or word == "-":
            inputs.append(word)
        else:
            flag, value = _flag_of(word)
            if flag is None:
                unknown.append(word)
                continue
            key, convert, _ = FLAGS[flag]
            if convert is None:
                if value is not None:
                    _refuse(f"argument {flag}: ignored explicit argument {value!r}")
                values[key] = True
                if key == "help":
                    return values
                continue
            value = next(words, None) if value is None else value
            if value is None:
                _refuse(f"argument {flag}: expected one argument")
            try:
                values[key] = convert(value)
            except ValueError as exc:
                _refuse(f"argument {flag}: {exc}")
    if unknown or inputs[1:]:
        _refuse(f"unrecognized arguments: {' '.join(unknown + inputs[1:])}")
    values["input"] = inputs[0] if inputs else "-"
    return values


def options_from_args(args: dict) -> Options:
    tests = tuple(t for t in (s.strip() for s in args["tests"].split(",")) if t)
    if not tests:
        raise ValueError("--tests selects no test")
    unknown = [t for t in tests if t not in KNOWN_TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {', '.join(unknown)}")
    for flag, key in (
        ("--oracle-max-n", "oracle_max_n"),
        ("--flexible-samples", "flexible_samples"),
    ):
        if args[key] < 0:
            raise ValueError(f"{flag} must be nonnegative, got {args[key]}")
    return Options(**{key: args[key] for key in Options._fields})._replace(tests=tests)


def _write_stdout(write: Callable[[TextIO], int], code: int = 0) -> int:
    """Return write(sys.stdout), the exit code, once stdout is flushed.

    code is the exit code known before writing.  When the reader has left,
    or stdout was closed at start (``sys.stdout`` is None), the result is
    1, or 2 when code is 2: lost output never hides a failed parse.
    After a closed pipe stdout goes to devnull, so that a later flush (the
    interpreter's at exit, when main() ran in-process) does not raise again
    (the SIGPIPE note of `signal`).
    """
    try:
        if sys.stdout is not None:
            code = write(sys.stdout)
            sys.stdout.flush()
            return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 2 if code == 2 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args["help"]:
        return _write_stdout(_print_help)
    try:
        if args["selfcheck"]:
            from . import refsuite

            return _write_stdout(
                lambda out: 0 if refsuite.run_reference_report(out, stable=args["stable"]) else 1
            )
        options = options_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args["input"] == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args["input"], "rb") as handle:
                data = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a leading byte-order mark is skipped; an undecodable byte stays in its
    # line, which then fails to parse alone
    lines = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8", "surrogateescape").splitlines()
    records, code = run_batch(lines, options)

    def emit(out: TextIO) -> int:
        emit_records(records, options, out)
        return code

    return _write_stdout(emit, code)


def exit_main() -> NoReturn:
    """Run main() as the whole process: flush, then end it by os._exit.

    A batch has nothing left to do once its output is out, so the process
    skips the interpreter's teardown, which frees every module and object
    and costs more CPU than a small batch's own work.  No ``atexit``
    handler runs and no other file is flushed: when this runs, only
    ``sys.stdout`` and ``sys.stderr`` may hold buffered output.  Stdout is
    flushed through ``_write_stdout``, so a reader that left, or a stdout
    closed at start, gives at least exit code 1 and no traceback; so does
    a stderr whose reader left.  An exception that escapes main(), the
    ``SystemExit`` of a refused command line included, takes the
    interpreter's usual way out.  Library callers call main(), which
    returns its code.
    """
    code = main()
    code = _write_stdout(lambda out: code, code)
    try:
        if sys.stderr is not None:  # None when the descriptor was closed at start
            sys.stderr.flush()
    except BrokenPipeError:
        code = 2 if code == 2 else 1
    os._exit(code)


if __name__ == "__main__":
    exit_main()
