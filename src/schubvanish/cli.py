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
any problem raised while it was evaluated (an internal error) or the
reader closed standard output before every record was written.
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
# parse_args, the usage line and --help read only this table; the value
# flags' defaults come from Options().
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


def _defaults() -> dict:
    values: dict = {key: False for key, convert, _ in FLAGS.values() if convert is None}
    values.update(Options()._asdict(), input="-")
    values["tests"] = ",".join(values["tests"])
    return values


def _metavar(flag: str) -> str:
    return flag[2:].upper().replace("-", "_")


def _usage() -> str:
    flags = " ".join(
        f"[{flag}]" if convert is None else f"[{flag} {_metavar(flag)}]"
        for flag, (key, convert, _) in FLAGS.items() if key != "help"
    )
    return f"usage: schubvanish [-h] {flags} [input]"


def _help() -> str:
    defaults = _defaults()
    lines = [
        _usage(),
        "",
        "Decide vanishing of Schubert intersection numbers with exact, "
        "certificate-producing tests.",
        "",
        "positional arguments:",
        "  input",
        "      input file of problem lines; '-' or absent reads stdin",
        "",
        "options:",
    ]
    for flag, (key, convert, text) in FLAGS.items():
        if convert is None:
            lines.append(f"  -h, {flag}" if key == "help" else f"  {flag}")
        else:
            lines.append(f"  {flag} {_metavar(flag)}")
            text += f" (default: {defaults[key]})"
        lines.append(f"      {text}")
    return "\n".join(lines) + "\n"


def _refuse(message: str) -> NoReturn:
    sys.stderr.write(f"{_usage()}\nschubvanish: error: {message}\n")
    raise SystemExit(2)


def _is_negative_number(word: str) -> bool:
    """-3, -.5 or -2.5, with one trailing line break allowed."""
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _flag_of(word: str) -> Optional[tuple[Optional[str], Optional[str]]]:
    """What a command-line word names, before any word is consumed.

    (flag, explicit value or None) for a flag, spelled in full or by a
    unique prefix of a long flag, with an optional ``=value``; (None, None)
    for an unknown flag; None for a value or a positional: a word not
    starting with ``-``, ``-`` itself, a negative number, or a word with a
    space in it.  ``-h`` followed by more h's is ``-h`` repeated.  An
    ambiguous prefix exits 2.
    """
    if not word.startswith("-") or word == "-":
        return None
    if word.startswith("--"):
        name, eq, value = word.partition("=")
        explicit = value if eq else None
        if name in FLAGS:
            return name, explicit
        matches = [flag for flag in FLAGS if flag.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif word.startswith("-h"):
        rest = word[3:] if word.startswith("-h=") else word[2:]
        return "--help", None if word == "-h" or set(rest) == {"h"} else rest
    if _is_negative_number(word) or " " in word:
        return None
    return None, None


def parse_args(argv: Sequence[str]) -> dict:
    """The command line's values by key (see FLAGS), defaults filled in.

    A flag's value follows it as ``--flag=value`` or as the next word, which
    must not be a flag.  The last value given wins.  The first ``--`` ends
    the flags: every word after it is a positional, and there is at most
    one, the input; once the input is given, the ``--`` must directly follow
    it.  ``-h``/``--help`` prints the help and exits 0 where it stands; an
    unknown flag, an ambiguous prefix, a bad or missing value, a value on a
    switch, a second positional or a misplaced ``--`` exits 2 with a message
    on stderr.
    """
    words = list(argv)
    end = words.index("--") if "--" in words else len(words)
    flags = [_flag_of(word) for word in words[:end]]
    values = _defaults()
    positionals: list[int] = []  # indices into words, as are unknown's
    unknown: list[int] = []
    i = 0
    while i < end:
        named = flags[i]
        i += 1
        if named is None:
            positionals.append(i - 1)
            continue
        flag, value = named
        if flag is None:
            unknown.append(i - 1)
            continue
        key, convert, _ = FLAGS[flag]
        if convert is None:
            if value is not None:
                _refuse(f"argument {flag}: ignored explicit argument {value!r}")
            if key == "help":
                sys.stdout.write(_help())
                raise SystemExit(0)
            values[key] = True
            continue
        if value is None:
            if i == end or flags[i] is not None:
                _refuse(f"argument {flag}: expected one argument")
            value = words[i]
            i += 1
        try:
            values[key] = convert(value)
        except ValueError as exc:
            _refuse(f"argument {flag}: {exc}")
    if end < len(words):
        if positionals and positionals[0] != end - 1:
            unknown.append(end)
        positionals.extend(range(end + 1, len(words)))
    extras = sorted(unknown + positionals[1:])
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(words[k] for k in extras)}")
    if positionals:
        values["input"] = words[positionals[0]]
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
    return Options(
        tests=tests,
        oracle_max_n=args["oracle_max_n"],
        flexible_samples=args["flexible_samples"],
        seed=args["seed"],
        stable=args["stable"],
        fmt=args["fmt"],
    )


def _write_stdout(write: Callable[[TextIO], int]) -> int:
    """Return write(sys.stdout) once stdout is flushed, or 1 if the reader left.

    When the reader closed the pipe, stdout goes to devnull, so that the
    flush at exit does not raise again (the SIGPIPE note of `signal`).
    """
    try:
        code = write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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

    return _write_stdout(emit)


if __name__ == "__main__":
    sys.exit(main())
