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
descent cycling on other than three factors, the oracle past its step
cap) leaves a note in place of its verdict,
and the other verdicts stand.  Exit codes: 0 clean; 2 when any line
failed to parse or the arguments or input file are bad; otherwise 1 when
any problem raised while it was evaluated (an internal error), or when
output was lost.  Every write to stdout or stderr goes through ``_write``,
under one rule: text is lost when its stream was closed at start, its
reader left or the write failed (a full disk too), and lost text gives 1,
or leaves 2 at 2, without a traceback.  A stdin closed at start is an
input that cannot be read (exit 2).

The command line is flags and at most one input file (``-`` or none reads
stdin).  A word that starts with ``-``, other than ``-``, is a flag: its
full name, a unique prefix of it, or ``-h``; a value follows as
``--flag=value`` or as the next word, and ``--`` ends the flags.
"""

from __future__ import annotations

import io
import os
import sys
import time
from typing import Callable, NoReturn, Optional, Sequence, TextIO

from . import permcore, vanishing
from .schubitope import FarkasCertificate, InfeasibleSubset
from .vanishing import Outcome, SchubertProblem, VanishingVerdict

# Every batch is a fresh process, so this module imports only what a batch
# runs: rivals (Bruhat, descent cycling, root games), refsuite (--selfcheck),
# schubpoly (the exact oracle) and traceback (a failing problem) are imported
# where they are used.  JSON lines are written by to_json, not by json.

KNOWN_TESTS = (
    "schubitope",
    "flexible",
    "bruhat",
    "descent_cycling",
    "root_game",
    "oracle",
)

DEFAULT_TESTS = ("schubitope",)


class Options(permcore.Frozen):
    """The settings of a batch; the value flags of FLAGS set them."""

    __slots__ = _fields = ("tests", "flexible_samples", "seed", "stable", "fmt")

    def __init__(
        self,
        tests: tuple[str, ...] = DEFAULT_TESTS,
        flexible_samples: int = 0,
        seed: int = 0,
        stable: bool = False,
        fmt: str = "text",
    ) -> None:
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "flexible_samples", flexible_samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "fmt", fmt)


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


def _run_test(
    key: str, embedded: SchubertProblem, options: Options, index: int, found: dict
) -> VanishingVerdict | int | str:
    """Test ``key``'s verdict on the embedded problem, the oracle's value, or
    a note when the test cannot run on it.  found holds the verdicts found
    so far by record key; the flexible test starts from the asymmetric one."""
    symmetric = embedded.target is None
    if key == "schubitope":
        if symmetric:
            return vanishing.symmetric_test(embedded.factors)
        return vanishing.asymmetric_test(embedded.factors, embedded.target)
    if key == "flexible":
        if symmetric:
            return "only defined for asymmetric problems"
        if options.flexible_samples <= 0:
            return "needs --flexible-samples > 0"
        return vanishing.flexible_test_sampled(
            embedded.factors, embedded.target, options.flexible_samples,
            options.seed * 1_000_003 + index, found.get("schubitope_asymmetric"),
        )
    if key == "oracle":
        from . import schubpoly

        try:
            if symmetric:
                return schubpoly.intersection_number(embedded.factors)
            return schubpoly.asymmetric_coefficient(embedded.factors, embedded.target)
        except schubpoly.StepsExceeded as exc:
            return str(exc)
    from . import rivals

    factors = embedded.symmetrized().factors  # the rivals read a symmetric problem
    if key == "bruhat":
        return rivals.bruhat_vanishing_test(factors)
    if key == "root_game":
        return rivals.root_game_test(factors)
    if len(factors) != 3:  # the key is descent_cycling
        return "only defined for three factors"
    try:
        triple = rivals.Triple(*factors)
    except ValueError:  # the lengths do not sum to n(n-1)/2
        return VanishingVerdict(Outcome.DEGREE_MISMATCH, key)
    return rivals.dc_test(triple)


def run_problem(
    problem: SchubertProblem, record_id: str, options: Options, index: int
) -> dict:
    """Run the selected tests on one problem and return its record.

    The tests run once each, in the order of KNOWN_TESTS, however
    options.tests orders or repeats them.  The record is the JSON object
    printed for the problem.  It always has ``id``, ``n``, ``mode``,
    ``verdicts`` (record key -> outcome) and ``elapsed_ms``;
    ``certificates`` and ``details`` (the notes of verdicts and of tests
    that could not run) appear when some test left one, and ``oracle``
    when the oracle ran.
    """
    start = time.perf_counter()
    embedded = problem.embedded()
    record: dict = {"id": record_id, "n": len(embedded.factors[0]), "mode": problem.mode}
    found: dict[str, VanishingVerdict] = {}
    details: dict[str, str] = {}
    for key in KNOWN_TESTS:
        if key in options.tests:
            result = _run_test(key, embedded, options, index, found)
            if type(result) is int:  # the oracle's value
                record["oracle"] = result
            elif type(result) is str:  # the test could not run
                details[key] = result
            else:
                found[result.method] = result
    record["verdicts"] = {key: v.outcome.value for key, v in found.items()}
    certificates = {key: _serialize_certificate(v.certificate)
                    for key, v in found.items() if v.certificate is not None}
    details.update((key, v.detail) for key, v in found.items() if v.detail)
    for key, value in (("certificates", certificates), ("details", details)):
        if value:
            record[key] = value
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

            _write("stderr", traceback.format_exc(), 1)
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


# json.dumps's escapes with ensure_ascii, other than \uXXXX
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    escaped = _ESCAPES.get(char)
    if escaped:
        return escaped
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code > 0xFFFF:  # a surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _json_str(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def to_json(value: object) -> str:
    """``json.dumps(value, sort_keys=True)`` for the types a record holds.

    Those are ``str``, ``int``, ``list`` and ``dict`` with ``str`` keys, each
    matched by its exact type; any other value raises TypeError.  Text is
    escaped as with ``ensure_ascii``, so the result is ASCII.  A batch that
    writes JSON lines then need not import ``json``, which costs each CLI
    process more than its records take to write.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return repr(value)
    if kind is list:
        return "[" + ", ".join(map(to_json, value)) + "]"
    if kind is dict:
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_json_str(key)}: {to_json(value[key])}")
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def emit_records(records: Sequence[dict], options: Options, out: TextIO) -> None:
    if options.fmt == "jsonlines":
        for record in records:
            out.write(to_json(record))
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


def _help() -> str:
    defaults = _defaults()
    text = (
        f"{USAGE}\n\n"
        "Decide vanishing of Schubert intersection numbers with exact, "
        "certificate-producing tests.\n\n"
        "input: a file of problem lines; '-' or none reads stdin.  A word that\n"
        "starts with '-' is a flag, so a file named like '-3' goes after '--'.\n\n"
        "options:\n"
    )
    for flag, (key, convert, about) in FLAGS.items():
        if key == "help":
            flag = "-h, --help"
        elif convert is not None:
            flag += " " + flag[2:].upper().replace("-", "_")
            about += f" (default: {defaults[key]})"
        text += f"  {flag}\n      {about}\n"
    return text


def _refuse(message: str) -> NoReturn:
    _write("stderr", f"{USAGE}\nschubvanish: error: {message}\n", 2)
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
    if args["flexible_samples"] < 0:
        raise ValueError(f"--flexible-samples must be nonnegative, got {args['flexible_samples']}")
    return Options(**{key: args[key] for key in Options._fields})._replace(tests=tests)


def _write(stream: str, text: str, code: int) -> int:
    """Write text to ``sys.<stream>``, flush it, and return the exit code.

    code is the exit code known before writing.  The text is lost when the
    stream was closed at start (None) or by the caller, when its reader has
    left, or when the write or flush fails with any ``OSError``, a full disk
    too: the result is then 1, or 2 when code is 2, so lost output never
    hides a failed parse.  Empty text loses nothing.  After a failure the
    stream's descriptor, if it has one, goes to devnull, so that a later
    flush (the interpreter's at exit, when main() ran in-process) does not
    raise again.
    """
    out = getattr(sys, stream)
    try:
        if out is not None and not getattr(out, "closed", False):
            out.write(text)
            out.flush()
            return code
        if not text:  # closed, but nothing is lost
            return code
    except OSError:
        try:
            fd = out.fileno()
        except (AttributeError, OSError):  # no descriptor behind the stream
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
    return 2 if code == 2 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args["help"]:
        return _write("stdout", _help(), 0)
    out = io.StringIO()
    try:
        if args["selfcheck"]:
            from . import refsuite

            ok = refsuite.run_reference_report(out, stable=args["stable"])
            return _write("stdout", out.getvalue(), 0 if ok else 1)
        options = options_from_args(args)
    except ValueError as exc:
        return _write("stderr", f"error: {exc}\n", 2)
    if args["input"] == "-" and sys.stdin is None:
        return _write("stderr", "error: standard input is closed\n", 2)
    try:
        if args["input"] == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args["input"], "rb") as handle:
                data = handle.read()
    except OSError as exc:
        return _write("stderr", f"error: {exc}\n", 2)
    # a leading byte-order mark is skipped; an undecodable byte stays in its
    # line, which then fails to parse alone
    lines = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8", "surrogateescape").splitlines()
    records, code = run_batch(lines, options)
    emit_records(records, options, out)
    return _write("stdout", out.getvalue(), code)


def exit_main() -> NoReturn:
    """Run main() as the whole process: flush, then end it by os._exit.

    A batch has nothing left to do once its output is out, so the process
    skips the interpreter's teardown, which frees every module and object
    and costs more CPU than a small batch's own work.  No ``atexit``
    handler runs and no other file is flushed: when this runs, only
    ``sys.stdout`` and ``sys.stderr`` may hold buffered output.  Both are
    flushed through ``_write``, under its rule for lost output: text lost
    on either stream (closed at start, a reader that left, a full disk)
    gives exit code 1, or leaves 2 at 2, and no traceback.  An exception
    that escapes main(), the ``SystemExit`` of a refused command line
    included, takes the interpreter's usual way out.  Library callers call
    main(), which returns its code.
    """
    os._exit(_write("stderr", "", _write("stdout", "", main())))


if __name__ == "__main__":
    exit_main()
