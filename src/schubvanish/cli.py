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
any problem raised while it was evaluated (an internal error).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple, Optional, Sequence, TextIO

from . import permcore, rivals, vanishing
from .schubitope import FarkasCertificate, InfeasibleSubset
from .vanishing import Outcome, SchubertProblem, VanishingVerdict

# Every batch is a fresh process, so this module imports only what a batch
# runs: refsuite (--selfcheck), schubpoly (the oracle), json (jsonlines
# output) and traceback (a failing problem) are imported where they are used.

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

    if "schubitope" in options.tests:
        if problem.mode == "symmetric":
            verdict = vanishing.symmetric_test(embedded.factors)
        else:
            verdict = vanishing.asymmetric_test(embedded.factors, embedded.target)
        _record_verdict(record, verdict)

    if "flexible" in options.tests:
        if problem.mode == "symmetric":
            details["flexible"] = "only defined for asymmetric problems"
        elif options.flexible_samples <= 0:
            details["flexible"] = "needs --flexible-samples > 0"
        else:
            seed = options.seed * 1_000_003 + index
            verdict = vanishing.flexible_test_sampled(
                embedded.factors, embedded.target, options.flexible_samples, seed
            )
            _record_verdict(record, verdict)

    symmetrized = embedded.symmetrized()
    if "bruhat" in options.tests:
        _record_verdict(record, rivals.bruhat_vanishing_test(symmetrized.factors))
    if "descent_cycling" in options.tests:
        if len(symmetrized.factors) != 3:
            details["descent_cycling"] = "only defined for three factors"
        elif permcore.well_posed(symmetrized.factors, None) is None:
            record["verdicts"]["descent_cycling"] = Outcome.DEGREE_MISMATCH.value
        else:
            try:
                triple = rivals.Triple(*symmetrized.factors)
                _record_verdict(record, rivals.dc_test(triple))
            except rivals.ClassSizeExceeded as exc:
                details["descent_cycling"] = str(exc)
    if "root_game" in options.tests:
        _record_verdict(record, rivals.root_game_test(symmetrized.factors))

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubvanish",
        description=(
            "Decide vanishing of Schubert intersection numbers with exact, "
            "certificate-producing tests."
        ),
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input file of problem lines; '-' or absent reads stdin",
    )
    parser.add_argument(
        "--tests",
        default=",".join(DEFAULT_TESTS),
        help=f"comma list from {{{','.join(KNOWN_TESTS)}}}",
    )
    parser.add_argument("--oracle-max-n", type=int, default=6)
    parser.add_argument("--flexible-samples", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--stable",
        action="store_true",
        help="zero the timing fields so output is byte-reproducible",
    )
    parser.add_argument("--format", dest="fmt", choices=("text", "jsonlines"), default="text")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the pinned reference problems and report pass/fail",
    )
    return parser


def options_from_args(args: argparse.Namespace) -> Options:
    tests = tuple(t for t in (s.strip() for s in args.tests.split(",")) if t)
    if not tests:
        raise ValueError("--tests selects no test")
    unknown = [t for t in tests if t not in KNOWN_TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {', '.join(unknown)}")
    for flag, value in (
        ("--oracle-max-n", args.oracle_max_n),
        ("--flexible-samples", args.flexible_samples),
    ):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    return Options(
        tests=tests,
        oracle_max_n=args.oracle_max_n,
        flexible_samples=args.flexible_samples,
        seed=args.seed,
        stable=args.stable,
        fmt=args.fmt,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.selfcheck:
            from . import refsuite

            passed = refsuite.run_reference_report(sys.stdout, stable=args.stable)
            return 0 if passed else 1
        options = options_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a leading byte-order mark is skipped; an undecodable byte stays in its
    # line, which then fails to parse alone
    lines = data.decode("utf-8-sig", "surrogateescape").splitlines()
    records, code = run_batch(lines, options)
    emit_records(records, options, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
