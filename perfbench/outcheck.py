"""Checks one CLI batch output and counts the problems that failed.

A problem fails when it has no record, gets an error record, misses or
adds a verdict, gets a verdict the evidence contradicts, or carries a
certificate that does not replay.  Certificates replay in exact arithmetic
through the package's own ``validate`` methods, looked up by name when the
check runs.  When the batch process dies (any exit code other than 0 or 2),
every problem in it fails.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from problemgen import Batch, Workload

VERDICTS = ("VANISHES", "INCONCLUSIVE")
CERTIFIED = ("schubitope_symmetric", "schubitope_asymmetric", "flexible")
ORACLE_MAX_N = 6  # the CLI's default --oracle-max-n


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


def _lib(module: str):
    return importlib.import_module(f"schubvanish.{module}")


def workload_tests(workload: Workload) -> tuple[set[str], int]:
    """The --tests set and --flexible-samples value the workload passes."""
    tests, samples = {"schubitope"}, 0
    for arg in workload.cli_args:
        if arg.startswith("--tests="):
            tests = set(arg.split("=", 1)[1].split(","))
        elif arg.startswith("--flexible-samples="):
            samples = int(arg.split("=", 1)[1])
    return tests, samples


def problem_lines(text: str) -> dict[str, str]:
    """Record id -> problem line, as the CLI numbers them."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out[f"L{lineno}"] = line
    return out


def parse_problem(line: str):
    """(mode, embedded factors, embedded target or None) via the package."""
    permcore = _lib("permcore")
    head, _, body = line.partition(":")
    target = None
    if head.strip() == "asym":
        body, _, right = body.partition("->")
        target = permcore.parse_permutation(right)
    factors = [permcore.parse_permutation(p) for p in body.split(",")]
    ws = permcore.common_embed(factors + ([target] if target else []))
    if target is None:
        return "symmetric", ws, None
    return "asymmetric", ws[:-1], ws[-1]


def expected_keys(mode: str, tests: set[str], samples: int) -> set[str]:
    keys = set()
    if "schubitope" in tests:
        keys.add(f"schubitope_{mode}")
    if "flexible" in tests and mode == "asymmetric" and samples > 0:
        keys.add("flexible")
    # every generated problem symmetrizes to three factors
    keys.update(t for t in ("bruhat", "descent_cycling", "root_game") if t in tests)
    return keys


def rebuild_certificate(data: dict):
    schubitope = _lib("schubitope")
    kind = data.get("kind")
    if kind == "subset":
        return schubitope.InfeasibleSubset(
            tuple(data["rows"]), data["lhs"], data["rhs"]
        )
    if kind == "farkas":
        farkas = getattr(schubitope, "FarkasCertificate", None)
        if farkas is None:
            return None
        return farkas(
            tuple(Fraction(x) for x in data["content"]),
            tuple(((s, j), Fraction(m)) for s, j, m in data["prefix"]),
            tuple(data["columns"]),
        )
    return None


def _content_of(detail: str) -> Optional[tuple[int, ...]]:
    if not detail.startswith("content=("):
        return None
    inner = detail[len("content=("):].rstrip(")")
    return tuple(int(x) for x in inner.split(",") if x.strip())


def certificate_replays(key: str, record: dict, mode: str, factors, target) -> str:
    """'' when the certificate of verdict `key` replays, else the reason."""
    permcore = _lib("permcore")
    cert = rebuild_certificate(record.get("certificates", {}).get(key, {}))
    if cert is None:
        return f"{key}: VANISHES without a replayable certificate"
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in factors])
    if key == "schubitope_symmetric":
        n = len(factors[0])
        alpha = tuple(range(n - 1, -1, -1))
    elif key == "schubitope_asymmetric":
        alpha = permcore.code(target)
    else:
        alpha = _content_of(record.get("details", {}).get(key, ""))
        if alpha is None:
            return f"{key}: no content recorded"
        member, _ = _lib("schubitope").schubitope_membership(
            permcore.rothe_diagram(target), alpha
        )
        if not member:
            return f"{key}: content {alpha} is not in the target's Schubitope"
    if not cert.validate(d, alpha):
        return f"{key}: certificate does not replay"
    return ""


def check_record(
    record: dict,
    line: str,
    workload: Workload,
    expected: dict,
    pinned: Optional[dict],
) -> list[str]:
    """Every reason this record is wrong; empty when it is right.

    expected holds the generator's reference answers for this problem.
    """
    if "error" in record:
        return [f"error record: {record['error']}"]
    tests, samples = workload_tests(workload)
    mode, factors, target = parse_problem(line)
    verdicts = record.get("verdicts", {})
    reasons = []
    want = expected_keys(mode, tests, samples)
    if set(verdicts) != want:
        reasons.append(f"verdicts {sorted(verdicts)} != expected {sorted(want)}")
    for key, value in sorted(verdicts.items()):
        if value not in VERDICTS:
            reasons.append(f"{key}: unexpected verdict {value}")
        elif key in CERTIFIED and value == "VANISHES":
            reason = certificate_replays(key, record, mode, factors, target)
            if reason:
                reasons.append(reason)
        elif key in CERTIFIED and key in record.get("certificates", {}):
            reasons.append(f"{key}: certificate beside {value}")
    for key, value in expected.items():
        if key != "oracle" and verdicts.get(key) != value:
            reasons.append(f"{key}: {verdicts.get(key)} != reference {value}")
    oracle = expected.get("oracle")
    if oracle is not None:
        if len(factors[0]) <= ORACLE_MAX_N and "oracle" in tests:
            if record.get("oracle") != oracle:
                reasons.append(f"oracle {record.get('oracle')} != reference {oracle}")
        if oracle > 0 and "VANISHES" in verdicts.values():
            reasons.append(f"VANISHES beside a positive intersection number {oracle}")
    if pinned is not None and line in pinned:
        want_pin = pinned[line]
        got = {"verdicts": verdicts, "oracle": record.get("oracle")}
        if got != want_pin:
            reasons.append(f"verdicts {got} differ from the pinned {want_pin}")
    return reasons


def check_batch(
    workload: Workload,
    batch: Batch,
    stdout: str,
    returncode: int,
    pinned: Optional[dict] = None,
) -> CheckResult:
    lines = problem_lines(batch.text)
    result = CheckResult(attempted=len(lines))
    if returncode not in (0, 2):
        result.failed = len(lines)
        result.messages.append(f"batch exited with code {returncode}")
        return result
    records = {}
    for raw in stdout.splitlines():
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            result.messages.append(f"unparsable output line {raw[:80]!r}")
            continue
        if isinstance(record, dict) and "id" in record:
            records[record["id"]] = record
    for rid, line in lines.items():
        record = records.get(rid)
        reasons = (
            ["no record"]
            if record is None
            else check_record(record, line, workload, batch.expected.get(rid, {}), pinned)
        )
        if reasons:
            result.failed += 1
            result.messages.append(f"{rid} {line}: " + "; ".join(reasons))
    extra = set(records) - set(lines)
    if extra:
        result.messages.append(f"records for no problem: {sorted(extra)}")
        result.failed = result.attempted
    return result
