"""Curated reference problems with independently known outcomes.

Each case pins the expected behaviour of the tests on a classical example:
problems where the polytope test succeeds and the rivals fail, and problems
showing the opposite.  A case is its problem lines in the CLI's input
format (PINNED), with the verdicts, oracle values and notes the batch
evaluator must give them, so the self-check checks the records users get
and replays the certificates they carry.  The CLI self-check runs every
case and fails loudly on any deviation; the acceptance tests reuse the
same table.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple, Optional, Sequence, TextIO

from . import cli, permcore, schubitope
from .vanishing import Outcome

VANISHES, INCONCLUSIVE = Outcome.VANISHES.value, Outcome.INCONCLUSIVE.value
CLASS_OF_9 = {"descent_cycling": "class of 9, none dc-trivial"}


class Pin(NamedTuple):
    """A problem line in the CLI's input format and what its record must say.

    The line runs the tests behind its verdict keys, and the oracle when a
    value is pinned.
    """

    line: str
    verdicts: dict[str, str]
    oracle: Optional[int] = None
    details: dict[str, str] = {}


# Each case's problem lines, with the verdicts, oracle values and notes the
# batch evaluator must give them.
PINNED: dict[str, tuple[Pin, ...]] = {
    # the polytope test succeeds on a rank-7 triple
    "seven_letter_triple": (
        Pin("sym: 3256147, 2143657, 4632175", {"schubitope_symmetric": VANISHES}, 0),
    ),
    # the polytope test beats the Bruhat test
    "cube_of_1423": (
        Pin("sym: 1423, 1423, 1423",
            {"schubitope_symmetric": VANISHES, "bruhat": INCONCLUSIVE}, 0),
    ),
    # the asymmetric test vanishes, the symmetric one does not
    "asymmetric_strictly_stronger": (
        Pin("asym: 4123, 1342 -> 4312", {"schubitope_asymmetric": VANISHES}, 0),
        # the same problem symmetrized: 1243 is w0 * 4312
        Pin("sym: 4123, 1342, 1243", {"schubitope_symmetric": INCONCLUSIVE}),
    ),
    # the Bruhat test wins, the polytope tests all miss
    "bruhat_strictly_stronger": (
        Pin("sym: 1243, 1342, 3142",
            {"bruhat": VANISHES, "schubitope_symmetric": INCONCLUSIVE}, 0),
        # each factor in turn as the target, through its complement
        Pin("asym: 1243, 1342 -> 2413", {"schubitope_asymmetric": INCONCLUSIVE}),
        Pin("asym: 1342, 3142 -> 4312", {"schubitope_asymmetric": INCONCLUSIVE}),
        Pin("asym: 1243, 3142 -> 4213", {"schubitope_asymmetric": INCONCLUSIVE}),
    ),
    # dc-trivial and doomed, but polytope-inconclusive
    "descent_cycling_and_root_game_win": (
        Pin("sym: 1423, 1423, 1342",
            {"descent_cycling": VANISHES, "root_game": VANISHES,
             "schubitope_symmetric": INCONCLUSIVE}, 0),
        Pin("asym: 1423, 1423 -> 4213", {"schubitope_asymmetric": INCONCLUSIVE}),
    ),
    # the polytope test vanishes; the dc closure has 9 members, none trivial
    "class_of_nine": (
        Pin("sym: 3216547, 3216547, 4261573",
            {"schubitope_symmetric": VANISHES, "descent_cycling": INCONCLUSIVE},
            0, CLASS_OF_9),
    ),
    # only the asymmetric test succeeds
    "root_game_misses": (
        Pin("sym: 3216547, 3216547, 1652473",
            {"root_game": INCONCLUSIVE, "descent_cycling": INCONCLUSIVE,
             "schubitope_symmetric": INCONCLUSIVE}, None, CLASS_OF_9),
        # 7236415 is w0 * 1652473
        Pin("asym: 3216547, 3216547 -> 7236415", {"schubitope_asymmetric": VANISHES}, 0),
    ),
    # zero, yet no monomial choice detects it
    "inherently_inconclusive": (
        Pin("asym: 231645, 231645 -> 451623", {}, 0),
    ),
    # everything inconclusive and the number is one
    "point_class_unit": (
        Pin("sym: 1234, 1234, 4321",
            {"schubitope_symmetric": INCONCLUSIVE, "bruhat": INCONCLUSIVE,
             "descent_cycling": INCONCLUSIVE, "root_game": INCONCLUSIVE}, 1),
    ),
}


def check_pinned(pins: Sequence[Pin]) -> Iterator[str]:
    """Run each line through the batch evaluator; one message per deviation.

    Every vanishing verdict must also carry its reason: a subset certificate
    that replays on the line's diagram for the Schubitope tests, a note for
    the rivals.
    """
    for pin in pins:
        tests = {"schubitope" if t.startswith("schubitope_") else t for t in pin.verdicts}
        if pin.oracle is not None:
            tests.add("oracle")
        options = cli.Options(tests=tuple(sorted(tests)), stable=True)
        (record,), _ = cli.run_batch([pin.line], options)
        if "error" in record:
            yield f"{pin.line}: {record['error']}"
            continue
        verdicts, details = record["verdicts"], record.get("details", {})
        for test, want in pin.verdicts.items():
            if verdicts.get(test) != want:
                yield f"{pin.line}: {test} gave {verdicts.get(test)}, expected {want}"
        for test, want in pin.details.items():
            if details.get(test) != want:
                yield f"{pin.line}: {test} note {details.get(test)!r}, expected {want!r}"
        if record.get("oracle") != pin.oracle:
            yield f"{pin.line}: oracle {record.get('oracle')}, expected {pin.oracle}"
        for test, outcome in verdicts.items():
            if outcome != VANISHES:
                continue
            if test.startswith("schubitope_"):
                if not _replays(pin.line, record.get("certificates", {}).get(test)):
                    yield f"{pin.line}: {test} certificate does not replay"
            elif not details.get(test):
                yield f"{pin.line}: {test} vanishes without a note"


def _replays(line: str, cert: Optional[dict]) -> bool:
    """Replay a subset certificate on the line's diagram and content."""
    if cert is None or cert["kind"] != "subset":
        return False
    problem = cli.parse_problem_line(line)
    ws, target = permcore.well_posed(problem.factors, problem.target)
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws])
    subset = schubitope.InfeasibleSubset(tuple(cert["rows"]), cert["lhs"], cert["rhs"])
    return subset.validate(d, permcore.code(target))


def run_reference_report(out: TextIO, stable: bool = False) -> bool:
    """Run every case's pinned lines; print one line each; True when all pass.

    Each line ends with the case's wall time in ms, or 0 when stable.
    """
    all_ok = True
    for name, pins in PINNED.items():
        start = time.perf_counter()
        failures = list(check_pinned(pins))
        ms = 0 if stable else int((time.perf_counter() - start) * 1000)
        if failures:
            all_ok = False
            out.write(f"FAIL {name} {ms} ms\n")
            for msg in failures:
                out.write(f"     {msg}\n")
        else:
            out.write(f"ok   {name} {ms} ms\n")
    out.write("reference suite: " + ("all cases pass\n" if all_ok else "FAILURES\n"))
    return all_ok
