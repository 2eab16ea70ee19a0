"""Curated reference problems with independently known outcomes.

Each case pins the expected behaviour of the tests on a classical example:
problems where the polytope test succeeds and the rivals fail, problems
showing the opposite, the polytope data of one small diagram, and a few
exact polynomial identities.  The verdicts and oracle values are pinned as
problem lines in the CLI's input format (PINNED), which the self-check runs
through the batch evaluator, so it checks the records users get; what is
not a verdict stays a short check beside them.  The CLI self-check runs
every case and fails loudly on any deviation; the acceptance tests reuse
the same material.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from . import cli, permcore, rivals, schubitope, schubpoly, vanishing
from .permcore import parse_permutation as pp
from .vanishing import Outcome

# Support of the polynomial of 21543: thirteen exponent vectors.
SUPPORT_21543 = frozenset(
    {
        (3, 1, 0, 0, 0),
        (3, 0, 1, 0, 0),
        (3, 0, 0, 1, 0),
        (2, 2, 0, 0, 0),
        (2, 0, 2, 0, 0),
        (2, 1, 1, 0, 0),
        (2, 1, 0, 1, 0),
        (2, 0, 1, 1, 0),
        (1, 1, 2, 0, 0),
        (1, 2, 1, 0, 0),
        (1, 2, 0, 1, 0),
        (1, 0, 2, 1, 0),
        (1, 1, 1, 1, 0),
    }
)

# Minimal inequality data of that polytope: theta on these subsets.
THETA_21543 = {
    (1,): 3,
    (2,): 2,
    (3,): 2,
    (4,): 1,
    (1, 2, 3): 4,
    (1, 2, 4): 4,
    (1, 3, 4): 4,
    (2, 3, 4): 3,
}

# The square of 1423, an exact five-term identity.
SQUARE_1423 = {
    (0, 4, 0, 0): 1,
    (1, 3, 0, 0): 2,
    (2, 2, 0, 0): 3,
    (3, 1, 0, 0): 2,
    (4, 0, 0, 0): 1,
}

# The polynomial of 451623 has exactly three monomials.
SUPPORT_451623 = (
    (3, 3, 0, 2, 0, 0),
    (3, 3, 1, 1, 0, 0),
    (3, 3, 2, 0, 0, 0),
)

# Descent-cycling closure of (3216547, 3216547, 4261573): nine triples.
DC_CLASS_OF_NINE = frozenset(
    {
        ("3216574", "3261547", "4216537"),
        ("3216547", "3216574", "4261537"),
        ("3261547", "3216574", "4216537"),
        ("3261547", "3216547", "4216573"),
        ("3216574", "3216547", "4261537"),
        ("3216547", "3216547", "4261573"),
        ("3261574", "3216547", "4216537"),
        ("3216547", "3261574", "4216537"),
        ("3216547", "3261547", "4216573"),
    }
)


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
        # 7236415 is w0 * 1652473 (complement_of_1652473)
        Pin("asym: 3216547, 3216547 -> 7236415", {"schubitope_asymmetric": VANISHES}, 0),
    ),
    # zero, yet no monomial choice detects it (no_monomial_detects)
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
        options = cli.Options(tests=tuple(sorted(tests)), oracle_max_n=7, stable=True)
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


def no_common_ascent() -> Iterator[str]:
    """The seven-letter triple has no common ascent."""
    if rivals.dc_trivial((pp("3256147"), pp("2143657"), pp("4632175"))):
        yield "triple unexpectedly has a common ascent"


def cube_without_staircase() -> Iterator[str]:
    """The cube of the polynomial of 1423 has no staircase monomial."""
    s = schubpoly.schubert_polynomial(pp("1423"))
    if schubpoly.coefficient(schubpoly.poly_mul(schubpoly.poly_mul(s, s), s), (3, 2, 1, 0)):
        yield "cube of 1423 unexpectedly contains the staircase monomial"


def product_support() -> Iterator[str]:
    """The product of the polynomials of 4123 and 1342 has three monomials."""
    product = schubpoly.poly_mul(
        schubpoly.schubert_polynomial(pp("4123")), schubpoly.schubert_polynomial(pp("1342"))
    )
    if set(product) != {(4, 0, 1, 0), (4, 1, 0, 0), (3, 1, 1, 0)}:
        yield "product support differs from the pinned three monomials"


def common_ascent_and_square() -> Iterator[str]:
    """(1423, 1423, 1342) has a common ascent; the square of 1423 is pinned."""
    u = pp("1423")
    if not rivals.dc_trivial((u, u, pp("1342"))):
        yield "triple should have a common ascent"
    s = schubpoly.schubert_polynomial(u)
    if schubpoly.poly_mul(s, s) != SQUARE_1423:
        yield "square of 1423 differs from the pinned polynomial"


def nine_members() -> Iterator[str]:
    """The descent-cycling class of (3216547, 3216547, 4261573), member by member."""
    cls = rivals.dc_class(rivals.Triple(pp("3216547"), pp("3216547"), pp("4261573")))
    found = frozenset(tuple(permcore.format_permutation(x) for x in m) for m in cls)
    if found != DC_CLASS_OF_NINE:
        yield f"dc class has {len(found)} members, expected the pinned 9"


def complement_of_1652473() -> Iterator[str]:
    """The asymmetric line's target is w0 times the third factor."""
    if permcore.multiply(permcore.w0(7), pp("1652473")) != pp("7236415"):
        yield "complement of the third factor is off"


def no_monomial_detects() -> Iterator[str]:
    """(231645, 231645 -> 451623): no monomial of the target detects the zero."""
    u, target = pp("231645"), pp("451623")
    if permcore.code(target) != (3, 3, 0, 2, 0, 0):
        yield "code of 451623 is off"
    if set(schubpoly.support(schubpoly.schubert_polynomial(target))) != set(SUPPORT_451623):
        yield "support of 451623 differs from the pinned three monomials"
    for alpha in SUPPORT_451623:
        outcome = vanishing.flexible_test((u, u), target, alpha).outcome
        if outcome is not Outcome.INCONCLUSIVE:
            yield f"flexible {alpha}: expected INCONCLUSIVE, got {outcome.value}"


def case_polytope_of_21543() -> list[str]:
    """Inequality data and lattice points of one diagram, counted two ways."""
    failures: list[str] = []
    w = pp("21543")
    d = permcore.rothe_diagram(w)
    for rows, expected in THETA_21543.items():
        got = schubitope.theta(d, rows)
        if got != expected:
            failures.append(f"theta{rows} = {got}, expected {expected}")
    if schubitope.theta(d, (1, 2, 3, 4, 5)) != 4:
        failures.append("theta over all rows must equal the cell count 4")
    polytope = schubitope.schubitope_gpermutahedron(d)
    by_scan = {
        a for a in schubpoly.compositions(4, 5) if polytope.contains(a)
    }
    by_flow = {
        a
        for a in schubpoly.compositions(4, 5)
        if isinstance(schubitope.filling_or_cut(d, a), schubitope.Filling)
    }
    support = set(schubpoly.support(schubpoly.schubert_polynomial(w)))
    if by_scan != SUPPORT_21543:
        failures.append(f"inequality scan found {len(by_scan)} points, expected 13")
    if by_flow != SUPPORT_21543:
        failures.append(f"max-flow enumeration found {len(by_flow)} points, expected 13")
    if support != SUPPORT_21543:
        failures.append("polynomial support differs from the pinned 13 monomials")
    points = polytope.lattice_points()
    if set(points) != SUPPORT_21543:
        failures.append("generalized-permutahedron enumeration differs")
    return failures


def case_code_complement() -> list[str]:
    """Codes of w and of w0*w add up to the staircase."""
    failures: list[str] = []
    w = pp("4632175")
    comp = permcore.multiply(permcore.w0(7), w)
    total = tuple(
        a + b for a, b in zip(permcore.code(w), permcore.code(comp))
    )
    if total != (6, 5, 4, 3, 2, 1, 0):
        failures.append(f"code sum is {total}")
    return failures


def _pinned(
    name: str, bespoke: Callable[[], Iterable[str]] = tuple
) -> tuple[str, Callable[[], list[str]]]:
    """The case name: its pinned lines (looked up when it runs), then the rest."""
    return name, lambda: [*check_pinned(PINNED[name]), *bespoke()]


CASES: tuple[tuple[str, Callable[[], list[str]]], ...] = (
    _pinned("seven_letter_triple", no_common_ascent),
    ("polytope_of_21543", case_polytope_of_21543),
    _pinned("cube_of_1423", cube_without_staircase),
    _pinned("asymmetric_strictly_stronger", product_support),
    _pinned("bruhat_strictly_stronger"),
    _pinned("descent_cycling_and_root_game_win", common_ascent_and_square),
    _pinned("class_of_nine", nine_members),
    _pinned("root_game_misses", complement_of_1652473),
    _pinned("inherently_inconclusive", no_monomial_detects),
    _pinned("point_class_unit"),
    ("code_complement", case_code_complement),
)


def run_reference_report(out: TextIO, stable: bool = False) -> bool:
    """Run every pinned case; print one line each; True when all pass.

    Each line ends with the case's wall time in ms, or 0 when stable.
    """
    all_ok = True
    for name, fn in CASES:
        start = time.perf_counter()
        failures = fn()
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
