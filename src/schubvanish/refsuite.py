"""Curated reference problems with independently known outcomes.

Each case pins the expected behaviour of the tests on a classical example:
problems where the polytope test succeeds and the rivals fail, problems
showing the opposite, the polytope data of one small diagram, and a few
exact polynomial identities.  The CLI self-check runs all of them and fails
loudly on any deviation; the acceptance tests reuse the same material.
"""

from __future__ import annotations

import time
from typing import Callable, TextIO

from . import permcore, rivals, schubitope, schubpoly, vanishing
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


def _check_verdict(name, verdict, outcome, failures):
    if verdict.outcome is not outcome:
        failures.append(f"{name}: expected {outcome.value}, got {verdict.outcome.value}")
    if verdict.outcome is Outcome.VANISHES:
        # Polytope verdicts carry replayable certificates; the rival tests
        # certify through their detail text (failing pair, trivial member,
        # overloaded filter).
        if verdict.certificate is None and not verdict.detail:
            failures.append(f"{name}: vanishing verdict without certificate")


def case_seven_letter_triple() -> list[str]:
    """Polytope test succeeds on a rank-7 triple; certificate replays; oracle agrees."""
    failures: list[str] = []
    ws = (pp("3256147"), pp("2143657"), pp("4632175"))
    verdict = vanishing.symmetric_test(ws)
    _check_verdict("symmetric", verdict, Outcome.VANISHES, failures)
    if verdict.certificate is not None:
        d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws])
        if not verdict.certificate.validate(d, vanishing.staircase(7)):
            failures.append("certificate failed to revalidate")
    dc = rivals.dc_trivial(ws)
    if dc:
        failures.append("triple unexpectedly has a common ascent")
    if schubpoly.intersection_number(ws) != 0:
        failures.append("oracle disagrees: intersection number is nonzero")
    return failures


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
    ineqs = schubitope.SchubitopeInequalities(d)
    by_scan = {
        a for a in schubpoly.compositions(4, 5) if ineqs.contains(a)
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
    points = ineqs.polytope.lattice_points()
    if set(points) != SUPPORT_21543:
        failures.append("generalized-permutahedron enumeration differs")
    return failures


def case_cube_of_1423() -> list[str]:
    """Polytope test beats the Bruhat test on (1423, 1423, 1423)."""
    failures: list[str] = []
    ws = (pp("1423"),) * 3
    _check_verdict(
        "symmetric", vanishing.symmetric_test(ws), Outcome.VANISHES, failures
    )
    _check_verdict(
        "bruhat", rivals.bruhat_vanishing_test(ws), Outcome.INCONCLUSIVE, failures
    )
    if schubpoly.intersection_number(ws) != 0:
        failures.append("oracle disagrees")
    cube = schubpoly.poly_mul(
        schubpoly.schubert_polynomial(pp("1423")), schubpoly.schubert_polynomial(pp("1423"))
    )
    cube = schubpoly.poly_mul(cube, schubpoly.schubert_polynomial(pp("1423")))
    if schubpoly.coefficient(cube, (3, 2, 1, 0)) != 0:
        failures.append("cube of 1423 unexpectedly contains the staircase monomial")
    return failures


def case_asymmetric_strictly_stronger() -> list[str]:
    """(4123, 1342 -> 4312): asymmetric vanishes, symmetric does not."""
    failures: list[str] = []
    u, v, w = pp("4123"), pp("1342"), pp("4312")
    report = vanishing.strength_comparison((u, v), w)
    _check_verdict("asymmetric", report.asymmetric, Outcome.VANISHES, failures)
    _check_verdict("symmetric", report.symmetric, Outcome.INCONCLUSIVE, failures)
    if schubpoly.asymmetric_coefficient((u, v), w) != 0:
        failures.append("oracle disagrees")
    product = schubpoly.poly_mul(
        schubpoly.schubert_polynomial(u), schubpoly.schubert_polynomial(v)
    )
    if set(product) != {(4, 0, 1, 0), (4, 1, 0, 0), (3, 1, 1, 0)}:
        failures.append("product support differs from the pinned three monomials")
    return failures


def case_bruhat_strictly_stronger() -> list[str]:
    """(1243, 1342, 3142): the Bruhat test wins, the polytope tests all miss."""
    failures: list[str] = []
    u, v, w = pp("1243"), pp("1342"), pp("3142")
    bruhat = rivals.bruhat_vanishing_test((u, v, w))
    _check_verdict("bruhat", bruhat, Outcome.VANISHES, failures)
    _check_verdict(
        "symmetric", vanishing.symmetric_test((u, v, w)), Outcome.INCONCLUSIVE, failures
    )
    w0 = permcore.w0(4)
    for factors, target in (
        ((u, v), permcore.multiply(w0, w)),
        ((v, w), permcore.multiply(w0, u)),
        ((u, w), permcore.multiply(w0, v)),
    ):
        verdict = vanishing.asymmetric_test(factors, target)
        _check_verdict(f"asymmetric->{target}", verdict, Outcome.INCONCLUSIVE, failures)
    if schubpoly.intersection_number((u, v, w)) != 0:
        failures.append("oracle disagrees")
    return failures


def case_descent_cycling_and_root_game_win() -> list[str]:
    """(1423, 1423, 1342): dc-trivial and doomed, but polytope-inconclusive."""
    failures: list[str] = []
    u, v, w = pp("1423"), pp("1423"), pp("1342")
    t = rivals.Triple(u, v, w)
    if not rivals.dc_trivial(t.factors):
        failures.append("triple should have a common ascent")
    _check_verdict("descent_cycling", rivals.dc_test(t), Outcome.VANISHES, failures)
    _check_verdict(
        "root_game", rivals.root_game_test((u, v, w)), Outcome.VANISHES, failures
    )
    _check_verdict(
        "symmetric", vanishing.symmetric_test((u, v, w)), Outcome.INCONCLUSIVE, failures
    )
    target = permcore.multiply(permcore.w0(4), w)
    _check_verdict(
        "asymmetric",
        vanishing.asymmetric_test((u, v), target),
        Outcome.INCONCLUSIVE,
        failures,
    )
    if schubpoly.intersection_number((u, v, w)) != 0:
        failures.append("oracle disagrees")
    square = schubpoly.poly_mul(
        schubpoly.schubert_polynomial(u), schubpoly.schubert_polynomial(v)
    )
    if square != SQUARE_1423:
        failures.append("square of 1423 differs from the pinned polynomial")
    return failures


def case_class_of_nine() -> list[str]:
    """(3216547, 3216547, 4261573): polytope vanishes; dc closure has 9 members."""
    failures: list[str] = []
    ws = (pp("3216547"), pp("3216547"), pp("4261573"))
    _check_verdict(
        "symmetric", vanishing.symmetric_test(ws), Outcome.VANISHES, failures
    )
    t = rivals.Triple(*ws)
    cls = rivals.dc_class(t)
    found = frozenset(
        tuple(permcore.format_permutation(x) for x in m) for m in cls
    )
    if found != DC_CLASS_OF_NINE:
        failures.append(f"dc class has {len(found)} members, expected the pinned 9")
    _check_verdict("descent_cycling", rivals.dc_test(t), Outcome.INCONCLUSIVE, failures)
    if schubpoly.intersection_number(ws) != 0:
        failures.append("oracle disagrees")
    return failures


def case_root_game_misses() -> list[str]:
    """(3216547, 3216547, 1652473): only the asymmetric test succeeds."""
    failures: list[str] = []
    u, v, w = pp("3216547"), pp("3216547"), pp("1652473")
    doomed, _ = rivals.is_doomed(rivals.root_game_initial((u, v, w)))
    if doomed:
        failures.append("position should not be doomed")
    t = rivals.Triple(u, v, w)
    cls = rivals.dc_class(t)
    if len(cls) != 9:
        failures.append(f"dc class has {len(cls)} members, expected 9")
    _check_verdict("descent_cycling", rivals.dc_test(t), Outcome.INCONCLUSIVE, failures)
    _check_verdict(
        "symmetric", vanishing.symmetric_test((u, v, w)), Outcome.INCONCLUSIVE, failures
    )
    target = permcore.multiply(permcore.w0(7), w)
    if target != pp("7236415"):
        failures.append("complement of the third factor is off")
    _check_verdict(
        "asymmetric",
        vanishing.asymmetric_test((u, v), target),
        Outcome.VANISHES,
        failures,
    )
    if schubpoly.asymmetric_coefficient((u, v), target) != 0:
        failures.append("oracle disagrees")
    return failures


def case_inherently_inconclusive() -> list[str]:
    """(231645, 231645 -> 451623): zero, yet no monomial choice detects it."""
    failures: list[str] = []
    u = pp("231645")
    target = pp("451623")
    if permcore.code(target) != (3, 3, 0, 2, 0, 0):
        failures.append("code of 451623 is off")
    support = schubpoly.support(schubpoly.schubert_polynomial(target))
    if set(support) != set(SUPPORT_451623):
        failures.append("support of 451623 differs from the pinned three monomials")
    for alpha in SUPPORT_451623:
        verdict = vanishing.flexible_test((u, u), target, alpha)
        _check_verdict(f"flexible {alpha}", verdict, Outcome.INCONCLUSIVE, failures)
    if schubpoly.asymmetric_coefficient((u, u), target) != 0:
        failures.append("oracle disagrees: the multiplicity should be zero")
    return failures


def case_point_class_unit() -> list[str]:
    """(1234, 1234, 4321): everything inconclusive and the number is one."""
    failures: list[str] = []
    ws = (pp("1234"), pp("1234"), pp("4321"))
    for name, verdict in (
        ("symmetric", vanishing.symmetric_test(ws)),
        ("bruhat", rivals.bruhat_vanishing_test(ws)),
        ("descent_cycling", rivals.dc_test(rivals.Triple(*ws))),
        ("root_game", rivals.root_game_test(ws)),
    ):
        _check_verdict(name, verdict, Outcome.INCONCLUSIVE, failures)
    if schubpoly.intersection_number(ws) != 1:
        failures.append("oracle should give exactly one point")
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


CASES: tuple[tuple[str, Callable[[], list[str]]], ...] = (
    ("seven_letter_triple", case_seven_letter_triple),
    ("polytope_of_21543", case_polytope_of_21543),
    ("cube_of_1423", case_cube_of_1423),
    ("asymmetric_strictly_stronger", case_asymmetric_strictly_stronger),
    ("bruhat_strictly_stronger", case_bruhat_strictly_stronger),
    ("descent_cycling_and_root_game_win", case_descent_cycling_and_root_game_win),
    ("class_of_nine", case_class_of_nine),
    ("root_game_misses", case_root_game_misses),
    ("inherently_inconclusive", case_inherently_inconclusive),
    ("point_class_unit", case_point_class_unit),
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
