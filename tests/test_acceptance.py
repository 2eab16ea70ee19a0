"""Acceptance suite: one test per pinned criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight shared computation (verdicts and oracle values for
every well-posed ordered triple in S4, plus a seeded random sample in S5)
happens once in module-scoped fixtures.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from fillingref import enumerate_tab, is_valid_filling
from polyref import (
    SUPPORT_21543,
    THETA_21543,
    compositions,
    poly_mul,
    schubert_polynomial,
    staircase,
    verify_snp,
)
from schubvanish import permcore as pc
from schubvanish import refsuite
from schubvanish import rivals as rv
from schubvanish import schubitope as sb
from schubvanish import schubpoly as sp
from schubvanish import vanishing as vn
from schubvanish.vanishing import Outcome

# A vanishing symmetric triple at rank 23, above the old subset-scan cap.
RANK_23_VANISHING = (
    "11 6 4 3 2 15 8 10 12 1 5 22 18 16 13 7 23 21 9 17 20 19 14",
    "7 5 9 4 6 12 1 11 3 2 17 19 10 16 15 18 8 13 23 22 14 21 20",
    "9 15 8 7 18 6 4 2 1 16 23 14 5 13 12 3 22 21 20 19 17 11 10",
)

S5_SAMPLE_SIZE = 500
S5_SEED = 20250811


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@dataclass
class SweepRow:
    factors: tuple
    symmetric: object
    asymmetric: object
    bruhat: object
    dc: object
    root: object
    oracle: int
    certificates_ok: bool = True
    cert_count: int = 0


def _replays(cert, d, alpha):
    """A subset certificate whose two sides recompute from scratch via theta."""
    return isinstance(cert, sb.InfeasibleSubset) and cert.validate(d, alpha)


def _evaluate_triple(u, v, w):
    """All five verdicts plus the oracle for one ordered symmetric triple."""
    n = len(u)
    longest = pc.w0(n)
    sym = vn.symmetric_test((u, v, w))
    asym = vn.asymmetric_test((u, v), pc.multiply(longest, w))
    bruhat = rv.bruhat_vanishing_test((u, v, w))
    dc = rv.dc_test(rv.Triple(u, v, w))
    root = rv.root_game_test((u, v, w))
    oracle = sp.intersection_number((u, v, w))

    cert_count = 0
    certificates_ok = True
    if sym.outcome is Outcome.VANISHES:
        d = pc.concat_diagrams([pc.rothe_diagram(x) for x in (u, v, w)])
        certificates_ok &= _replays(sym.certificate, d, staircase(n))
        cert_count += 1
    if asym.outcome is Outcome.VANISHES:
        d = pc.concat_diagrams([pc.rothe_diagram(x) for x in (u, v)])
        target = pc.multiply(longest, w)
        certificates_ok &= _replays(asym.certificate, d, pc.code(target))
        cert_count += 1
    return SweepRow(
        (u, v, w), sym, asym, bruhat, dc, root, oracle,
        certificates_ok, cert_count,
    )


@pytest.fixture(scope="module")
def s4_sweep():
    perms = pc.all_perms(4)
    rows = []
    for u, v, w in itertools.product(perms, repeat=3):
        if pc.length(u) + pc.length(v) + pc.length(w) != 6:
            continue
        rows.append(_evaluate_triple(u, v, w))
    return rows


@pytest.fixture(scope="module")
def s5_sweep():
    perms = pc.all_perms(5)
    by_len = {}
    for w in perms:
        by_len.setdefault(pc.length(w), []).append(w)
    rng = random.Random(S5_SEED)
    seen = set()
    rows = []
    while len(rows) < S5_SAMPLE_SIZE:
        u, v = rng.choice(perms), rng.choice(perms)
        rest = 10 - pc.length(u) - pc.length(v)
        if rest not in by_len:
            continue
        w = rng.choice(by_len[rest])
        if (u, v, w) in seen:
            continue
        seen.add((u, v, w))
        rows.append(_evaluate_triple(u, v, w))
    return rows


def test_criterion_01_seven_letter_reproduction():
    ws = tuple(pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175"))
    start = time.perf_counter()
    verdict = vn.symmetric_test(ws)
    test_elapsed = time.perf_counter() - start
    d = pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])
    ok = (
        verdict.outcome is Outcome.VANISHES
        and verdict.certificate is not None
        and verdict.certificate.validate(d, staircase(7))
        and test_elapsed < 1.0
    )
    oracle = sp.intersection_number(ws)
    report(
        "C1 seven-letter reproduction",
        ok and oracle == 0,
        f"test {test_elapsed * 1000:.0f} ms, oracle = {oracle}",
    )


def test_criterion_02_polytope_data_of_21543():
    w = pc.parse_permutation("21543")
    d = pc.rothe_diagram(w)
    theta_ok = all(
        sb.theta(d, rows) == rhs for rows, rhs in THETA_21543.items()
    ) and sb.theta(d, (1, 2, 3, 4, 5)) == 4 == d.cell_count
    ineqs = sb.SchubitopeInequalities(d)
    by_scan = {a for a in compositions(4, 5) if ineqs.contains(a)}
    by_flow = set()
    evidence_ok = True
    for a in compositions(4, 5):
        found = sb.filling_or_cut(d, a)
        if isinstance(found, sb.Filling):
            by_flow.add(a)
            evidence_ok &= is_valid_filling(found, a)
        else:
            evidence_ok &= found.validate(d, a)
    monomials = set(schubert_polynomial(w))
    ok = (
        theta_ok
        and evidence_ok
        and by_scan == SUPPORT_21543
        and by_flow == SUPPORT_21543
        and monomials == SUPPORT_21543
    )
    report(
        "C2 polytope of 21543",
        ok,
        "13 lattice points by scan, flow and polynomial, 8 inequality values exact",
    )


def test_criterion_03_soundness_sweep(s4_sweep, s5_sweep):
    start = time.perf_counter()
    violations = []
    for rows, tag in ((s4_sweep, "S4"), (s5_sweep, "S5")):
        for row in rows:
            for name, verdict in (
                ("symmetric", row.symmetric),
                ("asymmetric", row.asymmetric),
                ("bruhat", row.bruhat),
                ("descent_cycling", row.dc),
                ("root_game", row.root),
            ):
                if verdict.outcome is Outcome.VANISHES and row.oracle != 0:
                    violations.append((tag, name, row.factors, row.oracle))
    elapsed = time.perf_counter() - start
    detail = (
        f"{len(s4_sweep)} S4 triples (all well-posed) + {len(s5_sweep)} random "
        f"S5 triples, {len(violations)} violations"
    )
    report("C3 soundness sweep", not violations and elapsed < 300, detail)


def test_criterion_03b_dc_classes_share_oracle(s4_sweep):
    # descent-cycling moves preserve the intersection number
    checked = 0
    done = set()
    for row in s4_sweep:
        t = rv.Triple(*row.factors)
        if t.factors in done:
            continue
        cls = rv.dc_class(t)
        done |= cls
        values = {sp.intersection_number(m) for m in cls}
        assert len(values) == 1, (t, values)
        checked += 1
    report("C3b dc classes share the oracle value", True, f"{checked} classes")


def test_criterion_04_equivalence_triangle():
    violations = 0
    cases = 0
    for w in pc.all_perms(4):
        d = pc.rothe_diagram(w)
        ineqs = sb.SchubitopeInequalities(d)
        for alpha in compositions(pc.length(w), 4):
            cases += 1
            has_tab = bool(enumerate_tab(d, alpha))
            member = ineqs.contains(alpha)
            found = sb.filling_or_cut(d, alpha)
            if isinstance(found, sb.Filling):
                feasible, evidence_ok = True, is_valid_filling(found, alpha)
            else:
                feasible, evidence_ok = False, found.validate(d, alpha)
            if not (has_tab == member == feasible and evidence_ok):
                violations += 1
    report(
        "C4 equivalence triangle",
        violations == 0,
        f"{cases} (diagram, content) cases, {violations} violations",
    )


def test_criterion_05_snp_verification():
    start = time.perf_counter()
    snp_failures = [w for w in pc.all_perms(5) if not verify_snp(w)]
    pair_cases = 0
    pair_failures = 0
    perms = pc.all_perms(4)
    for u, v in itertools.product(perms, perms):
        d = pc.concat_diagrams([pc.rothe_diagram(u), pc.rothe_diagram(v)])
        ineqs = sb.SchubitopeInequalities(d)
        product = poly_mul(schubert_polynomial(u, 4), schubert_polynomial(v, 4))
        deg = pc.length(u) + pc.length(v)
        for alpha in compositions(deg, 4):
            pair_cases += 1
            # nonzero coefficient iff content inside the summed polytope
            if (alpha in product) != ineqs.contains(alpha):
                pair_failures += 1
    elapsed = time.perf_counter() - start
    ok = not snp_failures and pair_failures == 0 and elapsed < 600
    report(
        "C5 saturated Newton polytopes",
        ok,
        f"120 rank-5 polynomials, {pair_cases} product coefficients, "
        f"{elapsed:.1f} s",
    )


def test_criterion_06_asymmetric_dominates_symmetric(s4_sweep):
    violations = [
        row.factors
        for row in s4_sweep
        if row.symmetric.outcome is Outcome.VANISHES
        and row.asymmetric.outcome is not Outcome.VANISHES
    ]
    strict = vn.SchubertProblem(
        (pc.parse_permutation("4123"), pc.parse_permutation("1342")),
        pc.parse_permutation("4312"),
    )
    witness_ok = (
        vn.asymmetric_test(strict.factors, strict.target).outcome is Outcome.VANISHES
        and vn.symmetric_test(strict.symmetrized().factors).outcome is Outcome.INCONCLUSIVE
    )
    report(
        "C6 asymmetric test dominates",
        not violations and witness_ok,
        f"{len(s4_sweep)} problems, strictness witness holds",
    )


def test_criterion_07_incomparability_matrix():
    # each case pins the verdicts of every test on its problem lines, the
    # oracle value, and where it matters the size of a descent-cycling class
    names = (
        "bruhat_strictly_stronger",
        "cube_of_1423",
        "descent_cycling_and_root_game_win",
        "class_of_nine",
        "root_game_misses",
        "inherently_inconclusive",
    )
    failing = {}
    for name in names:
        if found := list(refsuite.check_pinned(refsuite.PINNED[name])):
            failing[name] = found
    report(
        "C7 incomparability matrix",
        not failing,
        f"{len(names)} pinned reference cases, failing: {failing}",
    )


def test_criterion_08_code_complement_staircase_s7():
    longest = pc.w0(7)
    stair = tuple(range(6, -1, -1))
    count = 0
    for w in itertools.permutations(range(1, 8)):
        comp = pc.multiply(longest, w)
        total = tuple(a + b for a, b in zip(pc.code(w), pc.code(comp)))
        assert total == stair, w
        count += 1
    report("C8 code complement staircase", count == 5040, f"{count} cases")


def test_criterion_09_certificate_integrity(s4_sweep, s5_sweep):
    total = sum(row.cert_count for row in s4_sweep + s5_sweep)
    bad = [row.factors for row in s4_sweep + s5_sweep if not row.certificates_ok]
    # plus pinned instances, two of them above the 20-row scan cap
    ws = tuple(pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175"))
    verdict = vn.symmetric_test(ws)
    d = pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])
    extra_ok = _replays(verdict.certificate, d, staircase(7))
    one_cell = pc.diagram([(1, 1)], 23, 1)
    alpha = (0, 1) + (0,) * 21
    extra_ok &= _replays(vn.vanishing_certificate(one_cell, alpha), one_cell, alpha)
    big = tuple(pc.parse_permutation(s) for s in RANK_23_VANISHING)
    verdict = vn.symmetric_test(big)
    d = pc.concat_diagrams([pc.rothe_diagram(w) for w in big])
    extra_ok &= verdict.outcome is Outcome.VANISHES and _replays(
        verdict.certificate, d, staircase(23)
    )
    report(
        "C9 certificate integrity",
        not bad and extra_ok and total > 0,
        f"{total} sweep certificates + 3 pinned ones (two at 23 rows) replayed",
    )


def test_criterion_10_byte_identical_runs(tmp_path):
    batch = tmp_path / "golden.txt"
    batch.write_text(
        "sym: 3256147, 2143657, 4632175\n"
        "asym: 4123, 1342 -> 4312\n"
        "sym: 1234, 1234, 4321\n"
        "asym: 231645, 231645 -> 451623\n"
        "sym: 1423, 1423, 1342\n",
        encoding="utf-8",
    )
    cmd = [
        sys.executable,
        "-m",
        "schubvanish",
        str(batch),
        "--stable",
        "--seed=7",
        "--flexible-samples=8",
        "--tests=schubitope,flexible,bruhat,descent_cycling,root_game,oracle",
        "--format=jsonlines",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and first.stdout
    lines = [json.loads(line) for line in first.stdout.decode().splitlines()]
    ok = ok and all(rec["elapsed_ms"] == 0 for rec in lines)
    report(
        "C10 deterministic output",
        bool(ok),
        f"{len(lines)} records byte-identical across runs",
    )
