"""Exact answers at any rank: the tests against Monk's rule.

A Monk triple (s_r, u, w0 x) has intersection number 0 or 1 at every rank
(see monkrule), so past the oracle's reach it still tells a sound test from
an unsound one: no test may say VANISHES on a value-1 triple.  Each triple
runs through the batch evaluator as one symmetric line and as three
asymmetric lines, one per factor as the target, and every subset
certificate replays with the benchmark generator's own Rothe columns and
column theta, which share no code with the package.  The generator's random
symmetric triples at rank 32 run the same way; their intersection numbers
are unknown, so only their certificates are checked.  The oracle, which
works in the Schubert basis, must give the Monk value at ranks 5 to 96.
"""

import random
import sys
from pathlib import Path

import pytest

from monkrule import monk_triple
from schubvanish import cli, schubpoly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from problemgen import _column_theta, _rothe_columns, format_permutation, symmetric_triple  # noqa: E402

SYMMETRIC_TESTS = ("schubitope", "bruhat", "root_game")


def code(w):
    return tuple(sum(1 for v in w[i + 1:] if v < w[i]) for i in range(len(w)))


def problems(ws):
    """(line, factors, target): the symmetric line, whose target is w0, then
    the asymmetric line with each factor in turn as the target."""
    n = len(ws[0])
    joined = lambda factors: ", ".join(map(format_permutation, factors))
    found = [(f"sym: {joined(ws)}", ws, tuple(range(n, 0, -1)))]
    for i, w in enumerate(ws):
        rest, target = ws[:i] + ws[i + 1:], tuple(n + 1 - v for v in w)
        found.append((f"asym: {joined(rest)} -> {format_permutation(target)}", rest, target))
    return found


def replays(cert, factors, target):
    rows = cert["rows"]
    assert len(set(rows)) == len(rows) and all(1 <= r <= len(target) for r in rows)
    mask = sum(1 << (r - 1) for r in rows)
    lhs = sum(code(target)[r - 1] for r in rows)
    rhs = sum(_column_theta(c, mask) for w in factors for c in _rothe_columns(w))
    return (lhs, rhs) == (cert["lhs"], cert["rhs"]) and lhs > rhs


def run_and_replay(ws):
    """The records of every line of problems(ws), after replaying each
    subset certificate among them, and the number replayed."""
    (sym, *asym) = problems(ws)
    records, status = cli.run_batch([sym[0]], cli.Options(tests=SYMMETRIC_TESTS, stable=True))
    more, more_status = cli.run_batch([line for line, _, _ in asym], cli.Options(stable=True))
    assert status == more_status == 0
    replayed = 0
    for (line, factors, target), record in zip([sym, *asym], records + more):
        verdicts, certificates = record["verdicts"], record.get("certificates", {})
        assert len(verdicts) == (3 if line.startswith("sym") else 1), record
        for key, verdict in verdicts.items():
            # a Schubitope VANISHES carries its certificate; no other test gives one
            vanishes = key.startswith("schubitope") and verdict == "VANISHES"
            assert (key in certificates) == vanishes, record
        for cert in certificates.values():
            assert cert["kind"] == "subset", record
            assert replays(cert, factors, target), (line, record)
            replayed += 1
    return records + more, replayed


@pytest.mark.parametrize("n, count", [(8, 40), (16, 40), (32, 32), (64, 20)])
def test_no_test_vanishes_on_a_monk_triple_of_value_1(n, count):
    rng = random.Random(1000 + n)
    values = {0: 0, 1: 0}
    replayed = 0
    for _ in range(count):
        ws, value = monk_triple(n, rng)
        values[value] += 1
        records, found = run_and_replay(ws)
        replayed += found
        if value == 1:
            for record in records:
                assert "VANISHES" not in record["verdicts"].values(), record
    # both values occur, and some zero is caught, so the checks are not vacuous
    assert values[0] and values[1] and replayed, (values, replayed)


def test_certificates_of_random_rank_32_triples_replay():
    # rank 32 is past the 20-row reference scan
    rng = random.Random(32)
    replayed = sum(run_and_replay(symmetric_triple(32, rng))[1] for _ in range(10))
    assert replayed


# oracle draws per rank, fewer where a triple takes milliseconds; rank 96
# must stay within the oracle's step cap
ORACLE_DRAWS = {5: 100, 6: 100, 8: 40, 16: 40, 32: 20, 64: 10, 96: 5}


@pytest.mark.parametrize("n", list(ORACLE_DRAWS))
def test_monk_values_match_the_oracle(n):
    rng = random.Random(n)
    values = set()
    for _ in range(ORACLE_DRAWS[n]):
        ws, value = monk_triple(n, rng)
        assert schubpoly.intersection_number(ws) == value, ws
        values.add(value)
    assert values == {0, 1}
