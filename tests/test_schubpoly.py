import itertools
import math
import random

import pytest

import polyref as pr
from polyref import expand_in_schubert_basis, perm_from_code, verify_snp
from schubvanish import permcore as pc
from schubvanish import schubpoly as sp
from schubvanish import vanishing as vn

S_21543 = {
    (3, 1, 0, 0, 0): 1, (3, 0, 1, 0, 0): 1, (3, 0, 0, 1, 0): 1,
    (2, 2, 0, 0, 0): 1, (2, 0, 2, 0, 0): 1, (2, 1, 1, 0, 0): 2,
    (2, 1, 0, 1, 0): 1, (2, 0, 1, 1, 0): 1, (1, 1, 2, 0, 0): 1,
    (1, 2, 1, 0, 0): 1, (1, 2, 0, 1, 0): 1, (1, 0, 2, 1, 0): 1,
    (1, 1, 1, 1, 0): 1,
}

S_1423_SQUARED = {
    (0, 4, 0, 0): 1, (1, 3, 0, 0): 2, (2, 2, 0, 0): 3,
    (3, 1, 0, 0): 2, (4, 0, 0, 0): 1,
}

S_1423_CUBED = {
    (0, 6, 0, 0): 1, (1, 5, 0, 0): 3, (2, 4, 0, 0): 6, (3, 3, 0, 0): 7,
    (4, 2, 0, 0): 6, (5, 1, 0, 0): 3, (6, 0, 0, 0): 1,
}

S_1243_TIMES_1342 = {
    (0, 1, 2, 0): 1, (1, 0, 2, 0): 1, (1, 1, 1, 0): 3, (0, 2, 1, 0): 1,
    (1, 2, 0, 0): 1, (2, 0, 1, 0): 1, (2, 1, 0, 0): 1,
}

S_1423_TIMES_1342 = {
    (0, 3, 1, 0): 1, (1, 2, 1, 0): 2, (2, 1, 1, 0): 2, (3, 0, 1, 0): 1,
    (1, 3, 0, 0): 1, (2, 2, 0, 0): 1, (3, 1, 0, 0): 1,
}


def test_divided_difference_examples():
    assert sp.divided_difference({(1, 0): 1}, 1) == {(0, 0): 1}
    assert sp.divided_difference({(1, 1): 1}, 1) == {}
    assert sp.divided_difference({(2, 0): 1}, 1) == {(1, 0): 1, (0, 1): 1}


def test_divided_difference_squares_to_zero():
    rng = random.Random(5)
    for _ in range(20):
        f = {
            tuple(rng.randrange(4) for _ in range(4)): rng.randrange(-5, 6)
            for _ in range(6)
        }
        f = {e: c for e, c in f.items() if c}
        for i in (1, 2, 3):
            once = sp.divided_difference(f, i)
            assert sp.divided_difference(once, i) == {}


def test_schubert_polynomial_pinned_values():
    assert pr.schubert_polynomial((2, 1, 5, 4, 3)) == S_21543
    assert pr.schubert_polynomial((4, 5, 1, 6, 2, 3)) == {
        (3, 3, 0, 2, 0, 0): 1, (3, 3, 1, 1, 0, 0): 1, (3, 3, 2, 0, 0, 0): 1,
    }
    assert pr.schubert_polynomial((1, 2, 3, 4)) == {(0, 0, 0, 0): 1}
    assert pr.schubert_polynomial((1, 4, 2, 3)) == {
        (2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): 1,
    }


def test_products_pinned_values():
    s1423 = pr.schubert_polynomial((1, 4, 2, 3))
    square = pr.poly_mul(s1423, s1423)
    assert square == S_1423_SQUARED
    cube = pr.poly_mul(square, s1423)
    assert cube == S_1423_CUBED
    assert (3, 2, 1, 0) not in cube
    prod = pr.poly_mul(pr.schubert_polynomial((1, 2, 4, 3)), pr.schubert_polynomial((1, 3, 4, 2)))
    assert prod == S_1243_TIMES_1342
    prod = pr.poly_mul(pr.schubert_polynomial((1, 4, 2, 3)), pr.schubert_polynomial((1, 3, 4, 2)))
    assert prod == S_1423_TIMES_1342
    assert pr.schubert_polynomial((4, 1, 3, 2)) == {
        (3, 0, 1, 0): 1, (3, 1, 0, 0): 1,
    }
    f = pr.schubert_polynomial((3, 1, 4, 2))
    assert pr.poly_mul(f, pr.poly_one(4)) == f


def _schubert_by_last_ascent(w, memo):
    w = pc.trim(w)
    if w in memo:
        return memo[w]
    m = len(w)
    if not w:
        return {(): 1}
    if w == pc.w0(m):
        poly = {tuple(range(m - 1, -1, -1)): 1}
    else:
        i = pc.ascents(w)[-1]
        parent = _schubert_by_last_ascent(pr.right_mult_s(w, i), memo)
        poly = sp.divided_difference(pr.pad(parent, m), i)
    memo[w] = poly
    return poly


def test_braid_consistency_of_recursion_choices():
    memo = {}
    for n in (2, 3, 4, 5):
        for w in pc.all_perms(n):
            alt = pr.pad(_schubert_by_last_ascent(w, memo), n)
            assert alt == pr.schubert_polynomial(w, n), w


def test_stability_under_embedding():
    for n in (2, 3, 4, 5):
        for w in pc.all_perms(n):
            bigger = pr.schubert_polynomial(pc.embed(w, n + 1), n + 1)
            assert bigger == pr.pad(pr.schubert_polynomial(w, n), n + 1)


def test_positivity_and_code_leading_term():
    for n in range(1, 6):
        for w in pc.all_perms(n):
            f = pr.schubert_polynomial(w, n)
            assert all(c > 0 for c in f.values()), w
            assert f[pc.code(w)] == 1, w
            assert min(f) == pc.code(w), w
    table = {w: pr.schubert_polynomial(w, 6) for w in pc.all_perms(6)}
    assert len(table) == 720
    for w, f in table.items():
        assert all(c > 0 for c in f.values()), w
        assert f[pc.code(w)] == 1, w


def test_memo_hands_out_copies(monkeypatch):
    monkeypatch.setattr(pr, "_schub_cache", {})
    first = pr.schubert_polynomial((2, 1, 5, 4, 3))
    first[(9, 9, 9, 9, 9)] = 1
    first.pop((1, 1, 1, 1, 0))
    assert pr.schubert_polynomial((2, 1, 5, 4, 3)) == S_21543
    assert pr.schubert_polynomial((2, 1, 5, 4, 3), 6) == pr.pad(S_21543, 6)


def test_one_divided_difference_per_memo_entry(monkeypatch):
    monkeypatch.setattr(pr, "_schub_cache", {})
    calls = []
    plain = pr.divided_difference

    def counted(f, i):
        calls.append(i)
        return plain(f, i)

    monkeypatch.setattr(pr, "divided_difference", counted)
    for w in pc.all_perms(6):
        pr.schubert_polynomial(w)
    longest = [w for w in pr._schub_cache if w == pc.w0(len(w))]
    assert len(calls) == len(pr._schub_cache) - len(longest) == 714


def test_intersection_number_examples():
    assert sp.intersection_number([(3, 2, 1), (1, 2, 3), (1, 2, 3)]) == 1
    ws = [pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175")]
    assert sp.intersection_number(ws) == 0
    # degree guard: lengths summing short give zero outright
    assert sp.intersection_number([(1, 2, 3), (1, 2, 3), (1, 2, 3)]) == 0


def test_staircase_coefficient_bounds_intersection_number():
    # the plain monomial coefficient can strictly exceed the true number
    ws = [(4, 1, 2, 3), (1, 3, 4, 2), (1, 2, 4, 3)]
    assert pr.staircase_coefficient(ws) == 1
    assert sp.intersection_number(ws) == 0
    assert pr.staircase_coefficient([(1, 4, 2, 3)] * 3) == 0
    # the Schubitope of the concatenation is the Newton polytope of the
    # product, so the symmetric test vanishes exactly when the coefficient
    # of the staircase monomial is zero
    well_posed = 0
    for ws in itertools.product(pc.all_perms(4), repeat=3):
        if sum(map(pc.length, ws)) != 6:
            continue
        well_posed += 1
        coefficient = pr.staircase_coefficient(ws)
        assert sp.intersection_number(ws) <= coefficient, ws
        vanishes = vn.symmetric_test(ws).outcome is vn.Outcome.VANISHES
        assert vanishes == (coefficient == 0), ws
    assert well_posed == 1115


def test_asymmetric_coefficient_examples():
    assert sp.asymmetric_coefficient([(4, 1, 2, 3), (1, 3, 4, 2)], (4, 3, 1, 2)) == 0
    u = pc.parse_permutation("231645")
    assert sp.asymmetric_coefficient([u, u], pc.parse_permutation("451623")) == 0
    w = (3, 1, 4, 2)
    assert sp.asymmetric_coefficient([w, (1, 2, 3, 4)], w) == 1
    # degree mismatch gives zero
    assert sp.asymmetric_coefficient([(2, 1, 3)], (3, 2, 1)) == 0


def expansion_agrees(factors, n):
    """Check the oracle on every target y of S_n of the factors' degree, as an
    asymmetric problem and, with w0 * y appended, as a symmetric one, against
    the Schubert-basis expansion of the product of the factors' polynomials.
    Returns the numbers of targets checked and of nonzero coefficients."""
    product = pr.poly_one(n)
    for u in factors:
        product = pr.poly_mul(product, pr.schubert_polynomial(u, n))
    exp = expand_in_schubert_basis(product)
    assert all(c > 0 for c in exp.values())
    targets = [y for y in pc.all_perms(n) if pc.length(y) == sum(map(pc.length, factors))]
    for y in targets:
        want = exp.get(pc.trim(y), 0)
        assert sp.asymmetric_coefficient(factors, y) == want, (factors, y)
        assert sp.intersection_number([*factors, pc.multiply(pc.w0(n), y)]) == want, (factors, y)
    return len(targets), sum(exp.get(pc.trim(y), 0) > 0 for y in targets)


def draw_factors(rng, ranks, count):
    """count random factors, each from S_k for a k drawn from ranks, whose
    lengths sum to at most that of the longest element of the largest S_k."""
    n = max(ranks)
    while True:
        factors = [rng.choice(pc.all_perms(rng.choice(ranks))) for _ in range(count)]
        if sum(map(pc.length, factors)) <= n * (n - 1) // 2:
            return factors


def test_oracle_matches_expansion_in_schubert_basis():
    # all of S_4: every pair of factors and every target of their degree
    perms = pc.all_perms(4)
    checked, nonzero = map(sum, zip(*(expansion_agrees([u, v], 4) for u in perms for v in perms)))
    assert (checked, nonzero) == (1115, 303)
    # seeded samples: pairs in S_5 and S_6, three factors and a target (so
    # four-factor symmetric problems) in S_4 and S_5, and factors of mixed ranks
    rng = random.Random(3)
    for ranks, factors, draws in (
        ((5,), 2, 60), ((6,), 2, 12), ((4,), 3, 25), ((5,), 3, 25), ((2, 3, 4, 5), 2, 40)
    ):
        drawn = [draw_factors(rng, ranks, factors) for _ in range(draws)]
        assert sum(expansion_agrees(ws, max(ranks))[1] for ws in drawn) > 0, ranks
    # S_21 * S_132 = S_312 + S_231, and the degrees of 21, 132, 321 do not match
    assert sp.asymmetric_coefficient([(2, 1), (1, 3, 2)], (3, 1, 2)) == 1
    assert sp.intersection_number([(2, 1), (1, 3, 2), (2, 1)]) == 1
    assert sp.intersection_number([(2, 1), (1, 3, 2), (3, 2, 1)]) == 0


def test_oracle_steps_are_counted_across_the_factors(monkeypatch):
    # S_1324 S_2314 S_2134 S_2143 = 1: two products of 4 and 6 steps of weight 4
    ws = [pc.parse_permutation(w) for w in ("1324", "2314", "2134", "2143")]
    spent = []
    times = sp._times

    def counted(u, terms, below, budget):
        before = budget[0]
        found = times(u, terms, below, budget)
        spent.append(before - budget[0])
        return found

    monkeypatch.setattr(sp, "_times", counted)
    assert sp.intersection_number(ws) == 1
    assert spent == [4, 6]
    monkeypatch.setattr(sp, "ORACLE_STEP_CAP", 4 * 10)
    assert sp.intersection_number(ws) == 1
    # one step short of the two products together, though each fits alone
    monkeypatch.setattr(sp, "ORACLE_STEP_CAP", 4 * 10 - 1)
    with pytest.raises(sp.StepsExceeded, match="^oracle work exceeds 39 steps$"):
        sp.intersection_number(ws)


def test_perm_from_code_round_trips():
    assert perm_from_code((3, 2, 0, 0)) == (4, 3, 1, 2)
    for w in pc.all_perms(5):
        decoded = perm_from_code(pc.code(w))
        assert pc.trim(decoded) == pc.trim(w)
    assert perm_from_code(()) == ()
    assert perm_from_code((0, 2)) == (1, 4, 2, 3)


def test_verify_snp_examples():
    assert verify_snp((2, 1, 5, 4, 3))
    assert verify_snp((1, 2, 3))
    for w in pc.all_perms(4):
        assert verify_snp(w), w


def test_compositions_counts():
    assert set(pr.compositions(0, 0)) == {()}
    assert list(pr.compositions(2, 1)) == [(2,)]
    comps = list(pr.compositions(4, 3))
    assert len(comps) == math.comb(6, 2)
    assert all(sum(c) == 4 for c in comps)
    assert len(set(comps)) == len(comps)


def test_pad_guards():
    assert pr.pad({(1, 0): 2}, 3) == {(1, 0, 0): 2}
    with pytest.raises(ValueError):
        pr.pad({(1, 2): 1}, 1)
