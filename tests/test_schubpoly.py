import itertools
import math
import random

import pytest

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
    assert sp.schubert_polynomial((2, 1, 5, 4, 3)) == S_21543
    assert sp.schubert_polynomial((4, 5, 1, 6, 2, 3)) == {
        (3, 3, 0, 2, 0, 0): 1, (3, 3, 1, 1, 0, 0): 1, (3, 3, 2, 0, 0, 0): 1,
    }
    assert sp.schubert_polynomial((1, 2, 3, 4)) == {(0, 0, 0, 0): 1}
    assert sp.schubert_polynomial((1, 4, 2, 3)) == {
        (2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): 1,
    }


def test_products_pinned_values():
    s1423 = sp.schubert_polynomial((1, 4, 2, 3))
    square = sp.poly_mul(s1423, s1423)
    assert square == S_1423_SQUARED
    cube = sp.poly_mul(square, s1423)
    assert cube == S_1423_CUBED
    assert sp.coefficient(cube, (3, 2, 1, 0)) == 0
    prod = sp.poly_mul(
        sp.schubert_polynomial((1, 2, 4, 3)), sp.schubert_polynomial((1, 3, 4, 2))
    )
    assert prod == S_1243_TIMES_1342
    prod = sp.poly_mul(
        sp.schubert_polynomial((1, 4, 2, 3)), sp.schubert_polynomial((1, 3, 4, 2))
    )
    assert prod == S_1423_TIMES_1342
    assert sp.schubert_polynomial((4, 1, 3, 2)) == {
        (3, 0, 1, 0): 1, (3, 1, 0, 0): 1,
    }
    f = sp.schubert_polynomial((3, 1, 4, 2))
    assert sp.poly_mul(f, sp.poly_one(4)) == f


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
        parent = _schubert_by_last_ascent(pc.right_mult_s(w, i), memo)
        poly = sp.divided_difference(sp.pad(parent, m), i)
    memo[w] = poly
    return poly


def test_braid_consistency_of_recursion_choices():
    memo = {}
    for n in (2, 3, 4, 5):
        for w in pc.all_perms(n):
            alt = sp.pad(_schubert_by_last_ascent(w, memo), n)
            assert alt == sp.schubert_polynomial(w, n), w


def test_stability_under_embedding():
    for n in (2, 3, 4, 5):
        for w in pc.all_perms(n):
            bigger = sp.schubert_polynomial(pc.embed(w, n + 1), n + 1)
            assert bigger == sp.pad(sp.schubert_polynomial(w, n), n + 1)


def test_positivity_and_code_leading_term():
    for n in range(1, 6):
        for w in pc.all_perms(n):
            f = sp.schubert_polynomial(w, n)
            assert all(c > 0 for c in f.values()), w
            assert f[pc.code(w)] == 1, w
            assert min(f) == pc.code(w), w
    table = {w: sp.schubert_polynomial(w, 6) for w in pc.all_perms(6)}
    assert len(table) == 720
    for w, f in table.items():
        assert all(c > 0 for c in f.values()), w
        assert f[pc.code(w)] == 1, w


def test_memo_hands_out_copies(monkeypatch):
    monkeypatch.setattr(sp, "_schub_cache", {})
    first = sp.schubert_polynomial((2, 1, 5, 4, 3))
    first[(9, 9, 9, 9, 9)] = 1
    first.pop((1, 1, 1, 1, 0))
    assert sp.schubert_polynomial((2, 1, 5, 4, 3)) == S_21543
    assert sp.schubert_polynomial((2, 1, 5, 4, 3), 6) == sp.pad(S_21543, 6)


def test_one_divided_difference_per_memo_entry(monkeypatch):
    monkeypatch.setattr(sp, "_schub_cache", {})
    calls = []
    plain = sp.divided_difference

    def counted(f, i):
        calls.append(i)
        return plain(f, i)

    monkeypatch.setattr(sp, "divided_difference", counted)
    for w in pc.all_perms(6):
        sp.schubert_polynomial(w)
    longest = [w for w in sp._schub_cache if w == pc.w0(len(w))]
    assert len(calls) == len(sp._schub_cache) - len(longest) == 714


def test_intersection_number_examples():
    assert sp.intersection_number([(3, 2, 1), (1, 2, 3), (1, 2, 3)]) == 1
    assert sp.intersection_number([(1, 4, 2, 3)] * 3) == 0
    ws = [pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175")]
    assert sp.intersection_number(ws) == 0
    # degree guard: lengths summing short give zero outright
    assert sp.intersection_number([(1, 2, 3), (1, 2, 3), (1, 2, 3)]) == 0


def test_staircase_coefficient_bounds_intersection_number():
    # the plain monomial coefficient can strictly exceed the true number
    ws = [(4, 1, 2, 3), (1, 3, 4, 2), (1, 2, 4, 3)]
    assert sp.staircase_coefficient(ws) == 1
    assert sp.intersection_number(ws) == 0
    assert sp.staircase_coefficient([(1, 4, 2, 3)] * 3) == 0
    # the Schubitope of the concatenation is the Newton polytope of the
    # product, so the symmetric test vanishes exactly when the coefficient
    # of the staircase monomial is zero
    well_posed = 0
    for ws in itertools.product(pc.all_perms(4), repeat=3):
        if sum(map(pc.length, ws)) != 6:
            continue
        well_posed += 1
        coefficient = sp.staircase_coefficient(ws)
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


def test_duality_relation_exhaustive_s3():
    longest = pc.w0(3)
    perms = pc.all_perms(3)
    for u, v, y in itertools.product(perms, perms, perms):
        if pc.length(u) + pc.length(v) != pc.length(y):
            continue
        direct = sp.asymmetric_coefficient([u, v], y)
        appended = sp.intersection_number([u, v, pc.multiply(longest, y)])
        assert direct == appended, (u, v, y)


def test_contraction_matches_expansion_s4_sample():
    rng = random.Random(3)
    perms = pc.all_perms(4)
    for _ in range(40):
        u, v = rng.choice(perms), rng.choice(perms)
        f = sp.poly_mul(
            sp.schubert_polynomial(u, 4), sp.schubert_polynomial(v, 4)
        )
        exp = expand_in_schubert_basis(f)
        assert all(c > 0 for c in exp.values())
        deg = pc.length(u) + pc.length(v)
        for y in perms:
            if pc.length(y) == deg:
                assert sp.contraction_coefficient(f, y) == exp.get(pc.trim(y), 0)


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
    assert set(sp.compositions(0, 0)) == {()}
    assert list(sp.compositions(2, 1)) == [(2,)]
    comps = list(sp.compositions(4, 3))
    assert len(comps) == math.comb(6, 2)
    assert all(sum(c) == 4 for c in comps)
    assert len(set(comps)) == len(comps)


def test_pad_guards():
    assert sp.pad({(1, 0): 2}, 3) == {(1, 0, 0): 2}
    with pytest.raises(ValueError):
        sp.pad({(1, 2): 1}, 1)
