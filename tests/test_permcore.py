import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubvanish import permcore as pc


def brute_length(w):
    # independent double-loop inversion count
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def brute_rothe_cells(w):
    # direct evaluation of the defining set
    n = len(w)
    winv = pc.inverse(w)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if j < w[i - 1] and i < winv[j - 1]
    }


def test_length_examples():
    assert pc.length((1, 2, 3, 4)) == 0
    assert pc.length((4, 3, 2, 1)) == 6
    w = (2, 1, 5, 4, 3)
    assert brute_length(w) == 4
    assert pc.length(w) == 4


def test_code_examples():
    assert pc.code((4, 3, 1, 2)) == (3, 2, 0, 0)
    assert pc.code((4, 5, 1, 6, 2, 3)) == (3, 3, 0, 2, 0, 0)
    assert pc.code((1, 2, 3, 4)) == (0, 0, 0, 0)


def test_code_sums_to_length():
    for n in range(1, 6):
        for w in pc.all_perms(n):
            assert sum(pc.code(w)) == pc.length(w)


def test_rothe_diagram_examples():
    assert pc.rothe_diagram((1, 2, 3, 4)).cells == frozenset()
    w = (2, 1, 5, 4, 3)
    d = pc.rothe_diagram(w)
    assert d.cells == frozenset({(1, 1), (3, 3), (3, 4), (4, 3)})
    assert d.cells == frozenset(brute_rothe_cells(w))
    assert d.cell_count == 4 == pc.length(w)
    w0 = (4, 3, 2, 1)
    d0 = pc.rothe_diagram(w0)
    assert d0.cells == frozenset(
        {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)}
    )
    assert d0.row_counts() == (3, 2, 1, 0)


def test_rothe_counts_exhaustive():
    for n in range(1, 7):
        for w in pc.all_perms(n):
            d = pc.rothe_diagram(w)
            assert d.cell_count == pc.length(w)
            assert d.row_counts() == pc.code(w)


def test_diagram_columns_sorted_and_bounds():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    assert d.columns == ((1,), (), (3, 4), (3,), ())
    with pytest.raises(ValueError):
        pc.diagram([(0, 1)], 2, 2)
    with pytest.raises(ValueError):
        pc.diagram([(1, 3)], 2, 2)


def test_concat_diagrams():
    empty = pc.diagram([], 5, 5)
    assert pc.concat_diagrams([empty, empty]).cells == frozenset()
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    dd = pc.concat_diagrams([d, d])
    assert dd.cell_count == 8
    assert dd.n_rows == 5 and dd.n_cols == 10
    assert dd.columns == d.columns * 2

    ws = [
        pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175")
    ]
    # the three blocks, cell by cell
    assert pc.rothe_diagram(ws[0]).cells == frozenset(
        {(1, 1), (1, 2), (2, 1), (3, 1), (4, 1), (3, 4), (4, 4)}
    )
    assert pc.rothe_diagram(ws[1]).cells == frozenset({(1, 1), (3, 3), (5, 5)})
    assert pc.rothe_diagram(ws[2]).cells == frozenset(
        {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 5),
         (3, 1), (3, 2), (4, 1), (6, 5)}
    )
    big = pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])
    assert big.cell_count == 21  # = 7 choose 2, the full staircase degree
    assert big.n_rows == 7 and big.n_cols == 21
    assert {(3, 10), (6, 19)} <= big.cells  # offset columns of blocks 2, 3

    with pytest.raises(ValueError):
        pc.concat_diagrams([pc.diagram([], 2, 2), pc.diagram([], 3, 3)])


def brute_bruhat_leq_table(n):
    # transitive closure of the covering relation u -> u t_{ij}, length +1
    perms = pc.all_perms(n)
    index = {w: k for k, w in enumerate(perms)}
    reach = [{k} for k in range(len(perms))]
    by_len = sorted(perms, key=pc.length, reverse=True)
    for w in by_len:
        k = index[w]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                nxt = pc.apply_transposition(w, i, j)
                if pc.length(nxt) == pc.length(w) + 1:
                    reach[k] |= reach[index[nxt]]
    return {
        (u, v): index[v] in reach[index[u]]
        for u in perms
        for v in perms
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_matches_cover_closure(n):
    table = brute_bruhat_leq_table(n)
    for (u, v), expected in table.items():
        assert pc.bruhat_leq(u, v) == expected


def test_bruhat_examples():
    assert not pc.bruhat_leq((1, 3, 4, 2), (2, 4, 1, 3))
    for w in pc.all_perms(4):
        assert pc.bruhat_leq((1, 2, 3, 4), w)
        assert pc.bruhat_leq(w, w)


def test_bruhat_embeds_mixed_sizes():
    assert pc.bruhat_leq((2, 1), (3, 2, 1))
    assert not pc.bruhat_leq((3, 2, 1), (2, 1, 3))


def test_w0_descents_group_ops():
    assert pc.w0(4) == (4, 3, 2, 1)
    assert pc.descents((1, 4, 2, 3)) == (2,)
    assert pc.ascents((1, 4, 2, 3)) == (1, 3)
    w = pc.parse_permutation("4632175")
    prod = pc.multiply(pc.w0(7), w)
    assert sorted(prod) == list(range(1, 8))
    total = tuple(a + b for a, b in zip(pc.code(w), pc.code(prod)))
    assert total == (6, 5, 4, 3, 2, 1, 0)
    assert pc.multiply(w, pc.inverse(w)) == pc.identity(7)
    with pytest.raises(IndexError):
        pc.apply_transposition((1, 2, 3), 0, 2)


def test_code_complement_staircase_small():
    for n in range(1, 6):
        longest = pc.w0(n)
        stair = tuple(range(n - 1, -1, -1))
        for w in pc.all_perms(n):
            comp = pc.multiply(longest, w)
            got = tuple(a + b for a, b in zip(pc.code(w), pc.code(comp)))
            assert got == stair


def test_embed_stability_of_diagrams():
    for n in range(1, 7):
        for w in pc.all_perms(n):
            d = pc.rothe_diagram(w)
            d2 = pc.rothe_diagram(pc.embed(w, n + 1))
            assert d.cells == d2.cells
            assert pc.code(pc.embed(w, n + 1))[:n] == pc.code(w)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_length_matches_brute_force(word):
    w = tuple(word)
    assert pc.length(w) == brute_length(w)


def test_parse_and_format_round_trip():
    for text in ("3256147", "3 2 5 6 1 4 7", "3,2,5,6,1,4,7"):
        assert pc.parse_permutation(text) == (3, 2, 5, 6, 1, 4, 7)
    big = tuple(range(1, 13))
    assert pc.parse_permutation(pc.format_permutation(big)) == big
    assert pc.format_permutation((2, 1, 3)) == "213"


@pytest.mark.parametrize(
    "bad", ["", "1 1 2", "0 1 2", "12x", "3 2", "10", "1021", "\u00b21", "\uff11\uff12", "\uff12 1"]
)
def test_parse_rejects_bad_input(bad):
    # str.isdigit and int() take digits of other scripts; the grammar does not
    match = None if bad.isascii() else "cannot parse permutation"
    with pytest.raises(ValueError, match=match):
        pc.parse_permutation(bad)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        pc.multiply((1, 2), (1, 2, 3))


def test_trim_and_embed():
    assert pc.trim((2, 1, 3, 4)) == (2, 1)
    assert pc.trim((1, 2, 3)) == ()
    assert pc.embed((2, 1), 4) == (2, 1, 3, 4)
    with pytest.raises(ValueError):
        pc.embed((2, 1, 3), 2)


def test_well_posed_degree_rule():
    # no factors: only a target of length 0 is reachable, w0 of S_0 included
    assert pc.well_posed([], None) == ([], ())
    assert pc.well_posed([], (1, 2, 3)) == ([], (1, 2, 3))
    assert pc.well_posed([], (2, 1)) is None
    # no target: w0 of the common rank, of length n(n-1)/2 = 3 in S_3
    assert pc.well_posed([(2, 1), (1, 3, 2), (2, 1)], None) == (
        [(2, 1, 3), (1, 3, 2), (2, 1, 3)],
        (3, 2, 1),
    )
    # a target longer than the factors sets the rank for all of them
    assert pc.well_posed([(2, 1), (1, 3, 2)], (1, 3, 4, 2)) == (
        [(2, 1, 3, 4), (1, 3, 2, 4)],
        (1, 3, 4, 2),
    )
    assert pc.well_posed([(2, 1)], (1, 2, 4, 3)) == ([(2, 1, 3, 4)], (1, 2, 4, 3))
    # lengths off by one either way
    assert pc.well_posed([(2, 1), (2, 1)], None) is None  # 2 != 1
    assert pc.well_posed([(2, 1, 3)], None) is None  # 1 != 3
    assert pc.well_posed([(2, 3, 1)], (3, 2, 1)) is None  # 2 != 3
    assert pc.well_posed([(3, 2, 1)], (3, 1, 2)) is None  # 3 != 2
    assert pc.well_posed([(3, 1, 2)], (2, 3, 1)) == ([(3, 1, 2)], (2, 3, 1))


def test_well_posed_counts_only_the_factors_against_w0(monkeypatch):
    # w0's length is n(n-1)/2; only the factors' inversions are counted
    counted = []
    length = pc.length
    monkeypatch.setattr(pc, "length", lambda w: counted.append(w) or length(w))
    factors = [(2, 1, 3), (1, 3, 2), (2, 1, 3)]
    assert pc.well_posed(factors, None) == (factors, (3, 2, 1))
    assert counted == factors
