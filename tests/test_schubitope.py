import itertools
import json
from fractions import Fraction

import pytest

from fillingref import edmonds_karp_cut, enumerate_tab, is_valid_filling
from polyref import compositions, is_submodular
from schubvanish import cli
from schubvanish import permcore as pc
from schubvanish import schubitope as sb


def seven_letter_diagram():
    ws = [pc.parse_permutation(s) for s in ("3256147", "2143657", "4632175")]
    return pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])


def test_column_word_cases():
    empty = pc.diagram([], 3, 3)
    assert sb.column_word(empty, 1, {1}) == ("(",)
    two = pc.diagram([(1, 1), (2, 1)], 3, 3)
    assert sb.column_word(two, 1, set()) == (")", ")")
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    assert sb.column_word(d, 3, {2, 3}) == ("(", "*", ")")
    with pytest.raises(IndexError):
        sb.column_word(d, 6, set())


def test_matched_pairs_and_stars():
    assert sb.matched_pairs_and_stars(("(",)) == 0
    assert sb.matched_pairs_and_stars(("*", "*")) == 2
    assert sb.matched_pairs_and_stars(("(", "*", ")")) == 2
    assert sb.matched_pairs_and_stars((")", "(")) == 0
    assert sb.matched_pairs_and_stars(("(", "(", ")", ")")) == 2


def test_theta_examples():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    assert sb.theta(d, [1]) == 3
    assert sb.theta(d, [2, 3, 4]) == 3
    assert sb.theta(d, []) == 0
    assert sb.theta(d, [1, 2, 3, 4, 5]) == d.cell_count == 4


def bracket_words_from_cells(d, rows_in_s):
    """Each column's word read off the cell set, cell by cell."""
    return [
        [("*" if (r, c) in d.cells else "(") if r in rows_in_s else ")"
         for r in range(1, d.n_rows + 1) if r in rows_in_s or (r, c) in d.cells]
        for c in range(1, d.n_cols + 1)
    ]


def test_theta_matches_bracket_words_built_from_cells():
    for w in pc.all_perms(4):
        d = pc.rothe_diagram(w)
        for rows in itertools.chain.from_iterable(
            itertools.combinations(range(1, 5), k) for k in range(5)
        ):
            words = bracket_words_from_cells(d, rows)
            assert [list(sb.column_word(d, c, rows)) for c in range(1, 5)] == words
            direct = 0
            for word in words:
                opened = 0
                for sym in word:
                    if sym == "(":
                        opened += 1
                    elif sym == "*":
                        direct += 1
                    elif opened:
                        opened -= 1
                        direct += 1
            assert sb.theta(d, rows) == direct, (w, rows)


def test_theta_additive_over_concatenation():
    perms = pc.all_perms(3)
    for u, v in itertools.product(perms, perms):
        du, dv = pc.rothe_diagram(u), pc.rothe_diagram(v)
        dd = pc.concat_diagrams([du, dv])
        for k in range(4):
            for rows in itertools.combinations(range(1, 4), k):
                assert sb.theta(dd, rows) == sb.theta(du, rows) + sb.theta(dv, rows)


def test_membership_examples():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    ok, cert = sb.schubitope_membership(d, (3, 1, 0, 0, 0))
    assert ok and cert is None
    ok, cert = sb.schubitope_membership(d, (4, 0, 0, 0, 0))
    assert not ok
    assert cert == sb.InfeasibleSubset((1,), 4, 3)
    assert cert.validate(d, (4, 0, 0, 0, 0))
    empty = pc.diagram([], 5, 5)
    ok, cert = sb.schubitope_membership(empty, (0, 0, 0, 0, 0))
    assert ok and cert is None
    # above the 20-row cap of the reference the flow still decides
    wide = pc.diagram([(1, 1)], 23, 1)
    ok, cert = sb.schubitope_membership(wide, (0, 1) + (0,) * 21)
    assert not ok and cert == sb.InfeasibleSubset((2,), 1, 0)
    assert sb.schubitope_membership(wide, (1,) + (0,) * 22) == (True, None)


def test_membership_degree_edge_cases():
    # a failed degree equality alone yields no subset witness, on either side
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    assert d.cell_count == 4
    assert sb.schubitope_membership(d, (1, 1, 0, 0, 0)) == (False, None)
    assert sb.schubitope_membership(d, (3, 1, 1, 0, 0)) == (False, None)
    # also when a proper subset inequality fails too: {1} gives 5 > 3
    assert sb.schubitope_membership(d, (5, 0, 0, 0, 0)) == (False, None)
    empty = pc.diagram([], 5, 5)
    assert sb.schubitope_membership(empty, (0, 0, 1, 0, 0)) == (False, None)


def test_membership_guards():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    with pytest.raises(ValueError):
        sb.schubitope_membership(d, (1, 2, 1))
    with pytest.raises(ValueError):
        sb.schubitope_membership(d, (-1, 2, 1, 1, 1))
    wide = pc.diagram([], 23, 1)
    with pytest.raises(ValueError):
        sb.SchubitopeInequalities(wide)


def test_enumerate_tab_basics():
    empty = pc.diagram([], 3, 3)
    fillings = enumerate_tab(empty, (0, 0, 0))
    assert len(fillings) == 1 and fillings[0].labels == ()
    single = pc.diagram([(1, 1)], 1, 1)
    fillings = enumerate_tab(single, (1,))
    assert len(fillings) == 1
    assert dict(fillings[0].labels)[(1, 1)] == 1
    assert enumerate_tab(single, (0,)) == []


def test_enumerate_tab_seven_letter_emptiness():
    d = seven_letter_diagram()
    assert enumerate_tab(d, (6, 5, 4, 3, 2, 1, 0)) == []


def test_lp_feasible_trivial_and_degree_guard():
    # the max-flow decides the relaxation LP, whose polytope is integral
    empty = pc.diagram([], 3, 2)
    res = sb.filling_or_cut(empty, (0, 0, 0))
    assert isinstance(res, sb.Filling) and res.labels == ()
    with pytest.raises(sb.DegreeMismatchError):
        sb.filling_or_cut(empty, (1, 0, 0))
    with pytest.raises(ValueError):
        sb.filling_or_cut(empty, (0, 0))
    with pytest.raises(ValueError):
        sb.filling_or_cut(empty, (1, -1, 0))


def test_lp_feasible_member():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    res = sb.filling_or_cut(d, (3, 1, 0, 0, 0))
    assert isinstance(res, sb.Filling)
    assert is_valid_filling(res, (3, 1, 0, 0, 0))
    assert res in enumerate_tab(d, (3, 1, 0, 0, 0))
    # a label past the end of the content vector is invalid, not an error
    low = sb.Filling.from_dict(pc.diagram([(3, 1)], 3, 1), {(3, 1): 3})
    assert not is_valid_filling(low, (0, 1))


def test_flow_seven_letter_cut():
    d = seven_letter_diagram()
    alpha = (6, 5, 4, 3, 2, 1, 0)
    res = sb.filling_or_cut(d, alpha)
    assert isinstance(res, sb.InfeasibleSubset)
    assert res.validate(d, alpha)
    # the cut is the unique inclusion-minimal most violated subset
    ineqs = sb.SchubitopeInequalities(d)
    excess = {
        rows: sum(alpha[i - 1] for i in rows) - ineqs.table[sum(1 << (i - 1) for i in rows)]
        for k in range(8)
        for rows in itertools.combinations(range(1, 8), k)
    }
    best = max(excess.values())
    assert excess[res.rows] == best
    assert all(set(res.rows) <= set(rows) for rows, v in excess.items() if v == best)


def assert_flow_agrees(d, alpha, ineqs):
    """The flow agrees with the subset scan and returns checkable evidence."""
    res = sb.filling_or_cut(d, alpha)
    member = ineqs.contains(alpha)
    if isinstance(res, sb.Filling):
        assert member and is_valid_filling(res, alpha), (d, alpha)
    else:
        assert not member and res.validate(d, alpha), (d, alpha, res)
    return member


def test_equivalence_triangle_s3():
    # filling enumeration, subset inequalities and the flow agree everywhere
    for w in pc.all_perms(3):
        d = pc.rothe_diagram(w)
        ineqs = sb.SchubitopeInequalities(d)
        for alpha in compositions(pc.length(w), 3):
            has_tab = bool(enumerate_tab(d, alpha))
            assert has_tab == assert_flow_agrees(d, alpha, ineqs), (w, alpha)


def test_feasible_points_admit_integral_fillings():
    # every filling the flow returns is one of the enumerated fillings, and
    # the flow finds one whenever the enumeration does
    for w in pc.all_perms(4):
        d = pc.rothe_diagram(w)
        for alpha in compositions(pc.length(w), 4):
            res = sb.filling_or_cut(d, alpha)
            fillings = enumerate_tab(d, alpha)
            if isinstance(res, sb.Filling):
                assert res in fillings, (w, alpha)
            else:
                assert not fillings, (w, alpha)


def test_schubitope_gpermutahedron_total():
    d = seven_letter_diagram()
    gp = sb.schubitope_gpermutahedron(d)
    assert gp.z.values[-1] == d.cell_count
    assert is_submodular(gp.z)


def test_theta_is_bounded_by_the_cell_count():
    # theta_D(S) <= #D is why the reference needs no sign check on alpha
    import random

    rng = random.Random(29)
    perms = pc.all_perms(4)
    diagrams = [pc.rothe_diagram(w) for w in perms] + [
        pc.concat_diagrams([pc.rothe_diagram(rng.choice(perms)) for _ in range(2)])
        for _ in range(30)
    ]
    for d in diagrams:
        ineqs = sb.SchubitopeInequalities(d)
        assert max(ineqs.table) == ineqs.table[-1] == d.cell_count, d
        for i in range(4):
            alpha = [0] * 4
            alpha[i], alpha[(i + 1) % 4] = -1, d.cell_count + 1
            assert not ineqs.contains(alpha), (d, alpha)


def test_equivalence_triangle_sampled_rank5():
    import random

    rng = random.Random(17)
    perms = pc.all_perms(5)
    for _ in range(50):
        w = rng.choice(perms)
        d = pc.rothe_diagram(w)
        ineqs = sb.SchubitopeInequalities(d)
        alpha = rng.choice(list(compositions(pc.length(w), 5)))
        has_tab = bool(enumerate_tab(d, alpha))
        assert has_tab == assert_flow_agrees(d, alpha, ineqs), (w, alpha)


def test_lp_matches_scan_on_random_concatenations():
    import random

    rng = random.Random(23)
    perms = pc.all_perms(4)
    for _ in range(150):
        u, v = rng.choice(perms), rng.choice(perms)
        d = pc.concat_diagrams([pc.rothe_diagram(u), pc.rothe_diagram(v)])
        ineqs = sb.SchubitopeInequalities(d)
        alpha = rng.choice(
            list(compositions(pc.length(u) + pc.length(v), 4))
        )
        assert_flow_agrees(d, alpha, ineqs)


def test_certificate_validation_rejects_tampering():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    alpha = (4, 0, 0, 0, 0)
    good = sb.InfeasibleSubset((1,), 4, 3)
    assert good.validate(d, alpha)
    assert not sb.InfeasibleSubset((1,), 4, 2).validate(d, alpha)  # wrong rhs
    assert not sb.InfeasibleSubset((1,), 3, 3).validate(d, alpha)  # wrong lhs
    assert not sb.InfeasibleSubset((2,), 4, 3).validate(d, alpha)  # wrong rows
    assert not sb.InfeasibleSubset((1, 1), 8, 3).validate(d, alpha)  # dupes
    assert not sb.InfeasibleSubset((9,), 4, 3).validate(d, alpha)  # range


def replay_with_exactlp(d, alpha, cert):
    """Replay the multipliers on the relaxation system built independently."""
    import exactlp

    n = d.n_rows
    var = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for j in range(1, d.n_cols + 1) for i in range(1, n + 1))}
    rows = [exactlp.LinearRow(tuple((var[(i, j)], 1) for j in range(1, d.n_cols + 1)),
                              exactlp.EQ, alpha[i - 1]) for i in range(1, n + 1)]
    y = list(cert.content)
    weight = dict(cert.prefix)
    for j in range(1, d.n_cols + 1):
        for t, s in enumerate(d.columns[j - 1], start=1):
            rows.append(exactlp.LinearRow(tuple((var[(i, j)], 1) for i in range(1, s + 1)),
                                          exactlp.GE, t))
            y.append(weight.get((s, j), 0))
    return exactlp.verify_infeasibility_certificate(len(var), [1] * len(var), rows, y)


def rebuilt_from_json(cert):
    """The certificate rebuilt from its JSON record with Fraction multipliers."""
    data = json.loads(json.dumps(cli._serialize_certificate(cert)))
    return sb.FarkasCertificate(
        tuple(Fraction(x) for x in data["content"]),
        tuple(((s, j), Fraction(m)) for s, j, m in data["prefix"]),
        tuple(data["columns"]),
    )


def test_lp_feasible_farkas_multipliers_replay():
    import random

    rng = random.Random(31)
    perms = pc.all_perms(4)
    infeasible = 0
    for _ in range(150):
        u, v = rng.choice(perms), rng.choice(perms)
        d = pc.concat_diagrams([pc.rothe_diagram(u), pc.rothe_diagram(v)])
        alpha = rng.choice(list(compositions(d.cell_count, 4)))
        res = sb.lp_feasible(d, alpha)
        if isinstance(res, sb.Filling):
            assert is_valid_filling(res, alpha)
            continue
        infeasible += 1
        assert isinstance(res, sb.FarkasCertificate)
        multipliers = [*res.content, *(mult for _, mult in res.prefix)]
        assert all(type(m) is int for m in multipliers), res
        assert res.validate(d, alpha), (d, alpha, res)
        assert replay_with_exactlp(d, alpha, res)
        rebuilt = rebuilt_from_json(res)
        assert rebuilt == res and rebuilt.validate(d, alpha)
        # the row-by-row filling is a point, so no certificate may refute it
        assert not res.validate(d, d.row_counts())
        dropped = next(j for j, rows in enumerate(d.columns, start=1) if rows)
        kept = tuple(j for j in res.columns if j != dropped)
        assert not res._replace(columns=kept).validate(d, alpha)
        assert not res._replace(content=res.content[1:]).validate(d, alpha)
        if res.prefix:
            (cell, mult), *rest = res.prefix
            assert not res._replace(prefix=((cell, -mult), *rest)).validate(d, alpha)
            assert not res._replace(prefix=(((99, cell[1]), mult), *rest)).validate(d, alpha)
    assert infeasible > 20


def test_seven_letter_farkas_json():
    d = seven_letter_diagram()
    alpha = (6, 5, 4, 3, 2, 1, 0)
    cert = sb.lp_feasible(d, alpha)
    assert json.dumps(cli._serialize_certificate(cert), sort_keys=True) == (
        '{"columns": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21], '
        '"content": ["-1", "-1", "-1", "-1", "0", "0", "-1"], "kind": "farkas", '
        '"prefix": [[4, 1, "1"], [1, 2, "1"], [4, 4, "1"], [1, 8, "1"], [3, 10, "1"], '
        '[4, 15, "1"], [3, 16, "1"], [2, 17, "1"], [2, 19, "1"]]}'
    )
    assert rebuilt_from_json(cert).validate(d, alpha)


def random_permutation(n, length, rng):
    """A permutation of 1..n with the given length, by a random reduced word."""
    w = list(range(1, n + 1))
    for _ in range(length):
        i = rng.choice([i for i in range(n - 1) if w[i] < w[i + 1]])
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def random_triple(n, rng):
    """Three factors of S_n whose lengths sum to n(n-1)/2."""
    total = n * (n - 1) // 2
    cuts = sorted(rng.randint(0, total) for _ in range(2))
    lengths = (cuts[0], cuts[1] - cuts[0], total - cuts[1])
    return [random_permutation(n, k, rng) for k in lengths]


def test_earliest_deadline_start_is_a_partial_filling():
    import random

    rng = random.Random(41)
    for n in range(4, 9):
        for _ in range(12):
            if rng.random() < 0.5:
                ws = random_triple(n, rng)
                alpha = tuple(range(n - 1, -1, -1))
            else:
                ws = [rng.choice(pc.all_perms(n)) for _ in range(rng.randint(1, 3))]
                alpha = [0] * n
                for _ in range(sum(map(pc.length, ws))):
                    alpha[rng.randrange(n)] += 1
            d = pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])
            columns = [rows for rows in d.columns if rows]
            caps = [sb.label_caps(rows) for rows in columns]
            owner, where, used = sb._earliest_deadline_start(columns, caps, alpha)
            placed = [0] * (n + 1)
            for rows, c_owner, c_where in zip(columns, owner, where):
                labels = [c_owner[r] for r in rows if c_owner[r]]
                assert labels == sorted(set(labels)), (ws, alpha, c_owner)
                for r in rows:
                    i = c_owner[r]
                    assert i <= r, (ws, alpha, c_owner)
                    if i:
                        assert c_where[i] == r
                        placed[i] += 1
                assert sum(map(bool, c_where)) == len(labels)
            assert placed == used, (ws, alpha)
            assert all(used[i] <= alpha[i - 1] for i in range(1, n + 1)), (ws, alpha)


def test_flow_matches_edmonds_karp_at_large_rank():
    # beyond the 20-row subset scan, an independent max-flow is the reference
    import random

    rng = random.Random(43)
    for n, count in ((12, 10), (16, 8), (24, 4), (32, 3)):
        for k in range(count):
            if k % 2:
                target = random_permutation(n, rng.randint(2, n * (n - 1) // 2), rng)
                first = rng.randint(0, pc.length(target))
                ws = [random_permutation(n, first, rng),
                      random_permutation(n, pc.length(target) - first, rng)]
                alpha = pc.code(target)
            else:
                ws = random_triple(n, rng)
                alpha = tuple(range(n - 1, -1, -1))
            d = pc.concat_diagrams([pc.rothe_diagram(w) for w in ws])
            res = sb.filling_or_cut(d, alpha)
            flow, reachable = edmonds_karp_cut(d, alpha)
            if isinstance(res, sb.Filling):
                assert flow == d.cell_count and is_valid_filling(res, alpha), (ws, alpha)
            else:
                assert flow < d.cell_count, (ws, alpha)
                assert res.rows == reachable and res.validate(d, alpha), (ws, alpha, res)
