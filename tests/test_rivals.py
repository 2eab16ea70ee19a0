import functools
import itertools
import random
import re
from collections import deque

import pytest

from polyref import perm_from_code, right_mult_s
from schubvanish import permcore as pc
from schubvanish import rivals as rv
from schubvanish import schubpoly as sp
from schubvanish.vanishing import Outcome


def perm(text):
    return pc.parse_permutation(text)


def well_posed_triples(n):
    """Every ordered triple of S_n whose lengths sum to n(n-1)/2, in product order."""
    perms = pc.all_perms(n)
    top = n * (n - 1) // 2
    by_length = {}
    for w in perms:
        by_length.setdefault(pc.length(w), []).append(w)
    return [
        (u, v, w)
        for u, v in itertools.product(perms, repeat=2)
        for w in by_length.get(top - pc.length(u) - pc.length(v), ())
    ]


def reference_dc_neighbors(factors):
    """Descent-cycling moves from the factor tuple (u, v, w) of a Triple."""
    u, v, w = factors
    for i in range(1, len(u)):
        du, dv, dw = u[i - 1] > u[i], v[i - 1] > v[i], w[i - 1] > w[i]
        us, vs, ws = (right_mult_s(x, i) for x in (u, v, w))
        if not du and not dv and dw:
            yield from ((us, v, ws), (u, vs, ws))
        elif du and not dv and not dw:
            yield from ((us, v, ws), (us, vs, w))
        elif dv and not du and not dw:
            yield from ((u, vs, ws), (us, vs, w))


def reference_dc_class(t, cap=None):
    """Breadth-first closure of Triple t over factor tuples; None past cap members."""
    seen = {t.factors}
    queue = deque(seen)
    while queue:
        for nxt in reference_dc_neighbors(queue.popleft()):
            if nxt not in seen:
                if cap is not None and len(seen) >= cap:
                    return None
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reference_dc_detail(cls):
    """dc_test's detail string, from factor tuples and sets of ascents."""
    for member in sorted(cls):
        if set.intersection(*(set(pc.ascents(x)) for x in member)):
            words = ",".join(pc.format_permutation(x) for x in member)
            return f"dc-trivial member {words} in a class of {len(cls)}"
    return f"class of {len(cls)}, none dc-trivial"


def reference_dc_classes(triples, cap=None):
    """Each triple's reference class and detail, keyed by every member.

    Keys are the factor tuples of Triples.  Triples whose reference class
    has more than cap members are left out.
    """
    reference = {}
    for factors in triples:
        t = rv.Triple(*factors)
        if t.factors not in reference:
            cls = reference_dc_class(t, cap)
            if cls is not None:
                reference.update(dict.fromkeys(cls, (cls, reference_dc_detail(cls))))
    return reference


def assert_dc_matches_reference(triples, cap=None):
    """dc_class and dc_test agree with the references on each triple.

    Triples whose reference class has more than cap members are skipped.
    Returns the sizes of the distinct classes checked.
    """
    reference = reference_dc_classes(triples, cap)
    for factors in triples:
        t = rv.Triple(*factors)
        if t.factors in reference:
            cls, detail = reference[t.factors]
            assert rv.dc_class(t) == cls, factors
            assert rv.dc_test(t).detail == detail, factors
    return list({id(cls): len(cls) for cls, _ in reference.values()}.values())


@functools.cache
def interleaved_rank_4_and_5_cases():
    """(factors, reference dc_test detail) for rank-5 and rank-4 triples in turn.

    The rank-5 triples are (53241, v, w) for every v, w of total length 2:
    they meet 18 classes, up to the one of 8331 members.  The rank-4 triples
    are sampled.
    """
    perms5 = pc.all_perms(5)
    u = perm("53241")
    rank5 = [(u, v, w) for v in perms5 for w in perms5 if pc.length(v) + pc.length(w) == 2]
    rank4 = random.Random(31).sample(well_posed_triples(4), len(rank5))
    triples = [t for pair in zip(rank5, rank4) for t in pair]
    reference = reference_dc_classes(triples)
    return [(t, reference[rv.Triple(*t).factors][1]) for t in triples]


@pytest.fixture(autouse=True)
def fresh_dc_tables(monkeypatch):
    """Each test starts from empty descent-cycling tables."""
    monkeypatch.setattr(rv, "_rank_tables", {})


def reference_is_doomed(n, tokens):
    """The first overloaded filter in enumeration order, by scanning them all."""
    for filt in rv.upper_order_filters(n):
        if sum(tokens.get(root, 0) for root in filt) > len(filt):
            return True, filt
    return False, None


def test_triple_construction():
    t = rv.Triple((2, 1), (1, 3, 2), (2, 1, 3))
    assert t.n == 3
    assert t.factors == ((2, 1, 3), (1, 3, 2), (2, 1, 3))
    with pytest.raises(ValueError):
        rv.Triple((2, 1, 3), (1, 3, 2), (3, 2, 1))


def test_bruhat_examples():
    verdict = rv.bruhat_vanishing_test((perm("1243"), perm("1342"), perm("3142")))
    assert verdict.outcome is Outcome.VANISHES
    assert "1342" in verdict.detail and "2413" in verdict.detail
    assert (
        rv.bruhat_vanishing_test((perm("1423"),) * 3).outcome
        is Outcome.INCONCLUSIVE
    )
    unit = ((1, 2, 3, 4), (1, 2, 3, 4), (4, 3, 2, 1))
    assert rv.bruhat_vanishing_test(unit).outcome is Outcome.INCONCLUSIVE
    assert sp.intersection_number(unit) == 1
    bad = ((1, 2, 3), (1, 2, 3), (1, 2, 3))
    assert rv.bruhat_vanishing_test(bad).outcome is Outcome.DEGREE_MISMATCH


def test_bruhat_soundness_exhaustive_s3():
    for u, v, w in itertools.product(pc.all_perms(3), repeat=3):
        if pc.length(u) + pc.length(v) + pc.length(w) != 3:
            continue
        if rv.bruhat_vanishing_test((u, v, w)).outcome is Outcome.VANISHES:
            assert sp.intersection_number((u, v, w)) == 0


def test_dc_trivial_examples():
    assert rv.dc_trivial((perm("1423"), perm("1423"), perm("1342")))
    assert not rv.dc_trivial((perm("3256147"), perm("2143657"), perm("4632175")))
    # common ascent impossible when one factor is the longest element
    assert not rv.dc_trivial(((1, 2, 3, 4), (1, 2, 3, 4), (4, 3, 2, 1)))


def test_dc_class_of_nine():
    t = rv.Triple(perm("3216547"), perm("3216547"), perm("4261573"))
    cls = rv.dc_class(t)
    words = {
        tuple(pc.format_permutation(x) for x in m) for m in cls
    }
    assert words == {
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
    assert t.factors in cls
    assert rv.dc_test(t).outcome is Outcome.INCONCLUSIVE


def test_dc_class_from_any_member_is_the_same():
    t = rv.Triple(perm("3216547"), perm("3216547"), perm("4261573"))
    cls = rv.dc_class(t)
    for member in cls:
        assert rv.dc_class(rv.Triple(*member)) == cls


def test_dc_moves_are_reversible():
    rng = random.Random(2)
    perms5 = pc.all_perms(5)
    tried = 0
    while tried < 25:
        u, v = rng.choice(perms5), rng.choice(perms5)
        rest = 10 - pc.length(u) - pc.length(v)
        candidates = [w for w in perms5 if pc.length(w) == rest]
        if not candidates:
            continue
        t = rv.Triple(u, v, rng.choice(candidates))
        tried += 1
        for neighbor in reference_dc_neighbors(t.factors):
            assert rv.Triple(*neighbor).factors == neighbor  # a move stays well posed
            assert t.factors in set(reference_dc_neighbors(neighbor))


def test_dc_class_without_trivial_member_in_s6():
    u = perm("231645")
    w = pc.multiply(pc.w0(6), perm("451623"))
    t = rv.Triple(u, u, w)
    cls = rv.dc_class(t)
    assert not any(rv.dc_trivial(m) for m in cls)
    assert rv.dc_test(t).outcome is Outcome.INCONCLUSIVE
    assert sp.intersection_number(t.factors) == 0


def test_dc_test_vanishing_and_cap(monkeypatch):
    t = rv.Triple(perm("1423"), perm("1423"), perm("1342"))
    verdict = rv.dc_test(t)
    assert verdict.outcome is Outcome.VANISHES
    assert "dc-trivial member" in verdict.detail
    monkeypatch.setattr(rv, "DC_CLASS_CAP", 3)
    with pytest.raises(rv.ClassSizeExceeded):
        rv.dc_class(rv.Triple(perm("3216547"), perm("3216547"), perm("4261573")))


@pytest.mark.parametrize(
    "words",
    [("3216547", "3216547", "4261573"), ("2143", "1342", "1423")],
)
def test_dc_cap_boundary(words, monkeypatch):
    # the cap counts members: a class of exactly DC_CLASS_CAP members is
    # returned whole, by a fresh walk and from the table alike
    assert rv.DC_CLASS_CAP == 10**6
    t = rv.Triple(*(perm(w) for w in words))
    cls = rv.dc_class(t)
    verdict = rv.dc_test(t)
    assert len(cls) > 1
    for tables in ({}, rv._rank_tables):  # a fresh walk, then the remembered class
        monkeypatch.setattr(rv, "_rank_tables", tables)
        monkeypatch.setattr(rv, "DC_CLASS_CAP", len(cls) - 1)
        with pytest.raises(rv.ClassSizeExceeded):
            rv.dc_class(t)
        with pytest.raises(rv.ClassSizeExceeded):
            rv.dc_test(t)
        monkeypatch.setattr(rv, "DC_CLASS_CAP", len(cls))
        assert rv.dc_class(t) == cls
        assert rv.dc_test(t) == verdict


def test_root_game_initial_positions():
    assert rv.root_game_initial(((1, 2, 3), (1, 2, 3))) == {}
    tokens = rv.root_game_initial((perm("1423"), perm("1423"), perm("1342")))
    assert tokens == {(2, 3): 2, (2, 4): 3, (3, 4): 1}
    assert sum(tokens.values()) == 6
    # words of another rank give the tokens of their embeddings
    assert rv.root_game_initial([(3, 2, 1), (1, 2, 3, 4)]) == rv.root_game_initial(
        [(3, 2, 1, 4), (1, 2, 3, 4)]
    ) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    ws7 = (perm("3216547"), perm("3216547"), perm("1652473"))
    tokens7 = rv.root_game_initial(ws7)
    assert sum(tokens7.values()) == sum(pc.length(w) for w in ws7) == 21
    assert tokens7 == {
        (1, 2): 2, (1, 3): 2,
        (2, 3): 3, (2, 4): 1, (2, 5): 1, (2, 7): 1,
        (3, 4): 1, (3, 5): 1, (3, 7): 1,
        (4, 5): 2, (4, 6): 2,
        (5, 6): 2, (5, 7): 1,
        (6, 7): 1,
    }


def test_upper_order_filters_counts_and_brute_force():
    assert list(rv.upper_order_filters(0)) == [frozenset()]
    assert list(rv.upper_order_filters(1)) == [frozenset()]
    catalan = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}
    for n, expected in catalan.items():
        assert sum(1 for _ in rv.upper_order_filters(n)) == expected
    # brute force check for n = 3: up-closed subsets of the three roots
    roots = [(1, 2), (1, 3), (2, 3)]
    up_closed = []
    for bits in itertools.product((0, 1), repeat=3):
        chosen = {r for r, b in zip(roots, bits) if b}
        ok = all(
            (a2, b2) in chosen
            for (a, b) in chosen
            for (a2, b2) in roots
            if a2 <= a and b <= b2
        )
        if ok:
            up_closed.append(frozenset(chosen))
    assert set(rv.upper_order_filters(3)) == set(up_closed)
    assert len(up_closed) == 5
    # is_doomed's witness is the first overloaded filter in this order
    for n in range(7):
        cuts = [
            tuple(min((b for a2, b in filt if a2 == a), default=n + 1) for a in range(1, n))
            for filt in rv.upper_order_filters(n)
        ]
        assert cuts == sorted(set(cuts))


def test_filters_are_up_closed():
    for filt in rv.upper_order_filters(5):
        for (a, b) in filt:
            if a > 1:
                assert (a - 1, b) in filt
            if b < 5:
                assert (a, b + 1) in filt


def test_is_doomed_examples():
    assert rv.is_doomed(3, rv.root_game_initial(((1, 2, 3), (1, 2, 3)))) == (
        False,
        None,
    )
    tokens = rv.root_game_initial((perm("1423"), perm("1423"), perm("1342")))
    doomed, witness = rv.is_doomed(4, tokens)
    assert doomed
    assert sum(tokens.get(r, 0) for r in witness) > len(witness)
    tokens7 = rv.root_game_initial(
        (perm("3216547"), perm("3216547"), perm("1652473"))
    )
    assert rv.is_doomed(7, tokens7) == (False, None)
    # no rank cap: an empty board overloads no filter, while two tokens on
    # the top root alpha_{1,13} overload the one-root filter {alpha_{1,13}}
    assert rv.is_doomed(13, {}) == (False, None)
    assert rv.is_doomed(13, {(1, 13): 2}) == (
        True,
        frozenset({(1, 13)}),
    )


def random_perm_of_length(rng, n, ell):
    code = [0] * n
    for _ in range(ell):
        code[rng.choice([i for i in range(n) if code[i] < n - 1 - i])] += 1
    return perm_from_code(code)


def test_is_doomed_matches_filter_enumeration():
    # well-posed triples and boards of 0/1 tokens with up to three 2s give
    # both verdicts at every rank up to 9
    rng = random.Random(11)
    for n in range(10):
        top = n * (n - 1) // 2
        roots = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
        for _ in range(30):
            if rng.random() < 0.5:
                first = rng.randint(0, top)
                second = rng.randint(0, top - first)
                lengths = (first, second, top - first - second)
                tokens = rv.root_game_initial(
                    [random_perm_of_length(rng, n, ell) for ell in lengths]
                )
            else:
                tokens = {r: rng.choice((0, 1)) for r in roots}
                for r in rng.sample(roots, min(len(roots), rng.randint(0, 3))):
                    tokens[r] = 2
            assert rv.is_doomed(n, tokens) == reference_is_doomed(n, tokens), (n, tokens)


def test_root_game_test_verdicts():
    assert (
        rv.root_game_test((perm("1423"), perm("1423"), perm("1342"))).outcome
        is Outcome.VANISHES
    )
    assert (
        rv.root_game_test(
            (perm("3216547"), perm("3216547"), perm("1652473"))
        ).outcome
        is Outcome.INCONCLUSIVE
    )
    assert (
        rv.root_game_test(((1, 2, 3), (1, 3, 2))).outcome
        is Outcome.DEGREE_MISMATCH
    )


@pytest.mark.parametrize("n", [13, 20])
def test_root_game_verdicts_beyond_rank_12(n):
    top = n * (n - 1) // 2
    # one token on every root: each filter holds exactly its size
    unit = (pc.w0(n), pc.identity(n), pc.identity(n))
    assert rv.root_game_test(unit).outcome is Outcome.INCONCLUSIVE
    # two n-cycles put two tokens on the top root alpha_{1,n}
    cycle = tuple(range(2, n + 1)) + (1,)
    rest = random_perm_of_length(random.Random(n), n, top - 2 * (n - 1))
    verdict = rv.root_game_test((cycle, cycle, rest))
    assert verdict.outcome is Outcome.VANISHES
    tokens = rv.root_game_initial((cycle, cycle, rest))
    doomed, witness = rv.is_doomed(n, tokens)
    assert doomed and sum(tokens.get(r, 0) for r in witness) > len(witness)
    for a, b in witness:
        assert a == 1 or (a - 1, b) in witness
        assert b == n or (a, b + 1) in witness


def test_dc_matches_reference_on_all_of_s4():
    assert_dc_matches_reference(well_posed_triples(4))


def test_dc_matches_reference_sampled_s5():
    rng = random.Random(17)
    perms5 = pc.all_perms(5)
    triples = []
    while len(triples) < 25:
        u, v = rng.choice(perms5), rng.choice(perms5)
        rest = [w for w in perms5 if pc.length(w) == 10 - pc.length(u) - pc.length(v)]
        if rest:
            triples.append((u, v, rng.choice(rest)))
    assert_dc_matches_reference(triples)


def test_dc_matches_reference_sampled_s6():
    # S6 classes run past 10^5 members; the Triple-per-neighbour reference
    # is kept to those of at most 2000
    rng = random.Random(23)
    perms6 = pc.all_perms(6)
    triples = []
    while len(triples) < 40:
        u, v = rng.choice(perms6), rng.choice(perms6)
        rest = [w for w in perms6 if pc.length(w) == 15 - pc.length(u) - pc.length(v)]
        if rest:
            triples.append((u, v, rng.choice(rest)))
    sizes = assert_dc_matches_reference(triples, cap=2000)
    assert len(sizes) >= 20 and max(sizes) > 300


def test_rival_soundness_sampled_s5():
    rng = random.Random(13)
    perms5 = pc.all_perms(5)
    by_len = {}
    for w in perms5:
        by_len.setdefault(pc.length(w), []).append(w)
    checked = 0
    while checked < 60:
        u, v = rng.choice(perms5), rng.choice(perms5)
        rest = 10 - pc.length(u) - pc.length(v)
        if rest not in by_len:
            continue
        w = rng.choice(by_len[rest])
        checked += 1
        triple = (u, v, w)
        oracle = sp.intersection_number(triple)
        if rv.bruhat_vanishing_test(triple).outcome is Outcome.VANISHES:
            assert oracle == 0
        if rv.root_game_test(triple).outcome is Outcome.VANISHES:
            assert oracle == 0
        if rv.dc_test(rv.Triple(*triple)).outcome is Outcome.VANISHES:
            assert oracle == 0


def test_dc_test_does_not_depend_on_order(monkeypatch):
    # one key space shared across ranks would hand a rank-4 triple the
    # verdict of a rank-5 class
    cases = interleaved_rank_4_and_5_cases()
    assert "class of 8331, none dc-trivial" in {detail for _, detail in cases}
    for factors, detail in cases:
        assert rv.dc_test(rv.Triple(*factors)).detail == detail, factors
    walked = []
    walk = rv._dc_walk
    monkeypatch.setattr(rv, "_dc_walk", lambda *args: walked.append(args[1]) or walk(*args))
    for factors, detail in reversed(cases):
        assert rv.dc_test(rv.Triple(*factors)).detail == detail, factors
    assert walked == []  # every class was remembered on the first pass
    # the counter sees walks: a fresh table walks each class once more
    monkeypatch.setattr(rv, "_rank_tables", {})
    for factors, detail in cases:
        assert rv.dc_test(rv.Triple(*factors)).detail == detail, factors
    sizes = {int(re.search(r"class of (\d+)", detail).group(1)) for _, detail in cases}
    assert len(sizes) <= len(walked) <= len(cases)


def test_dc_cap_holds_on_a_remembered_class(monkeypatch):
    factors, detail = next(c for c in interleaved_rank_4_and_5_cases() if "class of 220" in c[1])
    t = rv.Triple(*factors)
    default = rv.DC_CLASS_CAP
    monkeypatch.setattr(rv, "DC_CLASS_CAP", 219)
    with pytest.raises(rv.ClassSizeExceeded):
        rv.dc_test(t)
    # the overflow left nothing behind: the full closure still runs
    monkeypatch.setattr(rv, "DC_CLASS_CAP", default)
    assert rv.dc_test(t).detail == detail
    other = rv.Triple(*next(m for m in rv.dc_class(t) if m != factors))
    for member in (t, other):
        monkeypatch.setattr(rv, "DC_CLASS_CAP", 219)
        with pytest.raises(rv.ClassSizeExceeded, match="exceeds 219"):
            rv.dc_test(member)
        monkeypatch.setattr(rv, "DC_CLASS_CAP", 220)
        assert rv.dc_test(member).detail == detail


def test_dc_tables_are_rebuilt_past_their_bound(monkeypatch):
    monkeypatch.setattr(rv, "DC_TABLE_BOUND", 50)
    cases = interleaved_rank_4_and_5_cases()
    tables = []
    for factors, detail in cases + cases[::-1]:
        assert rv.dc_test(rv.Triple(*factors)).detail == detail, factors
        tables.append(rv._rank_tables[len(factors[0])])
    assert len({id(table) for table in tables}) > 2
    # a class of more nodes than the bound is never remembered
    remembered = [cls for table in tables for cls in table.classes.values()]
    assert remembered and all(len(cls.transports) <= 50 for cls in remembered)


def test_dc_matches_reference_on_all_of_s4_and_s5_shuffled():
    # one table serves both ranks and every ordering of each class, met in
    # a seeded shuffled order
    triples = well_posed_triples(4) + well_posed_triples(5)
    assert len(triples) == 1115 + 74199
    random.Random(41).shuffle(triples)
    reference = reference_dc_classes(triples)
    for factors in triples:
        t = rv.Triple(*factors)
        assert rv.dc_test(t).detail == reference[t.factors][1], factors


@pytest.mark.parametrize("size", [8331, 1327, 220])
def test_dc_all_six_factor_orders_agree(size, monkeypatch):
    factors = next(f for f, d in interleaved_rank_4_and_5_cases() if f"class of {size}" in d)
    members = rv.dc_class(rv.Triple(*factors))
    assert len(members) == size
    orders = list(itertools.permutations(range(3)))
    shared = [rv.dc_test(rv.Triple(*(factors[i] for i in p))) for p in orders]
    for p, verdict in zip(orders, shared):
        # a fresh table walks the class from this ordering
        monkeypatch.setattr(rv, "_rank_tables", {})
        t = rv.Triple(*(factors[i] for i in p))
        assert rv.dc_test(t) == verdict, p
        assert rv.dc_class(t) == {tuple(m[i] for i in p) for m in members}, p
        assert verdict.outcome is shared[0].outcome, p
        assert re.search(r"class of (\d+)", verdict.detail).group(1) == str(size), p


def test_dc_counted_size_matches_the_members(monkeypatch):
    # the walk counts members by the stabilizers of the nodes it inserts;
    # the (u, u, u) triples and those with two equal factors, in every order
    # of their factors, give nodes of stabilizer order 6 and 2
    triples = well_posed_triples(3) + well_posed_triples(4)
    triples += [factors for factors, _ in interleaved_rank_4_and_5_cases()]
    reference = {}
    orders = set()
    for factors in triples:
        monkeypatch.setattr(rv, "_rank_tables", {})  # a walk from this triple
        t = rv.Triple(*factors)
        cls = rv._dc_lookup(t)[1]
        if t.factors not in reference:
            members = reference_dc_class(t)
            reference.update(dict.fromkeys(members, len(members)))
        assert cls.size == len(rv.dc_class(t)) == reference[t.factors], factors
        orders.update(rv._stabilizer(node).bit_count() for node in cls.transports)
    assert orders == {1, 2, 6}
    assert any(u == v == w for u, v, w in triples)


@pytest.mark.parametrize("size", [8331, 1327, 220])
def test_dc_walk_does_not_depend_on_its_start(size):
    # each walk numbers the permutations in a table of its own, so nodes are
    # compared as the sorted words they stand for
    factors = next(f for f, d in interleaved_rank_4_and_5_cases() if f"class of {size}" in d)
    members = rv.dc_class(rv.Triple(*factors))
    on_node = {}
    for member in sorted(members):
        on_node.setdefault(tuple(sorted(member)), []).append(member)
    rng = random.Random(size)
    walks = set()
    for key in rng.sample(sorted(on_node), 20):
        table = rv._RankTable(len(factors[0]))
        node, rho = rv._sort3(*map(table.number, rng.choice(on_node[key])))
        cls = rv._dc_walk(table, node, rho)

        def words(node):
            return tuple(sorted(table.perms[k] for k in node))

        walks.add((
            frozenset(map(words, cls.transports)),
            cls.group,
            cls.size,
            tuple(sorted(map(words, cls.trivial))),
        ))
        assert set(rv._members(table, cls, cls.group, cls.transports)) == members, key
    assert len(walks) == 1
    nodes, _, counted, _ = walks.pop()
    assert counted == size and nodes == set(on_node)


def test_dc_node_keys_stay_exact_past_2_17(monkeypatch):
    # a key packed into fields of 17 bits would merge (0, 1, 2^17) with
    # (0, 2, 0), since 1 << 17 | 2^17 == 2 << 17
    big = 1 << 17
    assert rv._sort3(0, 1, big)[0] != rv._sort3(0, 2, 0)[0]
    for triple in itertools.permutations((big, big + 1, 1)):
        assert rv._sort3(*triple)[0] == (1, big, big + 1)
    # a table whose numbers all start past 2^17 gives the same verdicts
    monkeypatch.setattr(rv, "DC_TABLE_BOUND", 1 << 20)
    table = rv._rank_tables[5] = rv._RankTable(5)
    table.perms.extend([None] * big)
    table.descents.extend([0] * big)
    table.rows.extend([[]] * big)
    cases = [c for c in interleaved_rank_4_and_5_cases() if len(c[0][0]) == 5]
    for factors, detail in cases:
        assert rv.dc_test(rv.Triple(*factors)).detail == detail, factors
    assert rv._rank_tables[5] is table
    assert min(min(node) for node in table.classes) >= big
