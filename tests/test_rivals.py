import functools
import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest

import dcreplay
from polyref import perm_from_code, right_mult_s
from schubvanish import cli
from schubvanish import permcore as pc
from schubvanish import rivals as rv
from schubvanish import schubpoly as sp
from schubvanish.vanishing import Outcome

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import problemgen  # noqa: E402


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


def has_common_ascent(member):
    """True when the words of member share an ascent."""
    return bool(set.intersection(*(set(pc.ascents(x)) for x in member)))


def reference_dc_detail(cls):
    """dc_test's note on a class with no dc-trivial member; None when it has one."""
    if any(has_common_ascent(member) for member in cls):
        return None
    return f"class of {len(cls)}, none dc-trivial"


def reference_dc_distances(cls):
    """Per member, the least number of moves to a member with a common ascent.

    A breadth-first search over factor tuples from all those members at
    once: moves are reversible, so a member's distance from them is its
    distance to them.  Empty when the class has no such member.
    """
    distances = {member: 0 for member in cls if has_common_ascent(member)}
    queue = deque(distances)
    while queue:
        member = queue.popleft()
        for nxt in reference_dc_neighbors(member):
            if nxt not in distances:
                distances[nxt] = distances[member] + 1
                queue.append(nxt)
    return distances


def reference_dc_classes(triples, cap=None):
    """Each triple's reference class, distances and detail, keyed by every member.

    Keys are the factor tuples of Triples.  Triples whose reference class
    has more than cap members are left out.
    """
    reference = {}
    for factors in triples:
        t = rv.Triple(*factors)
        if t.factors not in reference:
            cls = reference_dc_class(t, cap)
            if cls is not None:
                entry = cls, reference_dc_distances(cls), reference_dc_detail(cls)
                reference.update(dict.fromkeys(cls, entry))
    return reference


def assert_dc_note(factors, detail, reference):
    """detail is a right dc_test note on factors, given their reference.

    reference is the class, distances and detail of factors, as
    reference_dc_classes gives them.  A note on a class with a dc-trivial
    member must replay from factors, in as few moves as the reference's;
    any other note must equal reference_dc_detail.
    """
    _, distances, expected = reference
    if distances:
        k = dcreplay.replay(factors, detail)
        assert k == distances[rv.Triple(*factors).factors], (factors, detail)
    else:
        assert detail == expected, factors


def assert_dc_matches_reference(triples, cap=None):
    """dc_class and dc_test agree with the references on each triple.

    Triples whose reference class has more than cap members are skipped.
    Returns the sizes of the distinct classes checked.
    """
    reference = reference_dc_classes(triples, cap)
    for factors in triples:
        t = rv.Triple(*factors)
        if t.factors in reference:
            assert rv.dc_class(t) == reference[t.factors][0], factors
            assert_dc_note(factors, rv.dc_test(t).detail, reference[t.factors])
    return list({id(cls): len(cls) for cls, _, _ in reference.values()}.values())


@functools.cache
def interleaved_rank_4_and_5_cases():
    """(factors, reference class, distances and detail) for rank-5 and rank-4 triples in turn.

    The rank-5 triples are (53241, v, w) for every v, w of total length 2:
    they meet 18 classes, up to the one of 8331 members, which has no
    dc-trivial member.  The rank-4 triples are sampled.
    """
    perms5 = pc.all_perms(5)
    u = perm("53241")
    rank5 = [(u, v, w) for v in perms5 for w in perms5 if pc.length(v) + pc.length(w) == 2]
    rank4 = random.Random(31).sample(well_posed_triples(4), len(rank5))
    triples = [t for pair in zip(rank5, rank4) for t in pair]
    reference = reference_dc_classes(triples)
    return [(t, reference[rv.Triple(*t).factors]) for t in triples]


def case_of_size(size):
    """The first interleaved case whose class has size members."""
    return next(case for case in interleaved_rank_4_and_5_cases() if len(case[1][0]) == size)


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
    # returned whole, by a fresh walk and from the table alike; dc_test
    # walks a class with no dc-trivial member whole and raises past the cap,
    # and stops at the first dc-trivial member of the other long before it
    assert rv.DC_CLASS_CAP == 10**6
    t = rv.Triple(*(perm(w) for w in words))
    cls = rv.dc_class(t)
    verdict = rv.dc_test(t)
    assert len(cls) > 1
    assert (verdict.outcome is Outcome.VANISHES) == any(map(rv.dc_trivial, cls))
    for tables in ({}, rv._rank_tables):  # a fresh walk, then the remembered class
        monkeypatch.setattr(rv, "_rank_tables", tables)
        monkeypatch.setattr(rv, "DC_CLASS_CAP", len(cls) - 1)
        with pytest.raises(rv.ClassSizeExceeded):
            rv.dc_class(t)
        if verdict.outcome is Outcome.VANISHES:
            assert rv.dc_test(t) == verdict
        else:
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
    # a note depends on its triple alone: it is the same with a fresh table,
    # after a shuffled prefix of other triples (which numbers the
    # permutations in another order), and after dc_class walked the class;
    # one key space shared across ranks would hand a rank-4 triple the note
    # of a rank-5 class
    cases = interleaved_rank_4_and_5_cases()
    assert "class of 8331, none dc-trivial" in {detail for _, (_, _, detail) in cases}
    fresh = {}
    for factors, reference in cases:
        monkeypatch.setattr(rv, "_rank_tables", {})
        fresh[factors] = rv.dc_test(rv.Triple(*factors)).detail
        assert_dc_note(factors, fresh[factors], reference)
    others = random.Random(3).sample(well_posed_triples(5), 200)
    for seed in range(3):
        monkeypatch.setattr(rv, "_rank_tables", {})
        rng = random.Random(seed)
        for factors in rng.sample(others, 50 * seed):
            rv.dc_test(rv.Triple(*factors))
        for factors, _ in rng.sample(cases, len(cases)):
            assert rv.dc_test(rv.Triple(*factors)).detail == fresh[factors], (seed, factors)
    # tables that number every permutation first, in a shuffled order
    for seed in range(4):
        rng = random.Random(seed)
        for n in (4, 5):
            table = rv._rank_tables[n] = rv._RankTable(n)
            perms = pc.all_perms(n)
            for x in rng.sample(perms, len(perms)):
                table.number(x)
        for factors, _ in cases:
            assert rv.dc_test(rv.Triple(*factors)).detail == fresh[factors], (seed, factors)
    monkeypatch.setattr(rv, "_rank_tables", {})
    for factors, _ in cases:
        t = rv.Triple(*factors)
        rv.dc_class(t)
        assert rv.dc_test(t).detail == fresh[factors], factors
    # only the classes with no dc-trivial member are remembered, and then
    # walked once: the counter sees walks
    walked = []
    walk = rv._dc_walk
    monkeypatch.setattr(rv, "_dc_walk", lambda *args: walked.append(args[1]) or walk(*args))
    for factors, _ in cases:
        assert rv.dc_test(rv.Triple(*factors)).detail == fresh[factors], factors
    assert len(walked) == sum(1 for _, (_, distances, _) in cases if distances)


def test_dc_cap_holds_on_a_remembered_class(monkeypatch):
    factors, (_, _, detail) = case_of_size(303)
    assert detail == "class of 303, none dc-trivial"
    t = rv.Triple(*factors)
    default = rv.DC_CLASS_CAP
    monkeypatch.setattr(rv, "DC_CLASS_CAP", 302)
    with pytest.raises(rv.ClassSizeExceeded):
        rv.dc_test(t)
    # the overflow left nothing behind: the full closure still runs
    monkeypatch.setattr(rv, "DC_CLASS_CAP", default)
    assert rv.dc_test(t).detail == detail
    other = rv.Triple(*next(m for m in rv.dc_class(t) if m != factors))
    for member in (t, other):
        monkeypatch.setattr(rv, "DC_CLASS_CAP", 302)
        with pytest.raises(rv.ClassSizeExceeded, match="exceeds 302"):
            rv.dc_test(member)
        monkeypatch.setattr(rv, "DC_CLASS_CAP", 303)
        assert rv.dc_test(member).detail == detail


def test_dc_tables_are_rebuilt_past_their_bound(monkeypatch):
    # the class of 303 members has 55 nodes, and that of 8331 has 1417
    monkeypatch.setattr(rv, "DC_TABLE_BOUND", 60)
    cases = interleaved_rank_4_and_5_cases()
    tables = []
    for factors, reference in cases + cases[::-1]:
        assert_dc_note(factors, rv.dc_test(rv.Triple(*factors)).detail, reference)
        tables.append(rv._rank_tables[len(factors[0])])
    assert len({id(table) for table in tables}) > 2
    # a class of more nodes than the bound is never remembered
    remembered = [cls for table in tables for cls in table.classes.values()]
    assert remembered and all(len(cls.transports) <= 60 for cls in remembered)


def test_dc_matches_reference_on_all_of_s4_and_s5_shuffled():
    # one table serves both ranks and every ordering of each class, met in
    # a seeded shuffled order
    # a seeded shuffled order; every note replays from the triple alone,
    # in the least number of moves to a dc-trivial member
    triples = well_posed_triples(4) + well_posed_triples(5)
    assert len(triples) == 1115 + 74199
    random.Random(41).shuffle(triples)
    reference = reference_dc_classes(triples)
    notes = {}
    for factors in triples:
        t = rv.Triple(*factors)
        notes[factors] = rv.dc_test(t).detail
        assert_dc_note(factors, notes[factors], reference[t.factors])
    assert max(max(distances.values(), default=0) for _, distances, _ in reference.values()) > 2
    # the notes with moves again, in the reverse order, from tables that
    # number the permutations in reverse: a walk that expanded a member's
    # moves in the order of the numbers would print other paths
    for n in (4, 5):
        table = rv._rank_tables[n] = rv._RankTable(n)
        for x in reversed(pc.all_perms(n)):
            table.number(x)
    for factors in reversed(triples):
        if "after 0 moves" not in notes[factors]:
            assert rv.dc_test(rv.Triple(*factors)).detail == notes[factors], factors


@pytest.mark.parametrize("size", [8331, 1327, 220])
def test_dc_all_six_factor_orders_agree(size, monkeypatch):
    # the six orders of a triple's factors give classes of one size, and
    # either all have a dc-trivial member, as many moves away, or none has
    factors, (members, distances, _) = case_of_size(size)
    orders = list(itertools.permutations(range(3)))
    shared = [rv.dc_test(rv.Triple(*(factors[i] for i in p))) for p in orders]
    for p, verdict in zip(orders, shared):
        reordered = tuple(factors[i] for i in p)
        if distances:
            assert dcreplay.replay(reordered, verdict.detail) == distances[factors], p
        else:
            assert verdict.detail == f"class of {size}, none dc-trivial", p
        # a fresh table walks the class from this ordering
        monkeypatch.setattr(rv, "_rank_tables", {})
        t = rv.Triple(*reordered)
        assert rv.dc_test(t) == verdict, p
        assert rv.dc_class(t) == {tuple(m[i] for i in p) for m in members}, p
        assert rv.dc_test(t) == verdict, p


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
        cls = rv._dc_lookup(t, whole=True)[3]
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
    factors, _ = case_of_size(size)
    members = rv.dc_class(rv.Triple(*factors))
    on_node = {}
    for member in sorted(members):
        on_node.setdefault(tuple(sorted(member)), []).append(member)
    rng = random.Random(size)
    walks = set()
    for key in rng.sample(sorted(on_node), 20):
        table = rv._RankTable(len(factors[0]))
        node, rho = rv._sort3(*map(table.number, rng.choice(on_node[key])))
        cls = rv._dc_walk(table, node, rho, whole=True)

        def words(node):
            return tuple(sorted(table.perms[k] for k in node))

        walks.add((
            frozenset(map(words, cls.transports)),
            cls.group,
            cls.size,
        ))
        assert set(rv._members(table, cls, cls.group, cls.transports)) == members, key
    assert len(walks) == 1
    nodes, _, counted = walks.pop()
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
    for factors, reference in cases:
        assert_dc_note(factors, rv.dc_test(rv.Triple(*factors)).detail, reference)
    assert rv._rank_tables[5] is table
    assert min(min(node) for node in table.classes) >= big


def test_dc_notes_name_the_moves():
    # 2143 alone has a descent at 1; it passes s_1 to factor 2, then to
    # factor 3, and the second of these has the common ascent 2
    t = rv.Triple(perm("2143"), perm("1342"), perm("1423"))
    assert rv.dc_test(t).detail == "dc-trivial member 1243,1342,4123 after 1 move: s1 1>3"
    t = rv.Triple(perm("1423"), perm("1423"), perm("1342"))
    assert rv.dc_test(t).detail == "dc-trivial member 1423,1423,1342 after 0 moves"
    # words past rank 9 are printed with spaces, and factors given shorter
    # are embedded; w0 * s_5 has the single ascent 5
    s5 = pc.apply_transposition(pc.identity(10), 5, 6)
    words = ((2, 1), pc.identity(10), pc.multiply(pc.w0(10), s5))
    detail = rv.dc_test(rv.Triple(*words)).detail
    assert detail.startswith("dc-trivial member 2 1 3 4 5 6 7 8 9 10,1 2 3 4 5 6 7 8 9 10,")
    assert dcreplay.replay(words, detail) == 0


def test_dc_replay_rejects_altered_notes():
    factors = (perm("2143"), perm("1342"), perm("1423"))
    good = "dc-trivial member 1243,1342,4123 after 1 move: s1 1>3"
    assert dcreplay.replay(factors, good) == 1
    for bad in (
        "dc-trivial member 1243,1342,4123 after 0 moves",  # moves missing
        "dc-trivial member 1243,1342,4123 after 2 moves: s1 1>3",  # wrong count
        "dc-trivial member 1243,3142,1423 after 1 move: s1 1>2",  # no common ascent
        "dc-trivial member 2143,3142,1243 after 1 move: s1 2>1",  # giver has no descent
        "dc-trivial member 1243,1342,4123 after 1 move: s2 1>3",  # wrong position
        "dc-trivial member 1243,1342,1423 after 1 move: s1 1>3",  # wrong member
        "dc-trivial member 1243,1342,4123 after 1 move: s1 1>1",  # giver is receiver
        "class of 12, none dc-trivial",
    ):
        with pytest.raises(AssertionError):
            dcreplay.replay(factors, bad)
    # two factors with a descent at 1 allow no move there
    with pytest.raises(AssertionError):
        dcreplay.replay((perm("2143"), perm("2143"), perm("1234")), "dc-trivial member "
                        "1243,2143,2134 after 1 move: s1 1>3")


def test_dc_rank_7_zeros_vanish_with_a_path():
    # a walk that stops at the first dc-trivial member catches every zero
    # among these draws, where enumerating the classes passed DC_CLASS_CAP
    # on 24 of them; each note replays from its problem line.  The one
    # nonzero draw is left out: its class has no dc-trivial member, and
    # walking it whole runs into the cap
    rng = random.Random(7)
    draws = [problemgen.symmetric_triple(7, rng) for _ in range(60)]
    zeros = [factors for factors in draws if sp.intersection_number(factors) == 0]
    lines = ["sym: " + ", ".join(map(pc.format_permutation, factors)) for factors in zeros]
    options = cli.Options(tests=("descent_cycling", "oracle"), stable=True)
    records, code = cli.run_batch(lines, options)
    assert code == 0 and len(records) == 59
    lengths = []
    for line, record in zip(lines, records):
        assert record["oracle"] == 0
        assert record["verdicts"]["descent_cycling"] == "VANISHES", line
        factors = cli.parse_problem_line(line).factors
        lengths.append(dcreplay.replay(factors, record["details"]["descent_cycling"]))
    assert max(lengths) > 2
