import functools
import hashlib
import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest

import dcreplay
from polyref import ascents, perm_from_code, right_mult_s
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
    return bool(set.intersection(*(set(ascents(x)) for x in member)))


def decides(member):
    """True when dc_test's walk stops at member: dc-trivial, or of value 1."""
    return has_common_ascent(member) or dcreplay.value_one(member)


def reference_dc_detail(cls):
    """dc_test's note on cls, or its first words when the walk stops at a member.

    A class with a dc-trivial member gets "dc-trivial member", one with a
    member of value 1 "value-1 member".  The note on a class with neither
    counts the class's nodes, the S_3-orbits of its members, up to
    DC_NODE_CAP.
    """
    if any(has_common_ascent(member) for member in cls):
        return "dc-trivial member"
    if any(dcreplay.value_one(member) for member in cls):
        return "value-1 member"
    nodes = len({tuple(sorted(member)) for member in cls})
    if nodes > rv.DC_NODE_CAP:
        return f"no dc-trivial member in the first {rv.DC_NODE_CAP} nodes"
    return f"no dc-trivial member in the class's {nodes} nodes"


def reference_dc_distances(cls):
    """Per member, the least number of moves to a member where the walk stops.

    A breadth-first search over factor tuples from all the members that
    decide the class at once: moves are reversible, so a member's distance
    from them is its distance to them.  Empty when the class has no such
    member.
    """
    distances = {member: 0 for member in cls if decides(member)}
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
        if tuple(factors) in reference:  # a member met before, given embedded
            continue
        t = rv.Triple(*factors)
        if t.factors not in reference:
            cls = reference_dc_class(t, cap)
            if cls is not None:
                entry = cls, reference_dc_distances(cls), reference_dc_detail(cls)
                reference.update(dict.fromkeys(cls, entry))
    return reference


def assert_dc_note(factors, detail, reference):
    """detail is a right dc_test note on factors, given their reference.

    The factors are words of one S_n, as the reference's keys are.
    reference is the class, distances and detail of factors, as
    reference_dc_classes gives them.  A note on a class with a dc-trivial
    member, or with a member of value 1, must name that kind and replay
    from factors, in as few moves as the reference's; any other note must
    equal reference_dc_detail.
    """
    _, distances, expected = reference
    if distances:
        assert detail.startswith(expected), (factors, detail)
        k = dcreplay.replay(factors, detail)
        assert k == distances[tuple(factors)], (factors, detail)
    else:
        assert detail == expected, factors


def assert_dc_matches_reference(triples, cap=None):
    """dc_test agrees with the references on each triple, and dc_class once per class.

    Triples whose reference class has more than cap members are skipped.
    Returns the sizes of the distinct classes checked.
    """
    reference = reference_dc_classes(triples, cap)
    closed = set()
    for factors in triples:
        t = rv.Triple(*factors)
        if t.factors in reference:
            cls = reference[t.factors][0]
            if id(cls) not in closed:
                closed.add(id(cls))
                assert rv.dc_class(t) == cls, factors
            assert_dc_note(factors, rv.dc_test(t).detail, reference[t.factors])
    return list({id(cls): len(cls) for cls, _, _ in reference.values()}.values())


@functools.cache
def interleaved_rank_4_and_5_cases():
    """(factors, reference class, distances and detail) for rank-5 and rank-4 triples in turn.

    The rank-5 triples are (53241, v, w) for every v, w of total length 2:
    they meet 18 classes, up to the one of 8331 members, which has no
    dc-trivial member and holds members of value 1.  The rank-4 triples are
    sampled.
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


# Classes with neither a dc-trivial member nor one of value 1, which dc_test
# walks whole: a value-2 class of 927 members on 161 nodes, and the zero
# class of nine members on 5 nodes
VALUE_2 = ("135246", "135246", "531642")
NINE = ("3216547", "3216547", "4261573")


@functools.cache
def dc_case(key):
    """case_of_size(key) for a size; the case of the words key otherwise."""
    if isinstance(key, int):
        return case_of_size(key)
    factors = rv.Triple(*map(perm, key)).factors
    return factors, reference_dc_classes([factors])[factors]


def assert_dc_sound(verdicts, value, digest):
    """dc_test's verdicts against the oracle, and its VANISHES notes against a digest.

    verdicts holds (factors, dc_test verdict) pairs, and value gives a
    triple's intersection number.  Every zero among the triples vanishes,
    and every value-1 note is on a triple of value 1; the VANISHES notes,
    one line each in the order of verdicts, hash to digest, that of a walk
    that stopped at dc-trivial members only.  Returns the number of
    value-1 notes.
    """
    vanishing = hashlib.sha256()
    ones = 0
    for factors, verdict in verdicts:
        number = value(factors)
        assert (verdict.outcome is Outcome.VANISHES) == (number == 0), factors
        if verdict.outcome is Outcome.VANISHES:
            vanishing.update(verdict.detail.encode() + b"\n")
        elif verdict.detail.startswith("value-1 member"):
            assert number == 1, factors
            ones += 1
    assert vanishing.hexdigest() == digest
    return ones


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
    # the class of nine members has five nodes: a walk that finds a fourth stops
    monkeypatch.setattr(rv, "DC_NODE_CAP", 3)
    verdict = rv.dc_test(rv.Triple(perm("3216547"), perm("3216547"), perm("4261573")))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.detail == "no dc-trivial member in the first 3 nodes"


@pytest.mark.parametrize(
    "words",
    [("3216547", "3216547", "4261573"), ("2143", "1342", "1423")],
)
def test_dc_cap_boundary(words, monkeypatch):
    # the cap counts the nodes a walk finds: under a cap below the node at
    # which the walk ends, it stops with the cap's note, and from that cap
    # on it gives its verdict; a class with no dc-trivial member needs a cap
    # of all its nodes, and the other ends long before
    assert rv.DC_NODE_CAP == 50_000
    t = rv.Triple(*(perm(w) for w in words))
    verdict = rv.dc_test(t)
    nodes = len({tuple(sorted(member)) for member in reference_dc_class(t)})
    verdicts = []
    for cap in range(1, nodes + 1):
        monkeypatch.setattr(rv, "DC_NODE_CAP", cap)
        verdicts.append(rv.dc_test(t))
    end = verdicts.index(verdict) + 1
    assert verdicts[end - 1 :] == [verdict] * (nodes + 1 - end)
    for cap, capped in enumerate(verdicts[: end - 1], start=1):
        assert capped.outcome is Outcome.INCONCLUSIVE
        assert capped.detail == f"no dc-trivial member in the first {cap} nodes"
    assert (end == nodes) == (verdict.outcome is Outcome.INCONCLUSIVE)


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
    digest = "b626d994f4a3bb0c0453c3a031b654380d82d6ad801b578d42ff2f7d7f227d07"
    verdicts = [(factors, rv.dc_test(rv.Triple(*factors))) for factors in triples]
    assert assert_dc_sound(verdicts, sp.intersection_number, digest) > 0


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


def test_dc_test_does_not_depend_on_order():
    # a note depends on its triple alone: it is the same after a shuffled
    # prefix of other triples; a state kept between calls, or one key space
    # shared across ranks, would show
    cases = interleaved_rank_4_and_5_cases()
    details = {detail for _, (_, _, detail) in cases}
    assert details == {"dc-trivial member", "value-1 member"}
    fresh = {}
    for factors, reference in cases:
        fresh[factors] = rv.dc_test(rv.Triple(*factors)).detail
        assert_dc_note(factors, fresh[factors], reference)
    others = random.Random(3).sample(well_posed_triples(5), 200)
    for seed in range(3):
        rng = random.Random(seed)
        for factors in rng.sample(others, 50 * seed):
            rv.dc_test(rv.Triple(*factors))
        for factors, _ in rng.sample(cases, len(cases)):
            assert rv.dc_test(rv.Triple(*factors)).detail == fresh[factors], (seed, factors)


def test_dc_matches_reference_on_all_of_s4_and_s5_shuffled():
    # every triple of S_4 and S_5, met in a seeded shuffled order: every
    # class has a dc-trivial member or one of value 1, and every note
    # replays from the triple alone, in the least number of moves to such a
    # member.  Against the oracle, one value per class: every zero vanishes,
    # with the notes of a walk that stops at dc-trivial members only, and
    # the 303 + 8331 triples of the classes of value 1 get value-1 notes
    triples = well_posed_triples(4) + well_posed_triples(5)
    assert len(triples) == 1115 + 74199
    random.Random(41).shuffle(triples)
    reference = reference_dc_classes(triples)
    verdicts = [(factors, rv.dc_test(rv.Triple(*factors))) for factors in triples]
    for factors, verdict in verdicts:
        assert_dc_note(factors, verdict.detail, reference[factors])
    assert all(distances for _, distances, _ in reference.values())
    assert max(max(distances.values()) for _, distances, _ in reference.values()) > 2
    values = {}

    def value(factors):
        cls = reference[factors][0]
        if id(cls) not in values:
            values[id(cls)] = sp.intersection_number(factors)
        return values[id(cls)]

    digest = "751ac79ff2500ce57e306b8e7a6d2b6b00e6c693029b74ab161cf2d8ef7bc15a"
    assert assert_dc_sound(verdicts, value, digest) == 303 + 8331


@pytest.mark.parametrize("size", [8331, 1327, 220, pytest.param(VALUE_2, id="value2")])
def test_dc_all_six_factor_orders_agree(size):
    # the six orders of a triple's factors give classes of one size, and
    # either all have a dc-trivial member or one of value 1, as many moves
    # away, or none has and all give the class's node count
    factors, (members, distances, detail) = dc_case(size)
    for p in itertools.permutations(range(3)):
        reordered = tuple(factors[i] for i in p)
        t = rv.Triple(*reordered)
        verdict = rv.dc_test(t)
        if distances:
            assert verdict.detail.startswith(detail), p
            assert dcreplay.replay(reordered, verdict.detail) == distances[factors], p
        else:
            assert verdict.detail == detail, p
        assert rv.dc_class(t) == {tuple(m[i] for i in p) for m in members}, p


def test_dc_counted_size_matches_the_members():
    # the walk counts nodes, the S_3-orbits of the members.  The class of
    # nine and the value-2 class, which it walks whole, have orbits of six
    # members and of three (two equal factors); from every member, in every
    # order of its factors, the note counts the orbits
    for words, nodes in ((NINE, 5), (VALUE_2, 161)):
        members = reference_dc_class(rv.Triple(*map(perm, words)))
        assert {len(set(itertools.permutations(m))) for m in members} == {3, 6}
        assert len({tuple(sorted(m)) for m in members}) == nodes
        for start in {reordered for m in members for reordered in itertools.permutations(m)}:
            detail = rv.dc_test(rv.Triple(*start)).detail
            assert detail == f"no dc-trivial member in the class's {nodes} nodes", start


def test_dc_cap_holds_from_every_member(monkeypatch):
    # the value-2 class has 161 nodes, none dc-trivial or of value 1: from
    # every member, in every order of its factors, a cap of 160 stops the walk
    factors, (members, _, detail) = dc_case(VALUE_2)
    assert detail == "no dc-trivial member in the class's 161 nodes"
    monkeypatch.setattr(rv, "DC_NODE_CAP", 160)
    for start in {reordered for m in members for reordered in itertools.permutations(m)}:
        detail = rv.dc_test(rv.Triple(*start)).detail
        assert detail == "no dc-trivial member in the first 160 nodes", start


def test_dc_walks_keep_no_module_state():
    # each walk numbers the permutations in a table of its own: after walks
    # at ranks 4 and 5, no module-level name of rivals was rebound, and no
    # module-level container grew or shrank
    def state():
        return {
            name: (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
            for name, value in vars(rv).items()
        }

    before = state()
    for factors, reference in interleaved_rank_4_and_5_cases():
        assert_dc_note(factors, rv.dc_test(rv.Triple(*factors)).detail, reference)
    assert state() == before


@pytest.mark.parametrize("size", [8331, 1327, 220, pytest.param(VALUE_2, id="value2")])
def test_dc_walk_does_not_depend_on_its_start(size):
    # a walk from a member on each of 20 sampled nodes gives a right note:
    # the class's node count when it has no dc-trivial member and none of
    # value 1, else a path of the fewest moves from that member to one
    factors, reference = dc_case(size)
    on_node = {}
    for member in sorted(reference[0]):
        on_node.setdefault(tuple(sorted(member)), []).append(member)
    rng = random.Random(len(reference[0]))
    for key in rng.sample(sorted(on_node), 20):
        start = rng.choice(on_node[key])
        assert_dc_note(start, rv.dc_test(rv.Triple(*start)).detail, reference)


def test_dc_node_keys_stay_exact_past_2_17():
    # a key packed into fields of 17 bits would merge (0, 1, 2^17) with
    # (0, 2, 0), since 1 << 17 | 2^17 == 2 << 17
    big = 1 << 17
    assert rv._sort3(0, 1, big)[0] != rv._sort3(0, 2, 0)[0]
    for triple in itertools.permutations((big, big + 1, 1)):
        assert rv._sort3(*triple)[0] == (1, big, big + 1)


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
    # 1243, 1243, 4213 has no dc-trivial member; two moves reach 1234 with
    # the dual pair 1432, 4123, and the walk stops there
    verdict = rv.dc_test(rv.Triple(perm("1243"), perm("1243"), perm("4213")))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.detail == "value-1 member 1432,1234,4123 after 2 moves: s2 3>1, s3 2>1"


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
        "no dc-trivial member in the class's 12 nodes",
        "no dc-trivial member in the first 50000 nodes",
    ):
        with pytest.raises(AssertionError):
            dcreplay.replay(factors, bad)
    # two factors with a descent at 1 allow no move there
    with pytest.raises(AssertionError):
        dcreplay.replay((perm("2143"), perm("2143"), perm("1234")), "dc-trivial member "
                        "1243,2143,2134 after 1 move: s1 1>3")
    unit = (perm("1243"), perm("1243"), perm("4213"))
    good = "value-1 member 1432,1234,4123 after 2 moves: s2 3>1, s3 2>1"
    assert dcreplay.replay(unit, good) == 2
    for factors, bad in (
        # 1423 and 3412 are not dual: 1423 + 3412 is 4835
        ((perm("1234"), perm("1423"), perm("3412")), "value-1 member 1234,1423,3412 after 0 moves"),
        # 1243,1342,4123 is dc-trivial and has no identity word
        ((perm("2143"), perm("1342"), perm("1423")),
         "value-1 member 1243,1342,4123 after 1 move: s1 1>3"),
        # 1243 has no descent at 2
        (unit, "value-1 member 1432,1234,4123 after 2 moves: s2 1>3, s3 2>1"),
        # a move missing
        (unit, "value-1 member 1432,1234,4123 after 1 move: s2 3>1"),
        # the member has no common ascent
        (unit, "dc-trivial member 1432,1234,4123 after 2 moves: s2 3>1, s3 2>1"),
    ):
        with pytest.raises(AssertionError):
            dcreplay.replay(factors, bad)


def test_dc_rank_7_zeros_vanish_with_a_path():
    # a walk that stops at the first dc-trivial member catches every zero
    # among these draws, where enumerating the classes ran past a cap of
    # 10^6 members on 24 of them; each note replays from its problem line,
    # and the notes are those of a walk that stopped at dc-trivial members
    # only.  The nonzero draw, and 1234567, 7654321, 1234567, have value 1:
    # their walks stop at a member of value 1, and that note replays too
    rng = random.Random(7)
    draws = [problemgen.symmetric_triple(7, rng) for _ in range(60)]
    draws.append(tuple(map(perm, ("1234567", "7654321", "1234567"))))
    lines = ["sym: " + ", ".join(map(pc.format_permutation, factors)) for factors in draws]
    options = cli.Options(tests=("descent_cycling", "oracle"), stable=True)
    records, code = cli.run_batch(lines, options)
    assert code == 0 and len(records) == 61
    lengths = []
    vanishing = hashlib.sha256()
    for line, record in zip(lines, records):
        note = record["details"]["descent_cycling"]
        length = dcreplay.replay(cli.parse_problem_line(line).factors, note)
        if record["oracle"]:
            assert record["oracle"] == 1 and note.startswith("value-1 member"), line
            assert record["verdicts"]["descent_cycling"] == "INCONCLUSIVE", line
            continue
        assert record["verdicts"]["descent_cycling"] == "VANISHES", line
        vanishing.update(note.encode() + b"\n")
        lengths.append(length)
    assert len(lengths) == 59 and max(lengths) > 2
    digest = "586f3bd4009381c0c36f1c14ef3ffa7ebd23cb106ce7ee1cad90a016819c1cc0"
    assert vanishing.hexdigest() == digest


def test_dc_walks_the_whole_class_of_a_nonzero_triple(monkeypatch):
    # a class of value 2 has neither a dc-trivial member nor one of value 1:
    # the walk finds all 161 nodes of VALUE_2's class, and a cap of 160
    # stops it.  The rank-8 class below, of value 2 too, runs past
    # DC_NODE_CAP.  654231, 123546, 123456 has a class of 68,366 nodes, but
    # it has value 1 itself, so its walk stops at its first node
    factors = tuple(map(perm, VALUE_2))
    assert sp.intersection_number(factors) == 2
    t = rv.Triple(*factors)
    verdict = rv.dc_test(t)
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.detail == "no dc-trivial member in the class's 161 nodes"
    rank8 = tuple(map(perm, ("46138275", "24715386", "21475638")))
    assert sp.intersection_number(rank8) == 2
    assert rv.dc_test(rv.Triple(*rank8)).detail == "no dc-trivial member in the first 50000 nodes"
    unit = tuple(map(perm, ("654231", "123546", "123456")))
    assert sp.intersection_number(unit) == 1
    verdict = rv.dc_test(rv.Triple(*unit))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.detail == "value-1 member 654231,123546,123456 after 0 moves"
    monkeypatch.setattr(rv, "DC_NODE_CAP", 160)
    assert rv.dc_test(t).detail == "no dc-trivial member in the first 160 nodes"
