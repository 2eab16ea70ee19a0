"""Three comparison vanishing tests: Bruhat order, descent cycling, root games.

Each is a classical sufficient criterion for a Schubert intersection number
to vanish, implemented here so the polytope test can be benchmarked against
them on concrete problems.  All of them return the same three-valued
verdicts as the main tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import permcore
from .permcore import Frozen, Perm
from .vanishing import Outcome, VanishingVerdict

Factors = tuple[Perm, Perm, Perm]


class Triple(Frozen):
    """An ordered triple (u, v, w) with lengths summing to n(n-1)/2.

    The words are stored embedded in a common S_n.
    """

    __slots__ = _fields = ("u", "v", "w")

    def __init__(self, u: Perm, v: Perm, w: Perm) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        self.__post_init__()

    def __post_init__(self) -> None:
        posed = permcore.well_posed((self.u, self.v, self.w), None)
        if posed is None:
            raise ValueError("triple lengths do not sum to n(n-1)/2")
        for name, word in zip(self._fields, posed[0]):
            object.__setattr__(self, name, word)

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def factors(self) -> Factors:
        return (self.u, self.v, self.w)


def bruhat_vanishing_test(ws: Sequence[Perm]) -> VanishingVerdict:
    """Vanishes when some factor is not below the complement of another.

    Scans ordered pairs (i, j) lexicographically and reports the first pair
    with w_i not <= w0 * w_j.
    """
    method = "bruhat"
    posed = permcore.well_posed(ws, None)
    if posed is None:
        return VanishingVerdict(Outcome.DEGREE_MISMATCH, method)
    embedded, longest = posed
    complements = [permcore.multiply(longest, w) for w in embedded]
    for i in range(len(embedded)):
        for j in range(len(embedded)):
            if i == j:
                continue
            if not permcore.bruhat_leq(embedded[i], complements[j]):
                return VanishingVerdict(
                    Outcome.VANISHES,
                    method,
                    detail=(
                        f"factor {i + 1} = {permcore.format_permutation(embedded[i])} "
                        f"is not below w0 * factor {j + 1} = "
                        f"{permcore.format_permutation(complements[j])}"
                    ),
                )
    return VanishingVerdict(Outcome.INCONCLUSIVE, method)


def dc_trivial(factors: Factors) -> bool:
    """True when some position is an ascent of u, v and w simultaneously.

    The words must lie in a common S_n, as the factors of a Triple and the
    members of its descent-cycling class do.
    """
    u, v, w = factors
    return any(
        u[i - 1] < u[i] and v[i - 1] < v[i] and w[i - 1] < w[i]
        for i in range(1, len(u))
    )


def _mask(positions: Iterable[int]) -> int:
    """The bitmask with bit i set for each position i."""
    return sum(1 << i for i in positions)


def _moves(factors: Factors) -> Iterator[Factors]:
    """The triples one descent-cycling move away from factors.

    At a position i where exactly one word has a descent, that word passes
    s_i to either of the other two: both are multiplied by s_i on the right.
    """
    for i in range(1, len(factors[0])):
        givers = [k for k, x in enumerate(factors) if x[i - 1] > x[i]]
        if len(givers) == 1:
            swapped = [x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :] for x in factors]
            for receiver in range(3):
                if receiver != givers[0]:
                    pair = (givers[0], receiver)
                    yield tuple(swapped[k] if k in pair else factors[k] for k in range(3))


def dc_class(t: Triple) -> frozenset[Factors]:
    """Factor tuples of the closure of t under descent-cycling moves.

    Every move keeps the words in S_n and the total length, so members are
    never revalidated, and every member has the same intersection number.
    This breadth-first closure enumerates the whole class, with no cap, and
    classes grow fast with the rank: only the tests and the benchmark's
    tracer call it, and ROADMAP item 13 moves it to the tests.  dc_test
    walks the class by nodes instead, under a cap.
    """
    seen = {t.factors}
    queue = deque(seen)
    while queue:
        for nxt in _moves(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


# S_3 permutes the factors of a triple: element g acts on m as
# (m[p[0]], m[p[1]], m[p[2]]) with p = _S3[g], and 0 is the identity.
_S3 = tuple(itertools.permutations(range(3)))

_Node = tuple[int, int, int]


def _sort3(p: int, q: int, r: int) -> tuple[_Node, int]:
    """The sorted triple of p, q, r and the element that acts on it as (p, q, r)."""
    if p <= q:
        if q <= r:
            return (p, q, r), 0
        if p <= r:
            return (p, r, q), 1
        return (r, p, q), 3
    if p <= r:
        return (q, p, r), 2
    if q <= r:
        return (q, r, p), 4
    return (r, q, p), 5


def _act(g: int, node: _Node) -> _Node:
    """The triple g acting on node."""
    p = _S3[g]
    return node[p[0]], node[p[1]], node[p[2]]


# Nodes a descent-cycling walk may find before dc_test stops it.  Every zero
# measured (all of S_5, and 200, 200 and 150 seeded draws at ranks 6, 7 and
# 8) had a dc-trivial node among the first 19,424 nodes its walk found, and
# every nonzero one a node of value 1 among the first 12,186; a walk
# stopped here takes 0.12-0.22 s on a 2-core host.  A class with neither
# can be larger: that of 46138275, 24715386, 21475638 (value 2) runs past
# the cap.
DC_NODE_CAP = 50_000


class _PermTable:
    """The permutations of one descent-cycling walk, numbered as they are met.

    Per number the table keeps the permutation, its descent bitmask and a
    lazily filled row of the numbers of x * s_i.
    """

    __slots__ = ("n", "ids", "perms", "descents", "rows")

    def __init__(self, n: int) -> None:
        self.n = n
        self.ids: dict[Perm, int] = {}
        self.perms: list[Perm] = []
        self.descents: list[int] = []
        self.rows: list[list[int]] = []  # rows[k][i]: number of perms[k] * s_i, or -1

    def number(self, x: Perm) -> int:
        k = self.ids.get(x)
        if k is None:
            k = self.ids[x] = len(self.perms)
            self.perms.append(x)
            self.descents.append(_mask(permcore.descents(x)))
            self.rows.append([-1] * self.n)
        return k


def _value_one(perms: list[Perm], node: _Node) -> bool:
    """True when node's words are e, x and w0 * x in some order.

    Such a triple has intersection number 1: the identity's class is the
    unit, and x and w0 * x are Poincare dual.  The identity sorts first.
    """
    e, x, y = sorted(perms[k] for k in node)
    top = len(e) + 1
    return e == tuple(range(1, top)) and all(a + b == top for a, b in zip(x, y))


# A path of descent-cycling moves to the member where a walk stops: the
# member, whether it is dc-trivial (else it has value 1), and per move
# (i, giver, receiver), the factor giver (0-based), which has a descent at
# i, passing s_i to the factor receiver.
_DcPath = tuple[Factors, bool, list[tuple[int, int, int]]]


def _dc_walk(t: Triple) -> Union[_DcPath, int]:
    """Walk t's class breadth first, one node at a time, to a member that decides it.

    A node is an S_3-orbit of triples, kept as the sorted triple of the
    numbers of a member's words in a table of the walk's own.  A move
    treats u, v and w alike, so permuting the factors of a triple permutes
    its neighbours the same way.  The walk therefore visits each node
    once, as the member that first reached it: a neighbour (p, q, r) of
    that member, and rho with rho acting on N' = sorted(p, q, r) as
    (p, q, r), give N' the transport rho; N' also keeps the node it was
    reached from.

    At a position i where exactly one word has a descent, the three triples
    that pass s_i around among the words form a triangle, and the members
    of a triangle are pairwise related by moves at i.  Expanding it from
    one member finds the nodes of the other two.  So each node carries a
    mask of the positions whose triangle some member already expanded:
    expanding at i sets bit i on the two other nodes, new or still queued,
    and a node dequeued expands only its unset moves.  The moves it skips
    reach only nodes already found.

    A node's member expands its moves by position ascending, then by
    receiving factor ascending.  Whether a member's node was found before
    depends on the members alone, so the walk, and the path it returns,
    depend on t alone.  The walk checks each node as it finds it and
    returns the member of the first dc-trivial one with the moves that
    reached it; being breadth first, no dc-trivial member is fewer moves
    from t.  A node that is not dc-trivial but holds the identity and two
    w0-dual words (see _value_one) ends the walk the same way: the class
    has value 1, so no member is dc-trivial.  Otherwise it returns the
    number of nodes it found: all of the class's, or DC_NODE_CAP + 1 when
    it found one past the cap, which it does not check.
    """
    cap = DC_NODE_CAP
    table = _PermTable(t.n)
    perms, descents, rows, number = table.perms, table.descents, table.rows, table.number

    def swapped(k: int, i: int) -> int:
        x = perms[k]
        s = rows[k][i] = number(x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :])
        return s

    every = _mask(range(1, t.n))  # a common ascent is a descent of none
    a, b, c = member = tuple(map(number, t.factors))
    start, transport = _sort3(a, b, c)
    transports = {start: transport}
    done = {start: 0}  # per node, the positions whose triangle was expanded
    parents = {start: start}  # per node, the node whose member first reached it
    da, db, dc = descents[a], descents[b], descents[c]
    if every & ~(da | db | dc) or (not (da and db and dc) and _value_one(perms, start)):
        return _dc_path(table, start, parents, transports)
    queue = deque([(start, member)])
    while queue:
        node, (a, b, c) = queue.popleft()
        da, db, dc = descents[a], descents[b], descents[c]
        moves = (da ^ db ^ dc) & ~(da & db & dc) & ~done[node]
        while moves:
            low = moves & -moves
            moves ^= low
            i = low.bit_length() - 1
            sa = rows[a][i]
            if sa < 0:
                sa = swapped(a, i)
            sb = rows[b][i]
            if sb < 0:
                sb = swapped(b, i)
            sc = rows[c][i]
            if sc < 0:
                sc = swapped(c, i)
            # the factor with the descent passes s_i to each other factor,
            # in factor order
            if da & low:
                x, y = (sa, sb, c), (sa, b, sc)
            elif db & low:
                x, y = (sa, sb, c), (a, sb, sc)
            else:
                x, y = (sa, b, sc), (a, sb, sc)
            for nbr in (x, y):
                p, q, r = nbr
                # nxt, rho = _sort3(p, q, r), inline
                if p <= q:
                    if q <= r:
                        nxt, rho = (p, q, r), 0
                    elif p <= r:
                        nxt, rho = (p, r, q), 1
                    else:
                        nxt, rho = (r, p, q), 3
                elif p <= r:
                    nxt, rho = (q, p, r), 2
                elif q <= r:
                    nxt, rho = (q, r, p), 4
                else:
                    nxt, rho = (r, q, p), 5
                if nxt in done:
                    done[nxt] |= low
                    continue
                transports[nxt] = rho
                parents[nxt] = node
                if len(transports) > cap:
                    return len(transports)
                dp, dq, dr = descents[p], descents[q], descents[r]
                # a mask of 0 is the identity's, which _value_one needs
                if every & ~(dp | dq | dr) or (
                    not (dp and dq and dr) and _value_one(perms, nxt)
                ):
                    return _dc_path(table, nxt, parents, transports)
                done[nxt] = low
                queue.append((nxt, nbr))
    return len(transports)


def _dc_path(
    table: _PermTable, node: _Node, parents: dict[_Node, _Node], transports: dict[_Node, int]
) -> _DcPath:
    """The member on node, whether it is dc-trivial, and the moves from the start.

    A move changes two factors, the giver and the receiver, each by s_i,
    where i is one more than the first 0-based index at which their words
    change; of the two, the giver is the one with a descent at i.
    """
    perms, descents = table.perms, table.descents
    moves = []
    end = _act(transports[node], node)
    # a common ascent leaves a position of 1..n-1 out of every descent mask
    trivial = (descents[end[0]] | descents[end[1]] | descents[end[2]]) != (1 << table.n) - 2
    while parents[node] != node:
        before = _act(transports[parents[node]], parents[node])
        after = _act(transports[node], node)
        giver, receiver = (k for k in range(3) if before[k] != after[k])
        x, y = perms[before[giver]], perms[after[giver]]
        i = next(k for k in range(table.n) if x[k] != y[k]) + 1
        if not descents[before[giver]] >> i & 1:
            giver, receiver = receiver, giver
        moves.append((i, giver, receiver))
        node = parents[node]
    moves.reverse()
    return (perms[end[0]], perms[end[1]], perms[end[2]]), trivial, moves


def dc_test(t: Triple) -> VanishingVerdict:
    """Vanishes when some member of t's descent-cycling class has a common ascent.

    Every member of a class has the same intersection number, so one
    dc-trivial member reached by moves shows that t's intersection number
    vanishes.  The walk (see _dc_walk) goes breadth first over the class's
    nodes, its S_3-orbits of triples, and stops at the first dc-trivial
    member; the note names it and the moves from t to it, as in
    "dc-trivial member U,V,W after 2 moves: s3 1>2, s1 3>2", where
    "s3 1>2" has factor 1, which has a descent at 3, pass s_3 to factor 2.
    No dc-trivial member is fewer moves from t.  The walk also stops at
    the first member e, x, w0 * x, in some order, whose value is 1: then
    no member is dc-trivial, and the verdict is INCONCLUSIVE with the note
    "value-1 member U,V,W after 2 moves: s1 1>2, s2 3>1", a proof that t
    has value 1.  A walk that finds neither gives INCONCLUSIVE and names
    its work: "no dc-trivial member in the class's N nodes" when it found
    every node of the class, and "no dc-trivial member in the first
    DC_NODE_CAP nodes" when it found more and stopped.  Each note depends
    on t alone: dc_test keeps no state between calls.
    """
    method = "descent_cycling"
    found = _dc_walk(t)
    if isinstance(found, int):
        if found > DC_NODE_CAP:
            detail = f"no dc-trivial member in the first {DC_NODE_CAP} nodes"
        else:
            detail = f"no dc-trivial member in the class's {found} nodes"
        return VanishingVerdict(Outcome.INCONCLUSIVE, method, detail=detail)
    end, trivial, moves = found
    detail = ("dc-trivial" if trivial else "value-1") + " member "
    detail += ",".join(map(permcore.format_permutation, end))
    detail += f" after {len(moves)} move" + ("" if len(moves) == 1 else "s")
    if moves:
        detail += ": " + ", ".join(f"s{i} {g + 1}>{r + 1}" for i, g, r in moves)
    outcome = Outcome.VANISHES if trivial else Outcome.INCONCLUSIVE
    return VanishingVerdict(outcome, method, detail=detail)


def root_game_initial(ws: Sequence[Perm]) -> dict[tuple[int, int], int]:
    """Token counts on the positive roots: one token at alpha_{a,b} per
    factor with an inversion at (a, b).  Embedding a word in a larger S_n
    adds no inversion, so the words need not share a rank."""
    counts: dict[tuple[int, int], int] = {}
    for w in ws:
        for a in range(1, len(w)):
            for b in range(a + 1, len(w) + 1):
                if w[a - 1] > w[b - 1]:
                    counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def upper_order_filters(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All up-closed subsets of the positive-root poset of rank n - 1.

    The order is containment of intervals: alpha_{a,b} <= alpha_{a',b'} iff
    a' <= a and b <= b', with top element alpha_{1,n}.  A filter meets row a
    in a suffix {b : b >= cut_a}, and up-closure forces the cuts to be
    nondecreasing, so filters match lattice paths and are counted by the
    Catalan numbers.  The cut sequences are the nondecreasing tuples over
    2..n+1 with cut_a >= a + 1, emitted in lexicographic order.  is_doomed
    does not scan them; this enumeration is the reference it is tested
    against.
    """
    for cuts in itertools.combinations_with_replacement(range(2, n + 2), max(n - 1, 0)):
        if all(cut > a for a, cut in enumerate(cuts, start=1)):
            yield frozenset(
                (a, b) for a, cut in enumerate(cuts, start=1) for b in range(cut, n + 1)
            )


def is_doomed(
    n: int, tokens: dict[tuple[int, int], int]
) -> tuple[bool, Optional[frozenset[tuple[int, int]]]]:
    """Whether some upper order filter of rank n holds more tokens than its size.

    tokens maps a root (a, b), 1 <= a < b <= n, to its token count, as
    root_game_initial returns them.  The roots alpha_{a,b} are ordered by
    containment of intervals, with top element alpha_{1,n}.  An up-closed
    filter meets row a in a suffix {b : b >= cut_a} with
    a + 1 <= cut_a <= n + 1, and up-closure forces the cuts to be
    nondecreasing.  Row a contributes
    gain_a(c) = sum over b >= c of (tokens(a, b) - 1) to the filter's excess
    of tokens over size, so a dynamic program over rows from the bottom,
    best_a(c) = max over c' >= max(c, a + 1) of gain_a(c') + best_{a+1}(c'),
    finds the largest excess in O(n^2) steps; the position is doomed iff
    best_1(2) > 0.  The witness is the filter whose cut sequence is
    lexicographically first among the overloaded ones: row by row, the
    smallest cut that can still be completed to a positive excess.
    """
    # gains[a][c] for rows a = 1..n-1 and cuts c = a+1..n+1 (other c unused)
    gains = [[0] * (n + 2) for _ in range(n + 1)]
    for a in range(1, n):
        for c in range(n, a, -1):
            gains[a][c] = gains[a][c + 1] + tokens.get((a, c), 0) - 1
    # best[a][c] for c >= a: the largest excess of rows a..n-1 with
    # cut_a >= max(c, a+1); an empty row (cut n+1) adds 0, and best[n] = 0
    best = [[0] * (n + 2) for _ in range(n + 1)]
    for a in range(n - 1, 0, -1):
        row, below = best[a], best[a + 1]
        for c in range(n, a, -1):
            row[c] = max(row[c + 1], gains[a][c] + below[c])
        row[a] = row[a + 1]
    if n < 2 or best[1][2] <= 0:
        return False, None
    cuts: list[int] = []
    total, lo = 0, 2
    for a in range(1, n):
        cut = next(
            c
            for c in range(max(lo, a + 1), n + 2)
            if total + gains[a][c] + best[a + 1][c] > 0
        )
        cuts.append(cut)
        total += gains[a][cut]
        lo = cut
    return True, frozenset(
        (a, b) for a in range(1, n) for b in range(cuts[a - 1], n + 1)
    )


def root_game_test(ws: Sequence[Perm]) -> VanishingVerdict:
    """Vanishes when the initial token position is doomed."""
    method = "root_game"
    posed = permcore.well_posed(ws, None)
    if posed is None:
        return VanishingVerdict(Outcome.DEGREE_MISMATCH, method)
    embedded, longest = posed
    doomed, witness = is_doomed(len(longest), root_game_initial(embedded))
    if doomed:
        assert witness is not None
        roots = ",".join(f"a[{a},{b}]" for a, b in sorted(witness))
        return VanishingVerdict(
            Outcome.VANISHES, method, detail=f"overloaded filter {{{roots}}}"
        )
    return VanishingVerdict(Outcome.INCONCLUSIVE, method)
