"""Three comparison vanishing tests: Bruhat order, descent cycling, root games.

Each is a classical sufficient criterion for a Schubert intersection number
to vanish, implemented here so the polytope test can be benchmarked against
them on concrete problems.  All of them return the same three-valued
verdicts as the main tests.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from . import permcore
from .permcore import Frozen, Perm
from .vanishing import Outcome, VanishingVerdict

Factors = tuple[Perm, Perm, Perm]


class ClassSizeExceeded(RuntimeError):
    """Descent-cycling closure grew past DC_CLASS_CAP members."""


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


# S_3 permutes the factors of a triple.  Element g acts on m as
# (m[p[0]], m[p[1]], m[p[2]]) with p = _S3[g]; 0 is the identity, and acting
# by _MUL[g][h] is acting by h and then by g.
_S3 = tuple(itertools.permutations(range(3)))
_MUL = tuple(tuple(_S3.index(tuple(q[i] for i in p)) for q in _S3) for p in _S3)
_INV = tuple(row.index(0) for row in _MUL)

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


def _stabilizer(node: _Node) -> int:
    """Bitmask of the elements of S_3 that fix a sorted triple."""
    a, b, c = node
    if a == c:
        return (1 << 6) - 1
    return 1 | (a == b) << 2 | (b == c) << 1


def _conjugate(mask: int, tau: int) -> int:
    """Bitmask of tau * g * tau^-1 over the elements g of mask."""
    return _mask(_MUL[_MUL[tau][g]][_INV[tau]] for g in range(6) if mask >> g & 1)


def _generated(mask: int) -> tuple[int, ...]:
    """The elements of the subgroup of S_3 that the elements of mask generate."""
    while True:
        elements = [g for g in range(6) if mask >> g & 1]
        grown = mask | _mask({_MUL[g][h] for g in elements for h in elements})
        if grown == mask:
            return tuple(elements)
        mask = grown


# Members a descent-cycling class may have; dc_test and dc_class raise
# ClassSizeExceeded past it.
DC_CLASS_CAP = 10**6

# Permutations plus nodes of remembered classes that one rank's
# descent-cycling table may hold; a table past it is dropped and rebuilt on
# its next use.
DC_TABLE_BOUND = 1 << 16


class _RankTable:
    """Descent-cycling state of one rank, kept for the life of the process.

    Permutations are numbered as they are met.  Per number the table keeps
    the permutation, its descent bitmask and a lazily filled row of the
    numbers of x * s_i.  A node is the sorted triple of the numbers of a
    triple's factors; classes maps every node of each class walked to the
    _DcClass record of that walk, which answers for every ordering of the
    class.  The tables are shared by every caller in the process and take no
    lock: descent cycling runs on one thread.
    """

    __slots__ = ("n", "ids", "perms", "descents", "rows", "classes")

    def __init__(self, n: int) -> None:
        self.n = n
        self.ids: dict[Perm, int] = {}
        self.perms: list[Perm] = []
        self.descents: list[int] = []
        self.rows: list[list[int]] = []  # rows[k][i]: number of perms[k] * s_i, or -1
        self.classes: dict[_Node, _DcClass] = {}

    def number(self, x: Perm) -> int:
        k = self.ids.get(x)
        if k is None:
            k = self.ids[x] = len(self.perms)
            self.perms.append(x)
            self.descents.append(_mask(permcore.descents(x)))
            self.rows.append([-1] * self.n)
        return k


class _DcClass:
    """A descent-cycling class C, as the walk over its S_3-orbits leaves it.

    transports maps each node of C to its transport tau: tau acting on the
    node is a member of C.  group lists the stabilizer H of C in S_3, the g
    with gC = C.  The members of C on a node N are h * tau acting on N for
    h in H, so size, the number of members, is the sum over the nodes of
    |H| / |Stab(N)|.  Reordering the factors maps C onto a class gC with the
    same nodes.  trivial lists the dc-trivial nodes, and firsts maps each
    coset gH asked for, keyed by its smallest element, to the first
    dc-trivial member of gC, or None.
    """

    __slots__ = ("transports", "group", "size", "trivial", "firsts")

    def __init__(self, transports: dict[_Node, int], group: tuple[int, ...],
                 size: int, trivial: list[_Node]) -> None:
        self.transports = transports
        self.group = group
        self.size = size
        self.trivial = trivial
        self.firsts: dict[int, Optional[Factors]] = {}


_rank_tables: dict[int, _RankTable] = {}


def _rank_table(n: int) -> _RankTable:
    """The table of rank n, new when there is none or it passed DC_TABLE_BOUND."""
    table = _rank_tables.get(n)
    if table is None or len(table.perms) + len(table.classes) > DC_TABLE_BOUND:
        table = _rank_tables[n] = _RankTable(n)
    return table


def _dc_walk(table: _RankTable, start: _Node, transport: int) -> _DcClass:
    """Walk the class of the member transport * start, one node at a time.

    A move treats u, v and w alike, so permuting the factors of a triple
    permutes its neighbours the same way.  The walk therefore expands each
    node from the node itself: a neighbour (p, q, r) of node N with
    transport tau, and rho with rho acting on N' = sorted(p, q, r) as
    (p, q, r), gives N' the transport tau * rho.  When a node is reached
    again with another transport, the two differ by an element of H, and
    the start adds its own stabilizer, conjugated by its transport.  These
    elements generate H: every member is then h * tau_N acting on its node N
    for some h they generate (induction along a path of moves from the
    start).  Another node with a repeated factor needs no such step: if g
    fixes the member m' reached from m = tau * N by a move at i, then g * m
    is the third triple of the triangle at i (see below).  The parent
    reached it too, on its own node N with the transport g * tau, and so
    recorded g.

    At a position i where exactly one word has a descent, the three triples
    that pass s_i around among the words form a triangle, so a node reached
    by a move at i skips i: its parent reached both ends of those moves.

    Raises ClassSizeExceeded when the class has more than DC_CLASS_CAP
    members: as soon as the nodes do, or when the walk is over.
    """
    cap = DC_CLASS_CAP
    perms, descents, rows, number = table.perms, table.descents, table.rows, table.number

    def swapped(k: int, i: int) -> int:
        s = rows[k][i] = number(permcore.right_mult_s(perms[k], i))
        return s

    every = _mask(range(1, table.n))  # a common ascent is a descent of none
    transports = {start: transport}
    found = _conjugate(_stabilizer(start), transport)
    trivial: list[_Node] = []
    stack = [(start, transport, 0)]
    while stack:
        node, tau, skip = stack.pop()
        a, b, c = node
        da, db, dc = descents[a], descents[b], descents[c]
        if every & ~(da | db | dc):
            trivial.append(node)
        moves = (da ^ db ^ dc) & ~(da & db & dc) & ~skip
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
            # s_i moves between the word with the descent and either other
            if dc & low:
                x, y = (sa, b, sc), (a, sb, sc)
            elif da & low:
                x, y = (sa, b, sc), (sa, sb, c)
            else:
                x, y = (a, sb, sc), (sa, sb, c)
            for neighbour in (x, y):
                nxt, rho = _sort3(*neighbour)
                reached = _MUL[tau][rho]
                known = transports.get(nxt)
                if known is None:
                    transports[nxt] = reached
                    stack.append((nxt, reached, low))
                elif known != reached:
                    found |= 1 << _MUL[reached][_INV[known]]
        if len(transports) > cap:
            raise ClassSizeExceeded(f"descent-cycling class exceeds {cap}")
    group = _generated(found)
    size = sum(len(group) // _stabilizer(node).bit_count() for node in transports)
    if size > cap:
        raise ClassSizeExceeded(f"descent-cycling class exceeds {cap}")
    return _DcClass(transports, group, size, trivial)


def _dc_lookup(t: Triple) -> tuple[_RankTable, _DcClass, tuple[int, ...]]:
    """t's rank table, the record of a class C and the coset gH with t in gC.

    The record is the table's, or comes from a walk started at t, which the
    table then remembers under every node unless there are more than
    DC_TABLE_BOUND.  A closure that overflows DC_CLASS_CAP is not
    remembered.
    """
    table = _rank_table(t.n)
    node, rho = _sort3(*map(table.number, t.factors))
    cls = table.classes.get(node)
    if cls is None:
        cls = _dc_walk(table, node, rho)
        if len(cls.transports) <= DC_TABLE_BOUND:
            table.classes.update(dict.fromkeys(cls.transports, cls))
    elif cls.size > DC_CLASS_CAP:
        raise ClassSizeExceeded(f"descent-cycling class exceeds {DC_CLASS_CAP}")
    g = _MUL[rho][_INV[cls.transports[node]]]
    return table, cls, tuple(_MUL[g][h] for h in cls.group)


def _members(
    table: _RankTable, cls: _DcClass, coset: Sequence[int], nodes: Iterable[_Node]
) -> Iterator[Factors]:
    """The members of gC on the given nodes, for the coset gH; repeats possible."""
    perms, transports = table.perms, cls.transports
    for node in nodes:
        tau = transports[node]
        for g in coset:
            p = _S3[_MUL[g][tau]]
            yield perms[node[p[0]]], perms[node[p[1]]], perms[node[p[2]]]


def dc_class(t: Triple) -> frozenset[Factors]:
    """Factor tuples of the closure of t under descent-cycling moves.

    At a position i where exactly one of u, v, w has a descent, the
    reflection s_i may be shuffled between that word and either of the other
    two.  Every move keeps the words in S_n and the total length, so members
    are never revalidated, and every member has the same intersection number.

    The closure is the walk over S_3-orbits of triples that dc_test runs
    (see _dc_walk), expanded into its members; a class its rank's table
    remembers is expanded without a walk.  Raises ClassSizeExceeded when
    the class has more than DC_CLASS_CAP members.
    """
    table, cls, coset = _dc_lookup(t)
    return frozenset(_members(table, cls, coset, cls.transports))


def dc_test(t: Triple) -> VanishingVerdict:
    """Vanishes when some member of the closure has a common ascent.

    Reports the first such member in sorted order of factor tuples.  The
    closure is walked over S_3-orbits of triples (see _dc_walk), once per
    process for a class and all its reorderings: its rank's table remembers
    the walk under every node, the sorted triple of factor numbers, and a
    later triple on one of those nodes gets its class size from the record.
    The first dc-trivial member of a reordering gC of the class walked is
    the least image of the dc-trivial nodes under the coset gH of its
    stabilizer, computed once per coset, when first asked for.  The cap
    holds on a remembered class too: a class of more than DC_CLASS_CAP
    members raises ClassSizeExceeded.
    """
    method = "descent_cycling"
    table, cls, coset = _dc_lookup(t)
    key = min(coset)
    if key not in cls.firsts:
        cls.firsts[key] = min(_members(table, cls, coset, cls.trivial), default=None)
    size, first = cls.size, cls.firsts[key]
    if first is not None:
        detail = (
            "dc-trivial member "
            + ",".join(permcore.format_permutation(x) for x in first)
            + f" in a class of {size}"
        )
        return VanishingVerdict(Outcome.VANISHES, method, detail=detail)
    return VanishingVerdict(
        Outcome.INCONCLUSIVE, method, detail=f"class of {size}, none dc-trivial"
    )


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
