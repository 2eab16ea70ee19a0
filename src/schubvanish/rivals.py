"""Three comparison vanishing tests: Bruhat order, descent cycling, root games.

Each is a classical sufficient criterion for a Schubert intersection number
to vanish, implemented here so the polytope test can be benchmarked against
them on concrete problems.  All of them return the same three-valued
verdicts as the main tests.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Sequence

from . import permcore
from .permcore import Frozen, Perm
from .vanishing import Outcome, VanishingVerdict

Factors = tuple[Perm, Perm, Perm]


class ClassSizeExceeded(RuntimeError):
    """Descent-cycling closure grew past the configured cap."""


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


def _mask(positions: Sequence[int]) -> int:
    """The bitmask with bit i set for each position i."""
    return sum(1 << i for i in positions)


# Permutations plus remembered class members that one rank's descent-cycling
# table may hold; a table past it is dropped and rebuilt on its next use.
DC_TABLE_BOUND = 1 << 16


class _RankTable:
    """Descent-cycling state of one rank, kept for the life of the process.

    Permutations are numbered as they are met.  Per number the table keeps
    the permutation, its descent bitmask and a lazily filled row of the
    numbers of x * s_i.  verdicts maps each member of every class dc_test
    enumerated to (class size, first dc-trivial member or None), one pair
    per class, keyed by the member tuples of the class itself.  The tables
    are shared by every caller in the process and take no lock: descent
    cycling runs on one thread.
    """

    __slots__ = ("n", "ids", "perms", "descents", "rows", "verdicts")

    def __init__(self, n: int) -> None:
        self.n = n
        self.ids: dict[Perm, int] = {}
        self.perms: list[Perm] = []
        self.descents: list[int] = []
        self.rows: list[list[int]] = []  # rows[k][i]: number of perms[k] * s_i, or -1
        self.verdicts: dict[Factors, tuple[int, Optional[Factors]]] = {}

    def number(self, x: Perm) -> int:
        k = self.ids.get(x)
        if k is None:
            k = self.ids[x] = len(self.perms)
            self.perms.append(x)
            self.descents.append(_mask(permcore.descents(x)))
            self.rows.append([-1] * self.n)
        return k


_rank_tables: dict[int, _RankTable] = {}


def _rank_table(n: int) -> _RankTable:
    """The table of rank n, new when there is none or it passed DC_TABLE_BOUND."""
    table = _rank_tables.get(n)
    if table is None or len(table.perms) + len(table.verdicts) > DC_TABLE_BOUND:
        table = _rank_tables[n] = _RankTable(n)
    return table


def dc_class(t: Triple, cap: int = 10**6) -> frozenset[Factors]:
    """Factor tuples of the closure of t under descent-cycling moves.

    At a position i where exactly one of u, v, w has a descent, the
    reflection s_i may be shuffled between that word and either of the other
    two.  Every move keeps the words in S_n and the total length, so members
    are never revalidated, and every member has the same intersection number.

    Words are numbered in the table of their rank, which every class of that
    rank shares for the life of the process: the descent bitmask of each
    permutation and its row of x * s_i numbers are computed once per
    process, not once per class.  A table holding more than DC_TABLE_BOUND
    permutations and remembered members (see dc_test) is dropped and
    rebuilt on its next use.  A member is a triple of small ints and a move
    costs a few integer operations; the members are turned back into
    permutations at the end.  Raises ClassSizeExceeded when the class has
    more than cap members.
    """
    table = _rank_table(t.n)
    perms, descents, rows, number = table.perms, table.descents, table.rows, table.number

    def swapped(k: int, i: int) -> int:
        s = rows[k][i] = number(permcore.right_mult_s(perms[k], i))
        return s

    start = tuple(number(x) for x in t.factors)
    seen = {start}
    stack = [start]
    while stack:
        a, b, c = stack.pop()
        da, db, dc = descents[a], descents[b], descents[c]
        moves = (da ^ db ^ dc) & ~(da & db & dc)
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
            if x not in seen:
                seen.add(x)
                stack.append(x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
        if len(seen) > cap:
            raise ClassSizeExceeded(f"descent-cycling class exceeds {cap}")
    return frozenset((perms[a], perms[b], perms[c]) for a, b, c in seen)


def dc_test(t: Triple, cap: int = 10**6) -> VanishingVerdict:
    """Vanishes when some member of the closure has a common ascent.

    Reports the first such member in sorted order of factor tuples.  A
    class's size and that member do not depend on which member the closure
    starts from, so once a class is enumerated, its rank's table remembers
    (size, first member) under every member; a later triple in the class
    gets its verdict from one lookup, without a closure or an ascent scan.
    The cap holds on such a hit too: a remembered class of more than cap
    members raises ClassSizeExceeded.  A closure that overflows its cap is
    not remembered, nor is a class larger than DC_TABLE_BOUND.
    """
    method = "descent_cycling"
    known = _rank_table(t.n).verdicts.get(t.factors)
    if known is None:
        cls = dc_class(t, cap=cap)
        table = _rank_tables[t.n]  # the table dc_class numbered the class in
        ids, descents = table.ids, table.descents
        every = _mask(range(1, t.n))  # a common ascent is a descent of none
        first = min(
            (
                m
                for m in cls
                if every & ~(descents[ids[m[0]]] | descents[ids[m[1]]] | descents[ids[m[2]]])
            ),
            default=None,
        )
        known = (len(cls), first)
        if len(cls) <= DC_TABLE_BOUND:
            table.verdicts.update(dict.fromkeys(cls, known))
    size, first = known
    if size > cap:
        raise ClassSizeExceeded(f"descent-cycling class exceeds {cap}")
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


class RootGamePosition(NamedTuple):
    """Token counts on the positive roots alpha_{a,b}, 1 <= a < b <= n."""

    n: int
    tokens: tuple[tuple[tuple[int, int], int], ...]

    def token_map(self) -> dict[tuple[int, int], int]:
        return dict(self.tokens)


def root_game_initial(ws: Sequence[Perm]) -> RootGamePosition:
    """One token at alpha_{a,b} per factor with an inversion at (a, b)."""
    embedded = permcore.common_embed(ws)
    n = len(embedded[0]) if embedded else 0
    counts: dict[tuple[int, int], int] = {}
    for w in embedded:
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                if w[a - 1] > w[b - 1]:
                    counts[(a, b)] = counts.get((a, b), 0) + 1
    return RootGamePosition(n, tuple(sorted(counts.items())))


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
    pos: RootGamePosition,
) -> tuple[bool, Optional[frozenset[tuple[int, int]]]]:
    """Whether some upper order filter holds more tokens than its size.

    The roots alpha_{a,b} are ordered by containment of intervals, with top
    element alpha_{1,n}.  An up-closed filter meets row a in a suffix
    {b : b >= cut_a} with a + 1 <= cut_a <= n + 1, and up-closure forces
    the cuts to be nondecreasing.  Row a contributes
    gain_a(c) = sum over b >= c of (tokens(a, b) - 1) to the filter's excess
    of tokens over size, so a dynamic program over rows from the bottom,
    best_a(c) = max over c' >= max(c, a + 1) of gain_a(c') + best_{a+1}(c'),
    finds the largest excess in O(n^2) steps; the position is doomed iff
    best_1(2) > 0.  The witness is the filter whose cut sequence is
    lexicographically first among the overloaded ones: row by row, the
    smallest cut that can still be completed to a positive excess.
    """
    n = pos.n
    tokens = pos.token_map()
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
    doomed, witness = is_doomed(root_game_initial(posed[0]))
    if doomed:
        assert witness is not None
        roots = ",".join(f"a[{a},{b}]" for a, b in sorted(witness))
        return VanishingVerdict(
            Outcome.VANISHES, method, detail=f"overloaded filter {{{roots}}}"
        )
    return VanishingVerdict(Outcome.INCONCLUSIVE, method)
