"""Three comparison vanishing tests: Bruhat order, descent cycling, root games.

Each is a classical sufficient criterion for a Schubert intersection number
to vanish, implemented here so the polytope test can be benchmarked against
them on concrete problems.  All of them return the same three-valued
verdicts as the main tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import permcore
from .permcore import Perm
from .vanishing import Outcome, VanishingVerdict

Factors = tuple[Perm, Perm, Perm]


class ClassSizeExceeded(RuntimeError):
    """Descent-cycling closure grew past the configured cap."""


@dataclass(frozen=True)
class Triple:
    """An ordered triple (u, v, w) with lengths summing to n(n-1)/2."""

    u: Perm
    v: Perm
    w: Perm

    def __post_init__(self) -> None:
        embedded = _well_posed((self.u, self.v, self.w))
        if embedded is None:
            raise ValueError("triple lengths do not sum to n(n-1)/2")
        object.__setattr__(self, "u", embedded[0])
        object.__setattr__(self, "v", embedded[1])
        object.__setattr__(self, "w", embedded[2])

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def factors(self) -> Factors:
        return (self.u, self.v, self.w)


def _well_posed(ws: Sequence[Perm]) -> Optional[list[Perm]]:
    """The words embedded in a common S_n; None unless lengths sum to n(n-1)/2."""
    ws = permcore.common_embed(ws)
    n = len(ws[0]) if ws else 0
    if sum(permcore.length(w) for w in ws) != n * (n - 1) // 2:
        return None
    return ws


def bruhat_vanishing_test(ws: Sequence[Perm]) -> VanishingVerdict:
    """Vanishes when some factor is not below the complement of another.

    Scans ordered pairs (i, j) lexicographically and reports the first pair
    with w_i not <= w0 * w_j.
    """
    method = "bruhat"
    embedded = _well_posed(ws)
    if embedded is None:
        return VanishingVerdict(Outcome.DEGREE_MISMATCH, method)
    n = len(embedded[0])
    longest = permcore.w0(n)
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


def _swap(x: Perm, i: int) -> Perm:
    """x * s_i: the entries at positions i and i + 1 exchanged."""
    return x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :]


def _dc_neighbors(factors: Factors) -> Iterator[Factors]:
    """All descent-cycling moves from a factor tuple.

    For each position i, whenever exactly one of the three words has a
    descent at i, the reflection s_i may be shuffled between that word and
    either of the other two; the intersection number and the total length
    are preserved, so the neighbours need no revalidation.
    """
    u, v, w = factors
    for i in range(1, len(u)):
        du = u[i - 1] > u[i]
        dv = v[i - 1] > v[i]
        dw = w[i - 1] > w[i]
        if du + dv + dw != 1:
            continue
        us, vs, ws = _swap(u, i), _swap(v, i), _swap(w, i)
        if dw:
            yield (us, v, ws)
            yield (u, vs, ws)
        elif du:
            yield (us, v, ws)
            yield (us, vs, w)
        else:
            yield (u, vs, ws)
            yield (us, vs, w)


def dc_class(t: Triple, cap: int = 10**6) -> frozenset[Factors]:
    """Factor tuples of the closure of t under descent-cycling moves.

    Breadth first over raw (u, v, w) tuples, starting from t.factors; t was
    validated when it was built, and every move keeps the words in S_n and
    the total length, so no member is revalidated.  Every member has the
    same intersection number.  Raises ClassSizeExceeded beyond the cap.
    """
    start = t.factors
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in _dc_neighbors(queue.popleft()):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ClassSizeExceeded(f"descent-cycling class exceeds {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def dc_test(t: Triple, cap: int = 10**6) -> VanishingVerdict:
    """Vanishes when some member of the closure has a common ascent.

    Reports the first such member in sorted order of factor tuples.
    """
    method = "descent_cycling"
    cls = dc_class(t, cap=cap)
    for member in sorted(cls):
        if dc_trivial(member):
            detail = (
                "dc-trivial member "
                + ",".join(permcore.format_permutation(x) for x in member)
                + f" in a class of {len(cls)}"
            )
            return VanishingVerdict(Outcome.VANISHES, method, detail=detail)
    return VanishingVerdict(
        Outcome.INCONCLUSIVE, method, detail=f"class of {len(cls)}, none dc-trivial"
    )


@dataclass(frozen=True)
class RootGamePosition:
    """Token counts on the positive roots alpha_{a,b}, 1 <= a < b <= n."""

    n: int
    tokens: tuple[tuple[tuple[int, int], int], ...]

    def token_map(self) -> dict[tuple[int, int], int]:
        return dict(self.tokens)

    @property
    def total_tokens(self) -> int:
        return sum(c for _, c in self.tokens)


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
    Catalan numbers.  Emitted in lexicographic cut order.  is_doomed does
    not scan them; this enumeration is the reference it is tested against.
    """
    if n < 2:
        yield frozenset()
        return

    cuts = [0] * (n - 1)

    def rec(a: int, lo: int) -> Iterator[frozenset[tuple[int, int]]]:
        if a == n:
            yield frozenset(
                (row, b)
                for row in range(1, n)
                for b in range(cuts[row - 1], n + 1)
            )
            return
        for cut in range(max(lo, a + 1), n + 2):
            cuts[a - 1] = cut
            yield from rec(a + 1, cut)

    yield from rec(1, 2)


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
    embedded = _well_posed(ws)
    if embedded is None:
        return VanishingVerdict(Outcome.DEGREE_MISMATCH, method)
    doomed, witness = is_doomed(root_game_initial(embedded))
    if doomed:
        assert witness is not None
        roots = ",".join(f"a[{a},{b}]" for a, b in sorted(witness))
        return VanishingVerdict(
            Outcome.VANISHES, method, detail=f"overloaded filter {{{roots}}}"
        )
    return VanishingVerdict(Outcome.INCONCLUSIVE, method)
