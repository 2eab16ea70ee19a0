"""The Schubitope of a diagram: subset inequalities, fillings, and max-flow.

For a diagram D inside [n] x [m] and a row subset S, each column is read
top to bottom into a word over { ( , ) , * }:

    (   cell absent, row in S
    )   cell present, row not in S
    *   cell present, row in S

theta_D(S) adds, over all columns, the number of matched "()" pairs plus
the number of stars.  The Schubitope S_D consists of the nonnegative alpha
with sum(alpha) = #D and sum_{i in S} alpha_i <= theta_D(S) for all proper
subsets S.  Its lattice points are exactly the contents of the column-strict
flag-bounded fillings of D.  ``filling_or_cut`` decides membership by one
integral max-flow and returns either such a filling or one violated subset
inequality (the min cut).  The flow starts from a greedy partial filling
(earliest modified deadline first, on the diagram's ``column_caps``,
which every flow on it reuses), which is usually already maximum;
augmenting paths complete it, and the last search, which finds none,
yields the cut.  That cut does not depend on the starting flow.
``lp_feasible`` restates the cut as integer multipliers of the
relaxation LP (``FarkasCertificate``).  The reference that
tests compare the flow against is S_D as the generalized permutahedron
P(theta_D) (``schubitope_gpermutahedron``): one 2^n table of theta_D and
its subset scan, at up to ``gpermutahedron.MAX_GROUND_SET`` rows.
"""

from __future__ import annotations

import collections
import functools
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .permcore import Cell, Diagram, Frozen

if TYPE_CHECKING:
    from .gpermutahedron import GPermutahedron

LPAREN = "("
RPAREN = ")"
STAR = "*"


class DegreeMismatchError(ValueError):
    """Content vector total does not match the diagram's cell count."""


def column_word(d: Diagram, c: int, rows_in_s: Iterable[int]) -> tuple[str, ...]:
    """The bracket word of column c for row subset S, read top to bottom."""
    if not (1 <= c <= d.n_cols):
        raise IndexError(f"column {c} out of range 1..{d.n_cols}")
    s = set(rows_in_s)
    cells = set(d.columns[c - 1])
    return tuple(
        (STAR if r in cells else LPAREN) if r in s else RPAREN
        for r in range(1, d.n_rows + 1)
        if r in s or r in cells
    )


def matched_pairs_and_stars(word: Sequence[str]) -> int:
    """Stack scan: each ) consumes one pending ( as a pair; stars count as is."""
    pending = 0
    pairs = 0
    stars = 0
    for sym in word:
        if sym == LPAREN:
            pending += 1
        elif sym == RPAREN:
            if pending:
                pending -= 1
                pairs += 1
        else:
            stars += 1
    return pairs + stars


def theta(d: Diagram, rows_in_s: Iterable[int]) -> int:
    """theta_D(S): the matched pairs and stars of every column word.

    Empty columns give words of "(" alone and add nothing.  Theta over the
    full row set equals #D.
    """
    s = frozenset(rows_in_s)
    return sum(
        matched_pairs_and_stars(column_word(d, c, s))
        for c, rows in enumerate(d.columns, start=1)
        if rows
    )


class InfeasibleSubset(Frozen):
    """A violated Schubitope inequality: sum over rows exceeds theta."""

    __slots__ = _fields = ("rows", "lhs", "rhs")

    def __init__(self, rows: tuple[int, ...], lhs: int, rhs: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def validate(self, d: Diagram, alpha: Sequence[int]) -> bool:
        """Recompute both sides from scratch."""
        rows = self.rows
        if len(set(rows)) != len(rows):
            return False
        if not all(1 <= i <= min(d.n_rows, len(alpha)) for i in rows):
            return False
        lhs = sum(alpha[i - 1] for i in rows)
        rhs = theta(d, rows)
        return lhs == self.lhs and rhs == self.rhs and lhs > rhs


class SchubitopeInequalities:
    """S_D as ``polytope = schubitope_gpermutahedron(d)``, beside its diagram.

    ``table[mask]`` is theta_D of the rows in mask (bit i-1 for row i), and
    ``contains`` is the polytope's.  The package calls
    ``schubitope_gpermutahedron`` itself; only the tests and the benchmark's
    tracer use this wrapper.
    """

    def __init__(self, d: Diagram):
        self.diagram = d
        self.polytope = schubitope_gpermutahedron(d)
        self.table = self.polytope.z.values

    def contains(self, alpha: Sequence[int]) -> bool:
        """alpha in S_D: degree equality plus every proper subset inequality."""
        return self.polytope.contains(alpha)


def schubitope_membership(
    d: Diagram, alpha: Sequence[int]
) -> tuple[bool, Optional[InfeasibleSubset]]:
    """Decide alpha in S_D by the max-flow of ``filling_or_cut``.

    Returns (True, None) for members and (False, cert) with the min-cut
    inequality for non-members of the right degree.  When the degree
    equality sum(alpha) = #D fails, returns (False, None): no single subset
    inequality witnesses that.
    """
    try:
        found = filling_or_cut(d, alpha)
    except DegreeMismatchError:
        return False, None
    if isinstance(found, InfeasibleSubset):
        return False, found
    return True, None


def schubitope_gpermutahedron(d: Diagram) -> GPermutahedron:
    """S_D as P(z) with z(S) = theta_D(S), tabulated once.

    ``contains`` checks sum(alpha) = theta_D([n]) = #D and every proper
    subset inequality.  No sign check is needed: each matched pair and each
    star of theta_D(S) uses a distinct cell, so theta_D(S) <= #D, and a
    point of degree #D has alpha_i = #D - alpha([n] - {i}) >= #D -
    theta_D([n] - {i}) >= 0.  Needs n_rows <=
    ``gpermutahedron.MAX_GROUND_SET``; ``filling_or_cut`` has no cap.
    """
    from .gpermutahedron import GPermutahedron, SubmodularFn

    return GPermutahedron(SubmodularFn.from_callable(d.n_rows, lambda s: theta(d, s)))


class Filling(Frozen):
    """Labels on the cells of a diagram, stored as sorted (cell, label) pairs."""

    __slots__ = _fields = ("diagram", "labels")

    def __init__(self, diagram: Diagram, labels: tuple[tuple[Cell, int], ...]) -> None:
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_dict(cls, d: Diagram, labels: dict[Cell, int]) -> "Filling":
        return cls(d, tuple(sorted(labels.items())))

    def content(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for _, l in self.labels:
            counts[l - 1] += 1
        return tuple(counts)


def label_caps(rows: Sequence[int]) -> list[int]:
    """The largest label each cell of a column can hold in a filling.

    rows: the column's cell rows, top down.  cap_t = min over s >= t of
    r_s - (s - t): the labels below cell t must still fit strictly
    increasing under their rows.  A column admits labels iff cap_t >= t
    (counting from 1) for every t.
    """
    caps = list(rows)
    for t in range(len(caps) - 2, -1, -1):
        caps[t] = min(caps[t], caps[t + 1] - 1)
    return caps


@functools.lru_cache(maxsize=8)
def column_caps(columns: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """``label_caps`` of each column of a diagram, () for an empty column.

    columns: ``Diagram.columns``.  Every flow on a diagram and every point
    sampled from it reads the same caps, so the caps of the last few
    diagrams are kept.  Raises RuntimeError when a column admits no labels;
    a ``Diagram`` has none such, since its t-th cell from the top sits in
    row t or below.
    """
    caps = tuple(tuple(label_caps(rows)) if rows else () for rows in columns)
    for c, column in enumerate(caps, start=1):
        # cap_t - t never falls as t grows, so the top cell decides
        if column and column[0] < 1:
            raise RuntimeError(f"no admissible labels for column {c}")
    return caps


def _earliest_deadline_start(
    columns: Sequence[tuple[int, ...]],
    caps: Sequence[Sequence[int]],
    alpha: Sequence[int],
) -> tuple[list[dict[int, int]], list[list[int]], list[int]]:
    """A partial filling by earliest modified deadline, as flow state.

    Each column is a chain of unit jobs, its cells top down; label i is
    time slot i with alpha_i machines, and a cell is due by its cap
    (caps[c] holds the ``label_caps`` of column c).  For i = 1..n, label i
    goes to the next cell of at most alpha_i columns, smallest cap first,
    ties by column.  A cell whose cap is below i is late: it stays free,
    and the next cell of its column takes its turn.  Returns owner[c][r]
    (the label in row r of column c, 0 when free), where[c][i] (the row
    holding label i in column c, 0 when unused) and used[i] (the number of
    columns holding label i).
    """
    n = len(alpha)
    owner = [dict.fromkeys(rows, 0) for rows in columns]
    where = [[0] * (n + 1) for _ in columns]
    used = [0] * (n + 1)
    # waiting[e]: columns whose next cell, nxt[c], has cap e
    waiting: list[list[int]] = [[] for _ in range(n + 1)]
    nxt = [0] * len(columns)
    for c, cap in enumerate(caps):
        waiting[cap[0]].append(c)

    def advance(c: int) -> None:
        t = nxt[c] = nxt[c] + 1
        if t < len(caps[c]):
            waiting[caps[c][t]].append(c)

    for i in range(1, n + 1):
        for c in waiting[i - 1]:  # late: the cell stays free
            advance(c)
        taken: list[int] = []
        for e in range(i, n + 1):
            want = alpha[i - 1] - len(taken)
            if not want:
                break
            bucket = waiting[e]
            bucket.sort()
            taken += bucket[:want]
            del bucket[:want]
        for c in taken:
            r = columns[c][nxt[c]]
            owner[c][r] = i
            where[c][i] = r
            advance(c)
        used[i] = len(taken)
    return owner, where, used


def filling_or_cut(d: Diagram, alpha: Sequence[int]) -> Union[Filling, InfeasibleSubset]:
    """Decide alpha in S_D by an integral max-flow on the filling network.

    The network runs source -> label i (capacity alpha_i) -> pair (i, column
    j) (capacity 1) -> cell (r, j) with r >= i (capacity 1) -> sink.  The
    flow starts from the earliest-deadline partial filling
    (``_earliest_deadline_start``), which often fills every cell already;
    breadth-first augmenting paths then raise it to a maximum flow.  A flow
    that fills every cell puts distinct labels i <= r into each column;
    sorted down the column they form the filling returned.  Otherwise the
    last search, which finds no augmenting path, marks the labels reachable
    from the source in the residual graph.  They form the unique
    inclusion-minimal min cut S, whatever the starting flow and the
    augmenting order, so the certificate does not depend on the greedy.
    Its capacity alpha([n] - S) + theta_D(S) is below #D = sum(alpha), so S
    is returned as the violated inequality alpha(S) > theta_D(S), after
    both sides are recomputed.  Requires sum(alpha) = #D; anything else is
    a caller error.

    >>> from schubvanish.permcore import rothe_diagram
    >>> filling_or_cut(rothe_diagram((2, 1, 5, 4, 3)), (4, 0, 0, 0, 0))
    InfeasibleSubset(rows=(1,), lhs=4, rhs=3)
    """
    n = d.n_rows
    if len(alpha) != n:
        raise ValueError("content vector length must equal n_rows")
    if any(a < 0 for a in alpha):
        raise ValueError("content entries must be nonnegative")
    if sum(alpha) != d.cell_count:
        raise DegreeMismatchError(
            f"sum(alpha) = {sum(alpha)} but the diagram has {d.cell_count} cells"
        )
    nonempty = [j for j, rows in enumerate(d.columns, start=1) if rows]
    columns = [d.columns[j - 1] for j in nonempty]
    all_caps = column_caps(d.columns)
    owner, where, used = _earliest_deadline_start(
        columns, [all_caps[j - 1] for j in nonempty], alpha
    )
    # BFS tree of one round.  label -> column of the pair that gave it back,
    # None for the source; (label, column) -> None when entered from its
    # label, else (k, r): pair (k, column) takes over cell r from it
    label_parent: dict[int, Optional[int]] = {}
    pair_parent: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
    queue: collections.deque[tuple[int, int]] = collections.deque()

    def reach_label(i: int, via: Optional[int]) -> None:
        label_parent[i] = via
        for c, rows in enumerate(columns):
            if not where[c][i] and rows[-1] >= i:
                pair_parent[(i, c)] = None
                queue.append((i, c))

    while True:
        label_parent.clear()
        pair_parent.clear()
        queue.clear()
        for i in range(1, n + 1):
            if used[i] < alpha[i - 1]:
                reach_label(i, None)
        end = None
        while queue and end is None:
            i, c = queue.popleft()
            mine = where[c][i]
            if mine and i not in label_parent:
                reach_label(i, c)
            for r in columns[c]:
                if r < i or r == mine:
                    continue
                k = owner[c][r]
                if not k:
                    end = (i, c, r)
                    break
                if (k, c) not in pair_parent:
                    pair_parent[(k, c)] = (i, r)
                    queue.append((k, c))
        if end is None:
            break
        i, c, r = end
        while True:
            where[c][i] = r
            owner[c][r] = i
            parent = pair_parent[(i, c)]
            if parent is None:
                via = label_parent[i]
                if via is None:
                    used[i] += 1
                    break
                # label i leaves column via; the pair that displaced it
                # takes over its cell there
                c = via
                where[c][i] = 0
                parent = pair_parent[(i, c)]
            i, r = parent
    if label_parent:
        rows_in_s = tuple(sorted(label_parent))
        lhs = sum(alpha[i - 1] for i in rows_in_s)
        rhs = theta(d, rows_in_s)
        if lhs <= rhs:
            raise RuntimeError(f"min cut {rows_in_s} is not a violated inequality")
        return InfeasibleSubset(rows_in_s, lhs, rhs)
    labels = {}
    for j, c_owner in zip(nonempty, owner):
        for r, i in zip(sorted(c_owner), sorted(c_owner.values())):
            labels[(r, j)] = i
    return Filling.from_dict(d, labels)


class FarkasCertificate(Frozen):
    """LP multipliers proving the relaxation polytope of (D, alpha) empty.

    The relaxation has a variable x_ij in [0, 1] for each label i and each
    column j in ``columns``, the equalities sum_j x_ij = alpha_i and, for the
    t-th cell (s, j) of a column, the prefix inequality sum_{i <= s} x_ij >= t.
    content[i-1] multiplies the equality of label i; prefix lists
    ((s, j), multiplier >= 0) for the prefix inequalities used.
    ``lp_feasible`` gives integer multipliers; ``validate`` replays any
    exact numbers, ``Fraction`` included.
    """

    __slots__ = _fields = ("content", "prefix", "columns")

    def __init__(
        self,
        content: tuple[int, ...],
        prefix: tuple[tuple[tuple[int, int], int], ...],
        columns: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "columns", columns)

    def validate(self, d: Diagram, alpha: Sequence[int]) -> bool:
        """Check that the combined row's maximum over the box is below its right side."""
        n = d.n_rows
        columns = set(self.columns)
        if len(self.content) != n or len(alpha) != n or len(columns) != len(self.columns):
            return False
        nonempty = {j for j, rows in enumerate(d.columns, start=1) if rows}
        if not nonempty <= columns <= set(range(1, d.n_cols + 1)):
            return False
        weight: dict[tuple[int, int], int] = {}
        rhs = sum(y * a for y, a in zip(self.content, alpha))
        for (s, j), mult in self.prefix:
            cells = d.columns[j - 1] if j in nonempty else ()
            if mult < 0 or s not in cells or (s, j) in weight:
                return False
            weight[(s, j)] = mult
            rhs += mult * (cells.index(s) + 1)
        lhs = 0
        for j in columns:
            z = 0  # multipliers of the prefix rows of column j at rows >= i
            for i in range(n, 0, -1):
                z += weight.get((i, j), 0)
                lhs += max(0, self.content[i - 1] + z)
        return lhs < rhs


def lp_feasible(d: Diagram, alpha: Sequence[int]) -> Union[Filling, FarkasCertificate]:
    """Decide the relaxation LP of (D, alpha) by ``filling_or_cut``.

    A filling is an integral point.  A min cut S becomes LP multipliers: -1
    on the equality of each label outside S and, in each column, 1 on the
    prefix row where t - #(S within rows 1..s) peaks above 0.  The box
    maximum of the combined row then falls short of its right side by
    alpha(S) - theta_D(S), since theta of a column is its cell count less
    that peak.
    """
    found = filling_or_cut(d, alpha)
    if isinstance(found, Filling):
        return found
    in_s = set(found.rows)
    prefix = []
    for j, rows in enumerate(d.columns, start=1):
        peak, peak_row = 0, 0
        for t, s in enumerate(rows, start=1):
            short = t - sum(1 for i in in_s if i <= s)
            if short > peak:
                peak, peak_row = short, s
        if peak:
            prefix.append(((peak_row, j), 1))
    content = tuple(0 if i in in_s else -1 for i in range(1, d.n_rows + 1))
    return FarkasCertificate(content, tuple(prefix), tuple(range(1, d.n_cols + 1)))
