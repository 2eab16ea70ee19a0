"""Permutations in one-line notation, their diagrams, codes, and Bruhat order.

A permutation of {1, ..., n} is a plain tuple of ints in one-line notation,
``w = (w(1), ..., w(n))``.  All positions and values are 1-based, matching
the usual combinatorics conventions.  Everything here is immutable.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterable, Optional, Sequence

Perm = tuple[int, ...]
Cell = tuple[int, int]


def is_permutation(word: Sequence[int]) -> bool:
    """
    True if word is a bijection on {1, ..., n}.

    >>> is_permutation((2, 1, 3)), is_permutation((1, 1, 2)), is_permutation(())
    (True, False, True)
    """
    n = len(word)
    return sorted(word) == list(range(1, n + 1))


def check_permutation(word: Iterable[int]) -> Perm:
    """Validate and normalize to a tuple, raising ValueError on bad input."""
    w = tuple(word)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def w0(n: int) -> Perm:
    """The longest element n, n-1, ..., 2, 1.

    >>> w0(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def length(w: Perm) -> int:
    """Number of inversions #{i < j : w(i) > w(j)}.

    >>> length((1, 2, 3, 4)), length((4, 3, 2, 1))
    (0, 6)
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def code(w: Perm) -> tuple[int, ...]:
    """Entry i counts j > i with w(j) < w(i); the row counts of the diagram.

    >>> code((4, 3, 1, 2))
    (3, 2, 0, 0)
    """
    n = len(w)
    return tuple(sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def multiply(u: Perm, v: Perm) -> Perm:
    """Composition (u*v)(i) = u(v(i)); sizes must match.

    >>> multiply((3, 1, 2), (2, 3, 1))
    (1, 2, 3)
    """
    if len(u) != len(v):
        raise ValueError("size mismatch in product")
    return tuple(u[x - 1] for x in v)


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """Right multiplication w * t_{ij}; swaps the entries at positions i, j."""
    n = len(w)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"positions {i}, {j} out of range 1..{n}")
    lst = list(w)
    lst[i - 1], lst[j - 1] = lst[j - 1], lst[i - 1]
    return tuple(lst)


def descents(w: Perm) -> tuple[int, ...]:
    """Positions i with w(i) > w(i+1).

    >>> descents((1, 4, 2, 3))
    (2,)
    """
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def ascents(w: Perm) -> tuple[int, ...]:
    """Positions i < n with w(i) < w(i+1)."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] < w[i])


def embed(w: Perm, m: int) -> Perm:
    """Image of w under S_n -> S_m, appending fixed points n+1, ..., m."""
    if m < len(w):
        raise ValueError(f"cannot embed a word of length {len(w)} into S_{m}")
    return w + tuple(range(len(w) + 1, m + 1))


def trim(w: Perm) -> Perm:
    """Drop trailing fixed points; the stable representative of w."""
    n = len(w)
    while n > 0 and w[n - 1] == n:
        n -= 1
    return w[:n]


def common_embed(ws: Iterable[Perm]) -> list[Perm]:
    """Embed all words into S_N for N the maximum word length."""
    ws = [tuple(w) for w in ws]
    n = max((len(w) for w in ws), default=0)
    return [embed(w, n) for w in ws]


def well_posed(
    factors: Iterable[Perm], target: Optional[Perm]
) -> Optional[tuple[list[Perm], Perm]]:
    """The factors and the target (w0 when None) embedded in a common S_n;
    None unless the factor lengths sum to the target's length."""
    if target is None:
        ws = common_embed(factors)
        n = len(ws[0]) if ws else 0
        target, goal = w0(n), n * (n - 1) // 2  # the length of w0
    else:
        *ws, target = common_embed([*factors, target])
        goal = length(target)
    if sum(length(w) for w in ws) != goal:
        return None
    return ws, target


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Bruhat order via the tableau criterion.

    For every k, the sorted set {u(1),...,u(k)} must be entrywise <= the
    sorted {v(1),...,v(k)}; it suffices to check the descents k of u
    (Björner–Brenti, Theorem 2.6.3).  Words of different lengths are
    embedded first.

    >>> bruhat_leq((1, 3, 4, 2), (2, 4, 1, 3))
    False
    >>> bruhat_leq((2, 1), (3, 2, 1))
    True
    >>> bruhat_leq((1, 2, 3, 5, 4), (2, 1))
    False
    """
    if len(u) != len(v):
        u, v = common_embed([u, v])
    su: list[int] = []
    sv: list[int] = []
    for k in range(len(u) - 1):
        bisect.insort(su, u[k])
        bisect.insort(sv, v[k])
        if u[k] > u[k + 1] and not all(map(operator.le, su, sv)):
            return False
    return True


def all_perms(n: int) -> list[Perm]:
    """All of S_n in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


class Frozen:
    """Field-wise equality, hash and repr over ``_fields``, as in a frozen dataclass.

    The base of the package's value classes on the batch path.  With the
    ``str`` subclass ``vanishing.Outcome`` in place of an Enum, it stands in
    for ``dataclasses``, ``typing.NamedTuple`` and ``enum``, whose imports
    and class building (namedtuple compiles each class's ``__new__``) would
    add milliseconds to the start-up of every CLI process.  Equality needs the
    same class.  ``__init__`` takes the fields in ``_fields`` order, by
    position or keyword, and sets each once through ``object.__setattr__``;
    assigning or deleting an attribute afterwards raises AttributeError.
    ``_replace`` and ``_asdict`` work as NamedTuple's do, and copies and
    pickles are rebuilt through ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        """The fields by name, in ``_fields`` order."""
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes: object):
        """A new instance with the given fields changed."""
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Diagram(Frozen):
    """Cells of a grid with n_rows rows, stored column by column.

    ``columns[j - 1]`` holds the rows of the cells in column j, increasing,
    and empty columns are kept, so the grid has ``len(columns)`` columns.
    Cells are 1-based (row, column) pairs.  Equality, hash and repr are
    over (columns, n_rows); instances are immutable and hashable.
    """

    __slots__ = _fields = ("columns", "n_rows")

    def __init__(self, columns: Iterable[Iterable[int]], n_rows: int) -> None:
        columns = tuple(map(tuple, columns))
        for j, rows in enumerate(columns, start=1):
            if rows and not (
                0 < rows[0] and rows[-1] <= n_rows and all(map(operator.lt, rows, rows[1:]))
            ):
                raise ValueError(f"column {j} rows {rows} not increasing within 1..{n_rows}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "n_rows", n_rows)

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset((r, j) for j, rows in enumerate(self.columns, start=1) for r in rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def cell_count(self) -> int:
        return sum(map(len, self.columns))

    def row_counts(self) -> tuple[int, ...]:
        counts = [0] * self.n_rows
        for rows in self.columns:
            for r in rows:
                counts[r - 1] += 1
        return tuple(counts)


def diagram(cells: Iterable[Cell], n_rows: int, n_cols: int) -> Diagram:
    """The diagram of a set of (row, column) cells inside an n_rows x n_cols grid."""
    columns: list[list[int]] = [[] for _ in range(n_cols)]
    for (r, c) in sorted(set(cells)):
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise ValueError(f"cell {(r, c)} outside {n_rows}x{n_cols} grid")
        columns[c - 1].append(r)
    return Diagram(columns, n_rows)


def rothe_diagram(w: Perm) -> Diagram:
    """Cells {(i, j) : j < w(i) and i < w^{-1}(j)} in an n x n grid.

    Column j holds the rows i < w^{-1}(j) with w(i) > j.  The number of
    cells equals length(w) and the row counts equal code(w).
    """
    n = len(w)
    winv = inverse(w)
    return Diagram(
        ([i for i, x in enumerate(w[: winv[j - 1] - 1], start=1) if x > j] for j in range(1, n + 1)),
        n,
    )


def concat_diagrams(ds: Sequence[Diagram]) -> Diagram:
    """Place the diagrams side by side, left to right; row bounds must agree."""
    if not ds:
        return Diagram((), 0)
    n = ds[0].n_rows
    if any(d.n_rows != n for d in ds):
        raise ValueError("diagrams must share the same number of rows")
    return Diagram((rows for d in ds for rows in d.columns), n)


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation.

    Accepts space- or comma-separated values (``3 2 5 6 1 4 7``) or, for
    n <= 9, a contiguous digit string (``3256147``).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    tokens = text.replace(",", " ").split()
    # ASCII digits only: str.isdigit and int also take other scripts' digits
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"cannot parse permutation from {text!r}")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        tok = tokens[0]
        if "0" in tok:
            raise ValueError(
                f"contiguous digit form only covers values 1..9: {text!r}"
            )
        return check_permutation(int(ch) for ch in tok)
    return check_permutation(int(t) for t in tokens)


def format_permutation(w: Perm) -> str:
    """Inverse of parse_permutation: digits for n <= 9, else space-separated."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return " ".join(str(v) for v in w)
