"""Generalized permutahedra presented by submodular functions.

A function z on subsets of {1, ..., n} with z(empty) = 0 and
z(I) + z(J) >= z(I u J) + z(I n J) cuts out the polytope

    P(z) = { t : sum_{i in I} t_i <= z(I) for I != [n],  sum_i t_i = z([n]) }.

Subsets are bitmasks (bit i-1 holds element i); values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .permcore import Perm

Rational = Union[int, Fraction]

MAX_GROUND_SET = 20


def _check_ground_set(n: int) -> None:
    if not (0 <= n <= MAX_GROUND_SET):
        raise ValueError(f"ground set size {n} outside 0..{MAX_GROUND_SET}")


def _subset_sum(point: Sequence[Rational], mask: int) -> Rational:
    """Sum of point[i-1] over the elements i of mask."""
    s: Rational = 0
    while mask:
        low = mask & -mask
        s += point[low.bit_length() - 1]
        mask ^= low
    return s


@dataclass(frozen=True)
class SubmodularFn:
    """Dense table of a set function with z(empty) = 0."""

    n: int
    values: tuple[Rational, ...]

    def __post_init__(self) -> None:
        _check_ground_set(self.n)
        if len(self.values) != 1 << self.n:
            raise ValueError("value table must have 2^n entries")
        if self.values[0] != 0:
            raise ValueError("z(empty set) must be 0")

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[frozenset[int]], Rational]) -> "SubmodularFn":
        """Tabulate fn over all subsets of {1, ..., n}."""
        _check_ground_set(n)  # before 2^n calls of fn
        values = []
        for mask in range(1 << n):
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            values.append(fn(subset))
        return cls(n, tuple(values))

    def is_submodular(self) -> bool:
        """Exhaustive check of z(I) + z(J) >= z(I u J) + z(I n J)."""
        if self.n > 12:
            raise ValueError("exhaustive submodularity check capped at n = 12")
        v = self.values
        for i in range(1 << self.n):
            vi = v[i]
            for j in range(i + 1, 1 << self.n):
                if vi + v[j] < v[i | j] + v[i & j]:
                    return False
        return True

    def is_integral(self) -> bool:
        return all(Fraction(x).denominator == 1 for x in self.values)

    def __add__(self, other: "SubmodularFn") -> "SubmodularFn":
        if self.n != other.n:
            raise ValueError("ground set size mismatch")
        return SubmodularFn(
            self.n, tuple(a + b for a, b in zip(self.values, other.values))
        )


@dataclass(frozen=True)
class GPermutahedron:
    """The polytope P(z) for a submodular function z."""

    z: SubmodularFn

    @property
    def n(self) -> int:
        return self.z.n

    def vertex(self, w: Perm) -> tuple[Rational, ...]:
        """The vertex selected by the ordering w.

        Coordinate w_k receives z({w_1..w_k}) - z({w_1..w_{k-1}}); the
        result satisfies every defining inequality of P(z).
        """
        if sorted(w) != list(range(1, self.n + 1)):
            raise ValueError(f"ordering must be a permutation of 1..{self.n}")
        v: list[Rational] = [0] * self.n
        mask = 0
        prev: Rational = 0
        for wk in w:
            mask |= 1 << (wk - 1)
            cur = self.z.values[mask]
            v[wk - 1] = cur - prev
            prev = cur
        return tuple(v)

    def contains(self, t: Sequence[Rational]) -> bool:
        """Membership test against all 2^n - 1 inequalities plus the equality."""
        if len(t) != self.n:
            raise ValueError("point has the wrong dimension")
        full = (1 << self.n) - 1
        for mask in range(1, full):
            if _subset_sum(t, mask) > self.z.values[mask]:
                return False
        return sum(t) == self.z.values[full]

    def minkowski_sum(self, other: "GPermutahedron") -> "GPermutahedron":
        """P(z) + P(z') = P(z + z')."""
        return GPermutahedron(self.z + other.z)

    def __add__(self, other: "GPermutahedron") -> "GPermutahedron":
        return self.minkowski_sum(other)

    def lattice_points(self) -> frozenset[tuple[int, ...]]:
        """All integer points of P(z); requires integral z and n <= 8.

        Enumerates coordinate by coordinate inside the exact per-coordinate
        bounds, pruning with every subset inequality on the fixed prefix.
        Exponential in n, fine at desk scale.
        """
        n = self.n
        if n > 8:
            raise ValueError("lattice point enumeration capped at n = 8")
        if not self.z.is_integral():
            raise ValueError("lattice points require an integer-valued function")
        if n == 0:
            return frozenset({()})
        values = [int(x) for x in self.z.values]
        full = (1 << n) - 1
        total = values[full]
        lo = [total - values[full ^ (1 << i)] for i in range(n)]
        hi = [values[1 << i] for i in range(n)]
        if any(l > h for l, h in zip(lo, hi)):
            return frozenset()
        # masks_by_top[k]: masks whose highest element is k+1
        masks_by_top = [
            [m | (1 << k) for m in range(1 << k)] for k in range(n)
        ]
        suffix_lo = [0] * (n + 1)
        suffix_hi = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_lo[i] = suffix_lo[i + 1] + lo[i]
            suffix_hi[i] = suffix_hi[i + 1] + hi[i]

        out: set[tuple[int, ...]] = set()
        point = [0] * n

        def walk(k: int, running: int) -> None:
            if k == n:
                if running == total:
                    out.add(tuple(point))
                return
            for v in range(lo[k], hi[k] + 1):
                nxt = running + v
                if nxt + suffix_lo[k + 1] > total or nxt + suffix_hi[k + 1] < total:
                    continue
                point[k] = v
                ok = True
                for mask in masks_by_top[k]:
                    if mask == full:
                        continue
                    if _subset_sum(point, mask) > values[mask]:
                        ok = False
                        break
                if ok:
                    walk(k + 1, nxt)
            point[k] = 0

        walk(0, 0)
        return frozenset(out)


def standard_permutahedron(n: int) -> GPermutahedron:
    """Convex hull of all permutations of (0, 1, ..., n-1)."""

    def z(subset: frozenset[int]) -> int:
        k = len(subset)
        return sum(range(n - k, n))

    return GPermutahedron(SubmodularFn.from_callable(n, z))


def check_integer_decomposition(p: GPermutahedron, q: GPermutahedron) -> bool:
    """Test (P cap Z^n) + (Q cap Z^n) = (P + Q) cap Z^n by enumeration.

    True for all integral generalized permutahedra; exposed as an oracle so
    tests can confirm that fact on concrete instances.
    """
    lp = p.lattice_points()
    lq = q.lattice_points()
    sums = {tuple(a + b for a, b in zip(x, y)) for x in lp for y in lq}
    return sums == set((p + q).lattice_points())
