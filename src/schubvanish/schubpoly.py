"""The exact oracle: Schubert structure constants, worked in the Schubert basis.

A product is a dict from permutations to nonzero int coefficients, one
Schubert class per key; no polynomial is expanded into monomials.  A factor
S_w acts by the transition formula of Lascoux and Schützenberger: with r the
last descent of w, s the largest j > r with w(j) < w(r) and v = w * t_rs,
S_w = x_r * S_v plus the S_{v * t_qr} over the q < r with v * t_qr covering
v.  Monk's rule multiplies by x_r: x_r * S_x is the sum of the S_{x * t_ra}
over a > r minus the S_{x * t_ar} over a < r, both over covers of x.  Monk
steps only go up in Bruhat order, and S_w * S_y only holds classes above w
and y, so dropping every term that is not below the target is exact.  The
cap is on work, not rank: a product raises StepsExceeded past ORACLE_STEP_CAP.

``divided_difference`` serves the tests' polynomial reference
(``tests/polyref.py``); the oracle does not use it.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

from . import permcore
from .permcore import Perm

Poly = dict[tuple[int, ...], int]
Terms = dict[Perm, int]

# Steps one product may take: a memoised node or a term it forms, weighted by
# the rank n.  The cost follows the Bruhat interval below the target, not n.
ORACLE_STEP_CAP = 10**5


class StepsExceeded(RuntimeError):
    """The oracle's work passed ORACLE_STEP_CAP steps."""


def divided_difference(f: Poly, i: int) -> Poly:
    """(f - s_i f) / (x_i - x_{i+1}), expanded term by term.

    For a monomial with exponents p > q at positions i, i+1 the quotient is
    the geometric sum over x_i^{p-1-t} x_{i+1}^{q+t}; symmetric terms drop.

    >>> divided_difference({(2,): 1}, 1) == {(1, 0): 1, (0, 1): 1}
    True
    """
    out: Poly = {}
    for e, c in f.items():
        e += (0,) * (i + 1 - len(e))
        p, q = e[i - 1], e[i]
        sign, hi, lo = (1, p, q) if p > q else (-1, q, p)
        for t in range(hi - lo):
            key = e[: i - 1] + (hi - 1 - t, lo + t) + e[i + 1 :]
            out[key] = out.get(key, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def intersection_number(ws: Sequence[Perm]) -> int:
    """The exact Schubert intersection number of the factor list.

    The coefficient of the top class w0 in the product of the factors, so
    zero when the lengths do not sum to n(n-1)/2.  The longest factor is
    dualized away: the number equals the multiplicity of w0 * pivot in the
    product of the remaining factors.

    >>> intersection_number([(1, 2, 3, 4), (1, 2, 3, 4), (4, 3, 2, 1)])
    1
    >>> intersection_number([(1, 4, 2, 3)] * 3)
    0
    """
    posed = permcore.well_posed(ws, None)
    if posed is None:
        return 0
    ws, longest = posed
    pivot = max(range(len(ws)), key=lambda i: permcore.length(ws[i]))
    rest = ws[:pivot] + ws[pivot + 1 :]
    return asymmetric_coefficient(rest, permcore.multiply(longest, ws[pivot]))


def asymmetric_coefficient(ws: Sequence[Perm], target: Perm) -> int:
    """Multiplicity of the target class in the product of the factors.

    The product starts from the longest factor, and each shorter one
    multiplies it by the transition formula, keeping only the classes below
    the target; zero when the degrees do not match.  Raises StepsExceeded
    past ORACLE_STEP_CAP steps, counted over all the factors.
    """
    posed = permcore.well_posed(ws, target)
    if posed is None:
        return 0
    factors, target = posed
    factors.sort(key=permcore.length)
    start = factors.pop() if factors else permcore.identity(len(target))
    below = functools.cache(lambda x: permcore.bruhat_leq(x, target))
    terms = {start: 1} if below(start) else {}
    budget = [ORACLE_STEP_CAP // len(target)]  # the steps left, each of weight n
    for u in reversed(factors):
        terms = _times(u, terms, below, budget) if terms else terms
    return terms.get(target, 0)


def _times(u: Perm, terms: Terms, below: Callable[[Perm], bool], budget: list[int]) -> Terms:
    """S_u times the terms, keeping the classes below; memoised on the first
    factor of each product the transition formula asks for.  Each node and
    each term it forms take a step from budget[0]; a node that has formed its
    terms with budget[0] below zero raises StepsExceeded."""
    memo: dict[Perm, Terms] = {}

    def times(w: Perm) -> Terms:
        if w in memo:
            return memo[w]
        budget[0] -= 1
        descents = permcore.descents(w)
        found: Terms = {}
        if not descents:
            found = terms
        elif below(w):
            r = descents[-1]
            s = max(j for j in range(r + 1, len(w) + 1) if w[j - 1] < w[r - 1])
            v = permcore.apply_transposition(w, r, s)
            for x, c in times(v).items():
                for a, sign in _covers(x, r):
                    budget[0] -= 1
                    y = permcore.apply_transposition(x, r, a)
                    if below(y):
                        found[y] = found.get(y, 0) + sign * c
            for q, sign in _covers(v, r):
                if sign < 0:
                    for y, c in times(permcore.apply_transposition(v, q, r)).items():
                        budget[0] -= 1
                        found[y] = found.get(y, 0) + c
            if budget[0] < 0:
                raise StepsExceeded(f"oracle work exceeds {ORACLE_STEP_CAP} steps")
            found = {y: c for y, c in found.items() if c}
        memo[w] = found
        return found

    return times(u)


def _covers(x: Perm, r: int) -> Iterator[tuple[int, int]]:
    """(a, sign) for each position a whose transposition with r covers x:
    sign 1 for a > r and -1 for a < r, the signs of Monk's rule for x_r."""
    bound = len(x) + 1
    for a in range(r + 1, len(x) + 1):
        if x[r - 1] < x[a - 1] < bound:
            bound = x[a - 1]
            yield a, 1
    bound = 0
    for a in range(r - 1, 0, -1):
        if bound < x[a - 1] < x[r - 1]:
            bound = x[a - 1]
            yield a, -1
