"""Schubert polynomials by divided differences, and brute-force oracles.

A sparse polynomial is a dict mapping exponent tuples to nonzero int
coefficients; all keys in one polynomial have the same length.  The top
polynomial for the longest element of S_n is x_1^{n-1} x_2^{n-2} ... x_{n-1};
descending one ascent at a time through divided differences produces every
other one.  Intersection numbers come out as single coefficients of
products, which makes this module the independent ground truth for the
polytope-based vanishing tests.

The memo table maps stable representatives to finished, never-mutated
polynomials; callers always receive fresh padded copies.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from . import permcore
from .permcore import Perm
from .schubitope import schubitope_gpermutahedron

Poly = dict[tuple[int, ...], int]

_schub_cache: dict[Perm, Poly] = {}


def poly_one(nvars: int) -> Poly:
    return {(0,) * nvars: 1}


def poly_mul(f: Poly, g: Poly, cap: Sequence[int] | None = None) -> Poly:
    """Exact product.  With cap, terms exceeding cap in any coordinate are
    dropped; sound when only coefficients of exponents <= cap are wanted,
    since exponents never decrease under further multiplication."""
    out: Poly = {}
    if len(f) > len(g):
        f, g = g, f
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if cap is not None and any(a > b for a, b in zip(e, cap)):
                continue
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def coefficient(f: Poly, alpha: Sequence[int]) -> int:
    return f.get(tuple(alpha), 0)


def support(f: Poly) -> frozenset[tuple[int, ...]]:
    return frozenset(f)


def pad(f: Poly, nvars: int) -> Poly:
    """Extend every exponent tuple with zeros up to nvars variables."""
    out: Poly = {}
    for e, c in f.items():
        if len(e) > nvars:
            if any(e[nvars:]):
                raise ValueError("cannot truncate variables with nonzero exponents")
            out[e[:nvars]] = c
        else:
            out[e + (0,) * (nvars - len(e))] = c
    return out


def divided_difference(f: Poly, i: int) -> Poly:
    """(f - s_i f) / (x_i - x_{i+1}), expanded term by term.

    For a monomial with exponents p > q at positions i, i+1 the quotient is
    the geometric sum over x_i^{p-1-t} x_{i+1}^{q+t}; symmetric terms drop.

    >>> divided_difference({(2,): 1}, 1) == {(1, 0): 1, (0, 1): 1}
    True
    """
    out: Poly = {}
    for e, c in f.items():
        if len(e) < i + 1:
            e = e + (0,) * (i + 1 - len(e))
        p, q = e[i - 1], e[i]
        if p == q:
            continue
        sign = 1
        if p < q:
            sign = -1
            p, q = q, p
        base = list(e)
        for t in range(p - q):
            base[i - 1] = p - 1 - t
            base[i] = q + t
            key = tuple(base)
            v = out.get(key, 0) + sign * c
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def schubert_polynomial(w: Perm, nvars: int | None = None) -> Poly:
    """The Schubert polynomial of w, with exponent tuples of nvars entries.

    Memoized on the stable representative of w, so embeddings share work.
    Meant for small ranks; the recursion touches one chain up to the longest
    element, each step one divided difference.
    """
    if nvars is None:
        nvars = len(w)
    return pad(_schubert(permcore.trim(w)), nvars)


def _schubert(w: Perm) -> Poly:
    """The memo entry of a trimmed w, in len(w) variables.

    w0(m) is the staircase monomial; any other w is the divided difference
    at its first ascent i of the polynomial of w * s_i.
    """
    f = _schub_cache.get(w)
    if f is None:
        m = len(w)
        if w == permcore.w0(m):
            f = {tuple(range(m - 1, -1, -1)): 1}
        else:
            i = permcore.ascents(w)[0]
            up = _schubert(permcore.trim(permcore.right_mult_s(w, i)))
            f = divided_difference(pad(up, m), i)
        _schub_cache[w] = f
    return f


def reduced_word(z: Perm) -> list[int]:
    """Indices (i_1, ..., i_l) with z = s_{i_1} * ... * s_{i_l}, l = length(z).

    Peels a descent at a time off the right; any reduced word would do.
    """
    word: list[int] = []
    z = tuple(z)
    while True:
        desc = permcore.descents(z)
        if not desc:
            break
        i = desc[0]
        word.append(i)
        z = permcore.right_mult_s(z, i)
    word.reverse()
    return word


def contraction_coefficient(f: Poly, y: Perm) -> int:
    """Coefficient of the basis polynomial of y in the expansion of f.

    Applies divided differences along a reduced word of y^{-1} (left factor
    first) and reads off the constant term: the chain sends the basis
    element of y to 1 and kills every other basis element of the same
    degree, so this is the exact expansion coefficient.  Terms of f in
    other degrees never reach the constant.
    """
    if not f:
        return 0
    for a in reduced_word(permcore.inverse(y)):
        f = divided_difference(f, a)
        if not f:
            return 0
    return sum(c for e, c in f.items() if not any(e))


def staircase_coefficient(ws: Sequence[Perm]) -> int:
    """[x^(n-1, n-2, ..., 1, 0)] of the full product of the factors.

    Only an upper bound for the intersection number: basis elements from
    larger symmetric groups can feed the staircase monomial of rank n, so
    this can be positive while the intersection number is zero.  It is the
    quantity bounded by the symmetric polytope test: the staircase lies in
    the product's Newton polytope iff this is nonzero.
    """
    ws = permcore.common_embed(ws)
    n = len(ws[0]) if ws else 0
    target = tuple(range(n - 1, -1, -1))
    acc = poly_one(n)
    for f in sorted((schubert_polynomial(w, n) for w in ws), key=len):
        acc = poly_mul(acc, f, cap=target)
        if not acc:
            return 0
    return coefficient(acc, target)


def intersection_number(ws: Sequence[Perm]) -> int:
    """The exact Schubert intersection number of the factor list.

    The coefficient of the top class w0 in the product of the factors, so
    zero when the lengths do not sum to n(n-1)/2.  The longest factor is
    dualized away: the number equals the multiplicity of w0 * pivot in the
    product of the remaining factors.  Note the coefficient of the plain
    staircase monomial in the full product is not equal to this in general
    (see staircase_coefficient); the basis coefficient is.
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

    The coefficient of the target's basis element in the polynomial product,
    taken by divided-difference contraction; zero when the degrees do not
    match.
    """
    posed = permcore.well_posed(ws, target)
    if posed is None:
        return 0
    factors, target = posed
    n = len(target)
    acc = poly_one(n)
    for f in sorted((schubert_polynomial(w, n) for w in factors), key=len):
        acc = poly_mul(acc, f)
    return contraction_coefficient(acc, target)


def perm_from_code(alpha: Sequence[int]) -> Perm:
    """The unique permutation whose code is alpha (trailing zeros allowed).

    >>> perm_from_code((3, 2, 0, 0))
    (4, 3, 1, 2)
    """
    alpha = tuple(alpha)
    m = max((i + 1 + a for i, a in enumerate(alpha)), default=0)
    m = max(m, len(alpha))
    padded = list(alpha) + [0] * (m - len(alpha))
    available = list(range(1, m + 1))
    word = []
    for a in padded:
        word.append(available.pop(a))
    return tuple(word)


def expand_in_schubert_basis(f: Poly) -> dict[Perm, int]:
    """Write f as an integer combination of Schubert polynomials.

    Strips off the lexicographically smallest exponent each round; that
    exponent is the code of the permutation whose polynomial leads with it
    (coefficient one).  Loud failure if the lex order ever stalls.
    """
    out: dict[Perm, int] = {}
    work = dict(f)
    prev: tuple[int, ...] | None = None
    while work:
        alpha = min(work)
        if prev is not None:
            prev_padded = prev + (0,) * (len(alpha) - len(prev))
            if alpha <= prev_padded:
                raise RuntimeError("leading-exponent extraction did not advance")
        prev = alpha
        w = perm_from_code(alpha)
        c = work[alpha]
        out[permcore.trim(w)] = c
        width = max(len(alpha), len(w))
        work = pad(work, width)
        for e, v in schubert_polynomial(w, width).items():
            left = work.get(e, 0) - c * v
            if left:
                work[e] = left
            else:
                del work[e]
    return out


def verify_snp(w: Perm) -> bool:
    """Support of the polynomial equals the lattice points of its Schubitope.

    Enumerates the degree-length(w) simplex and compares the membership scan
    against the actual monomials; holds for every permutation.
    """
    n = len(w)
    d = permcore.rothe_diagram(w)
    polytope = schubitope_gpermutahedron(d)
    deg = permcore.length(w)
    poly_support = support(schubert_polynomial(w, n))
    members = {
        alpha for alpha in compositions(deg, n) if polytope.contains(alpha)
    }
    return members == set(poly_support)


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)
