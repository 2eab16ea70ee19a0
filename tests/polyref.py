"""Reference checks on Schubert polynomials and generalized permutahedra.

Only the tests use these.  A polynomial is a dict from exponent tuples, all
of one length, to nonzero int coefficients.  Schubert polynomials come from
the staircase monomial of w0 by divided differences, memoised on stable
representatives; callers receive fresh padded copies.  Also: w * s_i,
ascents, trailing fixed points trimmed, the staircase content, exhaustive
submodularity, the standard permutahedron, integer decomposition by
enumeration, expansion in the Schubert basis by leading exponents, the
saturated Newton polytope (SNP) property of a Schubert polynomial checked
against its Schubitope, and the pinned polytope data of the Schubitope of
21543.
"""

import itertools

from schubvanish import permcore
from schubvanish.gpermutahedron import GPermutahedron, SubmodularFn
from schubvanish.schubitope import schubitope_gpermutahedron
from schubvanish.schubpoly import divided_difference

_schub_cache = {}


def poly_one(nvars):
    return {(0,) * nvars: 1}


def poly_mul(f, g):
    """The exact product."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pad(f, nvars):
    """Extend every exponent tuple with zeros up to nvars variables."""
    out = {}
    for e, c in f.items():
        if len(e) > nvars:
            if any(e[nvars:]):
                raise ValueError("cannot truncate variables with nonzero exponents")
            out[e[:nvars]] = c
        else:
            out[e + (0,) * (nvars - len(e))] = c
    return out


def schubert_polynomial(w, nvars=None):
    """The Schubert polynomial of w, with exponent tuples of nvars entries.

    Memoized on the stable representative of w, so embeddings share work.
    Meant for small ranks; the recursion touches one chain up to the longest
    element, each step one divided difference.
    """
    if nvars is None:
        nvars = len(w)
    return pad(_schubert(trim(w)), nvars)


def _schubert(w):
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
            i = ascents(w)[0]
            up = _schubert(trim(right_mult_s(w, i)))
            f = divided_difference(pad(up, m), i)
        _schub_cache[w] = f
    return f


def right_mult_s(w, i):
    """w * s_i for a simple transposition, 1 <= i <= n-1."""
    if not (1 <= i < len(w)):
        raise IndexError(f"simple reflection index {i} out of range 1..{len(w) - 1}")
    return permcore.apply_transposition(w, i, i + 1)


def ascents(w):
    """Positions i < n with w(i) < w(i+1)."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] < w[i])


def trim(w):
    """Drop trailing fixed points; the stable representative of w."""
    n = len(w)
    while n > 0 and w[n - 1] == n:
        n -= 1
    return w[:n]


def staircase(n):
    """(n-1, n-2, ..., 1, 0): the content of the symmetric test."""
    return tuple(range(n - 1, -1, -1))


def staircase_coefficient(ws):
    """[x^(n-1, n-2, ..., 1, 0)] of the full product of the factors.

    Only an upper bound for the intersection number: basis elements from
    larger symmetric groups can feed the staircase monomial of rank n, so
    this can be positive while the intersection number is zero.  It is the
    quantity bounded by the symmetric polytope test: the staircase lies in
    the product's Newton polytope iff this is nonzero.
    """
    ws = permcore.common_embed(ws)
    n = len(ws[0]) if ws else 0
    acc = poly_one(n)
    for w in ws:
        acc = poly_mul(acc, schubert_polynomial(w, n))
    return acc.get(tuple(range(n - 1, -1, -1)), 0)


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to total: the gaps
    between the bars of each choice of parts - 1 bars among total + parts - 1
    places."""
    if parts == 0:
        return [()] if total == 0 else []
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))
        for bars in itertools.combinations(range(total + parts - 1), parts - 1)
    ]


# Support of the polynomial of 21543: thirteen exponent vectors.
SUPPORT_21543 = frozenset(
    {
        (3, 1, 0, 0, 0),
        (3, 0, 1, 0, 0),
        (3, 0, 0, 1, 0),
        (2, 2, 0, 0, 0),
        (2, 0, 2, 0, 0),
        (2, 1, 1, 0, 0),
        (2, 1, 0, 1, 0),
        (2, 0, 1, 1, 0),
        (1, 1, 2, 0, 0),
        (1, 2, 1, 0, 0),
        (1, 2, 0, 1, 0),
        (1, 0, 2, 1, 0),
        (1, 1, 1, 1, 0),
    }
)

# Minimal inequality data of that polytope: theta on these subsets.
THETA_21543 = {
    (1,): 3,
    (2,): 2,
    (3,): 2,
    (4,): 1,
    (1, 2, 3): 4,
    (1, 2, 4): 4,
    (1, 3, 4): 4,
    (2, 3, 4): 3,
}


def is_submodular(z: SubmodularFn) -> bool:
    """Exhaustive check of z(I) + z(J) >= z(I u J) + z(I n J)."""
    v = z.values
    for i in range(1 << z.n):
        for j in range(i + 1, 1 << z.n):
            if v[i] + v[j] < v[i | j] + v[i & j]:
                return False
    return True


def standard_permutahedron(n: int) -> GPermutahedron:
    """Convex hull of all permutations of (0, 1, ..., n-1)."""
    return GPermutahedron(
        SubmodularFn.from_callable(n, lambda subset: sum(range(n - len(subset), n)))
    )


def check_integer_decomposition(p: GPermutahedron, q: GPermutahedron) -> bool:
    """Test (P cap Z^n) + (Q cap Z^n) = (P + Q) cap Z^n by enumeration.

    True for all integral generalized permutahedra.
    """
    lp = p.lattice_points()
    lq = q.lattice_points()
    sums = {tuple(a + b for a, b in zip(x, y)) for x in lp for y in lq}
    return sums == set((p + q).lattice_points())


def perm_from_code(alpha):
    """The unique permutation whose code is alpha (trailing zeros allowed)."""
    alpha = tuple(alpha)
    m = max((i + 1 + a for i, a in enumerate(alpha)), default=0)
    m = max(m, len(alpha))
    padded = list(alpha) + [0] * (m - len(alpha))
    available = list(range(1, m + 1))
    return tuple(available.pop(a) for a in padded)


def expand_in_schubert_basis(f):
    """Write f as an integer combination of Schubert polynomials.

    Strips off the lexicographically smallest exponent each round; that
    exponent is the code of the permutation whose polynomial leads with it
    (coefficient one).  Loud failure if the lex order ever stalls.
    """
    out = {}
    work = dict(f)
    prev = None
    while work:
        alpha = min(work)
        if prev is not None:
            prev_padded = prev + (0,) * (len(alpha) - len(prev))
            if alpha <= prev_padded:
                raise RuntimeError("leading-exponent extraction did not advance")
        prev = alpha
        w = perm_from_code(alpha)
        c = work[alpha]
        out[trim(w)] = c
        width = max(len(alpha), len(w))
        work = pad(work, width)
        for e, v in schubert_polynomial(w, width).items():
            left = work.get(e, 0) - c * v
            if left:
                work[e] = left
            else:
                del work[e]
    return out


def verify_snp(w) -> bool:
    """Support of the Schubert polynomial equals the lattice points of its Schubitope.

    Enumerates the degree-length(w) simplex and compares the membership scan
    against the actual monomials; holds for every permutation.
    """
    n = len(w)
    polytope = schubitope_gpermutahedron(permcore.rothe_diagram(w))
    members = {
        alpha for alpha in compositions(permcore.length(w), n) if polytope.contains(alpha)
    }
    return members == set(schubert_polynomial(w, n))
