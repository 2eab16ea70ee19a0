"""Reference checks on generalized permutahedra and Schubert polynomials.

Only the tests use these: exhaustive submodularity, the standard
permutahedron, integer decomposition by enumeration, expansion in the
Schubert basis by leading exponents, and the saturated Newton polytope
(SNP) property of a Schubert polynomial checked against its Schubitope.
"""

from schubvanish import permcore
from schubvanish.gpermutahedron import GPermutahedron, SubmodularFn
from schubvanish.schubitope import schubitope_gpermutahedron
from schubvanish.schubpoly import compositions, pad, schubert_polynomial, support


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
    return members == set(support(schubert_polynomial(w, n)))
