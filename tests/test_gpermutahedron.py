import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactlp
from polyref import check_integer_decomposition, is_submodular, standard_permutahedron
from schubvanish import permcore as pc
from schubvanish import schubpoly as sp
from schubvanish.gpermutahedron import GPermutahedron, SubmodularFn
from schubvanish.refsuite import SUPPORT_21543
from schubvanish.schubitope import schubitope_gpermutahedron


def is_hull_vertex(point, points):
    """True if point is a vertex of the convex hull of points (exact test).

    Decides whether point lies in the convex hull of the other points via
    exact LP feasibility.
    """
    others = [tuple(q) for q in points if tuple(q) != tuple(point)]
    if not others:
        return True
    dim = len(point)
    nvars = len(others)
    rows = [
        exactlp.LinearRow(
            tuple((k, others[k][i]) for k in range(nvars)), exactlp.EQ, point[i]
        )
        for i in range(dim)
    ]
    rows.append(
        exactlp.LinearRow(tuple((k, 1) for k in range(nvars)), exactlp.EQ, 1)
    )
    res = exactlp.solve_feasibility(nvars, [1] * nvars, rows)
    return isinstance(res, exactlp.InfeasibleResult)


@st.composite
def submodular_fns(draw, max_n=5, integral=True):
    # sums of budget-additive pieces plus a modular part are submodular
    n = draw(st.integers(1, max_n))
    pieces = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
                st.integers(0, 8),
            ),
            min_size=1,
            max_size=3,
        )
    )
    modular = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))

    def z(subset):
        total = sum(modular[i - 1] for i in subset)
        for costs, budget in pieces:
            total += min(sum(costs[i - 1] for i in subset), budget)
        return total

    return SubmodularFn.from_callable(n, z)


def test_construction_guards():
    with pytest.raises(ValueError):
        SubmodularFn(2, (1, 0, 0, 0))  # z(empty) nonzero
    with pytest.raises(ValueError):
        SubmodularFn(2, (0, 0, 0))  # wrong table size
    with pytest.raises(ValueError, match="ground set size"):
        SubmodularFn(25, (0,))  # checked before the table size

    def never(subset):
        raise AssertionError("tabulated before the size check")

    with pytest.raises(ValueError):
        SubmodularFn.from_callable(40, never)


def test_standard_permutahedron_vertices():
    p = standard_permutahedron(3)
    # the ordering w picks up increments z(prefix) - z(prefix minus one);
    # the identity ordering grabs the largest increment for coordinate 1
    assert p.vertex((1, 2, 3)) == (2, 1, 0)
    assert p.vertex((3, 2, 1)) == (0, 1, 2)
    verts = {p.vertex(w) for w in pc.all_perms(3)}
    assert verts == set(itertools.permutations((0, 1, 2)))
    with pytest.raises(ValueError):
        p.vertex((1, 2))
    with pytest.raises(ValueError):
        p.vertex((1, 1, 2))


def test_vertices_satisfy_inequalities():
    for n in range(1, 6):
        p = standard_permutahedron(n)
        for w in pc.all_perms(n):
            assert p.contains(p.vertex(w))


@settings(max_examples=60, deadline=None)
@given(submodular_fns(max_n=5))
def test_random_submodular_vertices_inside(z):
    assert is_submodular(z)
    p = GPermutahedron(z)
    for w in pc.all_perms(z.n):
        assert p.contains(p.vertex(w))


def test_schubitope_vertex_is_support_vertex():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    p = schubitope_gpermutahedron(d)
    assert is_submodular(p.z)
    v = p.vertex((1, 5, 4, 3, 2))
    assert v in SUPPORT_21543
    assert is_hull_vertex(v, SUPPORT_21543)


def test_minkowski_identity_and_dilation():
    p = standard_permutahedron(3)
    zero = GPermutahedron(SubmodularFn(3, tuple([0] * 8)))
    assert (p + zero).z == p.z
    doubled = p + p
    assert doubled.z.values == tuple(2 * v for v in p.z.values)
    assert zero.lattice_points() == frozenset({(0, 0, 0)})


def test_minkowski_sum_matches_product_support():
    # the lattice points of the sum of the two polytopes are exactly the
    # support of the product of the corresponding polynomials
    pa = schubitope_gpermutahedron(pc.rothe_diagram((4, 1, 2, 3)))
    pb = schubitope_gpermutahedron(pc.rothe_diagram((1, 3, 4, 2)))
    points = (pa + pb).lattice_points()
    assert set(points) == {(4, 0, 1, 0), (4, 1, 0, 0), (3, 1, 1, 0)}
    product = sp.poly_mul(
        sp.schubert_polynomial((4, 1, 2, 3)), sp.schubert_polynomial((1, 3, 4, 2))
    )
    assert set(sp.support(product)) == set(points)


def test_lattice_points_standard_n3():
    pts = standard_permutahedron(3).lattice_points()
    assert len(pts) == 7
    assert (1, 1, 1) in pts


def test_lattice_points_schubitope_21543():
    d = pc.rothe_diagram((2, 1, 5, 4, 3))
    assert set(schubitope_gpermutahedron(d).lattice_points()) == SUPPORT_21543


def test_lattice_points_guards():
    with pytest.raises(ValueError):
        standard_permutahedron(9).lattice_points()


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5])
def test_values_must_be_integers(value):
    with pytest.raises(ValueError, match="values must be integers"):
        SubmodularFn(2, (0, value, 1, 1))
    with pytest.raises(ValueError, match="values must be integers"):
        SubmodularFn.from_callable(1, lambda s: value if s else 0)


def test_lattice_points_edge_cases():
    assert GPermutahedron(SubmodularFn(0, (0,))).lattice_points() == frozenset({()})
    # z([2]) - z({2}) = 1 > z({1}) = 0: the box of t_1 is empty
    assert GPermutahedron(SubmodularFn(2, (0, 0, 0, 1))).lattice_points() == frozenset()
    negative = GPermutahedron(SubmodularFn(2, (0, -1, 2, 1)))
    assert negative.lattice_points() == frozenset({(-1, 2)})


@settings(max_examples=40, deadline=None)
@given(submodular_fns(max_n=3))
def test_lattice_points_equal_a_wide_box_scan(z):
    # every coordinate lies in [z([n]) - z([n] - {i}), z({i})], so within
    # twice the largest |z| of zero; scan that box, the sum fixing t_n
    p = GPermutahedron(z)
    bound = 2 * max(map(abs, z.values))
    wide = range(-bound, bound + 1)
    total = z.values[-1]
    scanned = {
        head + (total - sum(head),)
        for head in itertools.product(wide, repeat=z.n - 1)
        if p.contains(head + (total - sum(head),))
    }
    assert p.lattice_points() == scanned


def test_integer_decomposition_point_and_standard():
    point = GPermutahedron(SubmodularFn(2, (0, 1, 2, 3)))
    assert point.lattice_points() == frozenset({(1, 2)})
    assert check_integer_decomposition(point, point)
    p = standard_permutahedron(3)
    assert check_integer_decomposition(p, p)


def test_integer_decomposition_square_of_1423():
    p = schubitope_gpermutahedron(pc.rothe_diagram((1, 4, 2, 3)))
    assert check_integer_decomposition(p, p)
    square = sp.poly_mul(
        sp.schubert_polynomial((1, 4, 2, 3)), sp.schubert_polynomial((1, 4, 2, 3))
    )
    sums = {
        tuple(a + b for a, b in zip(x, y))
        for x in p.lattice_points()
        for y in p.lattice_points()
    }
    assert sums == set(sp.support(square))
    assert len(sums) == 5


@settings(max_examples=40, deadline=None)
@given(submodular_fns(max_n=3), submodular_fns(max_n=3))
def test_integer_decomposition_random(za, zb):
    if za.n != zb.n:
        return
    assert check_integer_decomposition(GPermutahedron(za), GPermutahedron(zb))


def test_integer_decomposition_seeded_rank_5():
    # fixed modest instances at the larger ranks
    import random

    rng = random.Random(41)
    for n in (4, 5):
        for _ in range(3):
            costs = [rng.randrange(3) for _ in range(n)]
            budget = rng.randrange(1, 5)
            modular = [rng.randrange(3) for _ in range(n)]

            def z(subset):
                return sum(modular[i - 1] for i in subset) + min(
                    sum(costs[i - 1] for i in subset), budget
                )

            za = SubmodularFn.from_callable(n, z)
            assert is_submodular(za)
            assert check_integer_decomposition(
                GPermutahedron(za), GPermutahedron(za)
            )


def test_hull_vertices_come_from_orderings():
    for gp in (
        standard_permutahedron(3),
        schubitope_gpermutahedron(pc.rothe_diagram((1, 4, 2, 3))),
        schubitope_gpermutahedron(pc.rothe_diagram((3, 1, 4, 2))),
        schubitope_gpermutahedron(pc.rothe_diagram((2, 1, 4, 3))),
    ):
        pts = list(gp.lattice_points())
        ordering_vertices = {gp.vertex(w) for w in pc.all_perms(gp.n)}
        for p in pts:
            if is_hull_vertex(p, pts):
                assert p in ordering_vertices


def test_theta_functions_are_submodular_for_concatenations():
    for u, v in [((2, 1, 4, 3), (1, 4, 2, 3)), ((3, 1, 4, 2), (2, 1, 4, 3))]:
        d = pc.concat_diagrams([pc.rothe_diagram(u), pc.rothe_diagram(v)])
        assert is_submodular(schubitope_gpermutahedron(d).z)


def test_sum_mismatch_rejected():
    with pytest.raises(ValueError):
        standard_permutahedron(2) + standard_permutahedron(3)
