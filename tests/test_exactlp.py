from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactlp as lp


def solve(nvars, upper, rows):
    return lp.solve_feasibility(nvars, upper, rows)


def test_trivial_feasible():
    res = solve(1, [None], [lp.LinearRow(((0, 1),), lp.EQ, 3)])
    assert isinstance(res, lp.FeasibleResult)
    assert res.x == (3,)


def test_box_infeasible_with_certificate():
    # x >= 2 with x <= 1 cannot hold
    rows = [lp.LinearRow(((0, 1),), lp.GE, 2)]
    res = solve(1, [1], rows)
    assert isinstance(res, lp.InfeasibleResult)
    assert lp.verify_infeasibility_certificate(1, [1], rows, res.row_multipliers)


def test_equality_system():
    rows = [
        lp.LinearRow(((0, 1), (1, 1)), lp.EQ, 1),
        lp.LinearRow(((0, 1), (1, -1)), lp.EQ, Fraction(1, 3)),
    ]
    res = solve(2, [None, None], rows)
    assert isinstance(res, lp.FeasibleResult)
    assert res.x == (Fraction(2, 3), Fraction(1, 3))
    assert lp.verify_feasible_point(2, [None, None], rows, res.x)


def test_conflicting_equalities():
    rows = [
        lp.LinearRow(((0, 1),), lp.EQ, 1),
        lp.LinearRow(((0, 1),), lp.EQ, 2),
    ]
    res = solve(1, [None], rows)
    assert isinstance(res, lp.InfeasibleResult)
    assert lp.verify_infeasibility_certificate(1, [None], rows, res.row_multipliers)


def test_empty_coefficient_row():
    rows = [lp.LinearRow((), lp.EQ, 1)]
    res = solve(2, [None, None], rows)
    assert isinstance(res, lp.InfeasibleResult)
    assert lp.verify_infeasibility_certificate(
        2, [None, None], rows, res.row_multipliers
    )
    rows_ok = [lp.LinearRow((), lp.EQ, 0)]
    assert isinstance(solve(2, [None, None], rows_ok), lp.FeasibleResult)


def test_negative_rhs_handling():
    # -x <= -2 means x >= 2; feasible without upper bound, infeasible with
    rows = [lp.LinearRow(((0, -1),), lp.LE, -2)]
    res = solve(1, [None], rows)
    assert isinstance(res, lp.FeasibleResult)
    assert res.x[0] >= 2
    res2 = solve(1, [1], rows)
    assert isinstance(res2, lp.InfeasibleResult)
    assert lp.verify_infeasibility_certificate(1, [1], rows, res2.row_multipliers)


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        lp.LinearRow((), "<", 0)


def test_bad_variable_index():
    with pytest.raises(ValueError):
        solve(1, [None], [lp.LinearRow(((2, 1),), lp.EQ, 0)])


def test_certificate_rejects_wrong_multipliers():
    rows = [lp.LinearRow(((0, 1),), lp.GE, 2)]
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [-1])
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [0])
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [1, 1])


@st.composite
def small_systems(draw):
    nvars = draw(st.integers(1, 4))
    upper = [
        draw(st.sampled_from([None, 1, 2, 3])) for _ in range(nvars)
    ]
    nrows = draw(st.integers(1, 4))
    rows = []
    for _ in range(nrows):
        coeffs = tuple(
            (j, draw(st.integers(-3, 3))) for j in range(nvars)
        )
        sense = draw(st.sampled_from([lp.LE, lp.GE, lp.EQ]))
        rhs = draw(st.integers(-4, 4))
        rows.append(lp.LinearRow(coeffs, sense, rhs))
    return nvars, upper, rows


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_random_systems_yield_verifiable_answers(system):
    nvars, upper, rows = system
    res = lp.solve_feasibility(nvars, upper, rows)
    if isinstance(res, lp.FeasibleResult):
        assert lp.verify_feasible_point(nvars, upper, rows, res.x)
    else:
        assert lp.verify_infeasibility_certificate(
            nvars, upper, rows, res.row_multipliers
        )


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.integers(0, 2**30))
def test_agrees_with_grid_search(system, seed):
    # decision cross-check on integer boxes: if some lattice point in the box
    # satisfies all rows, the solver must report feasible
    nvars, upper, rows = system
    res = lp.solve_feasibility(nvars, upper, rows)
    box = [range(0, (3 if u is None else u) + 1) for u in upper]
    import itertools

    witness = None
    for point in itertools.product(*box):
        if lp.verify_feasible_point(nvars, upper, rows, point):
            witness = point
            break
    if witness is not None:
        assert isinstance(res, lp.FeasibleResult), (witness, rows)
