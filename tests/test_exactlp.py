import pytest

import exactlp as lp


def check(nvars, upper, rows, y):
    """y certifies rows infeasible; one flipped sign or a variable past nvars breaks it."""
    assert lp.verify_infeasibility_certificate(nvars, upper, rows, y)
    flips = ([-m if k == r else m for k, m in enumerate(y)] for r in range(len(y)) if y[r])
    assert not any(lp.verify_infeasibility_certificate(nvars, upper, rows, f) for f in flips)
    outside = [lp.LinearRow(row.coeffs + ((nvars, 1),), row.sense, row.rhs) for row in rows]
    assert not lp.verify_infeasibility_certificate(nvars, upper, outside, y)


def test_box_infeasible_with_certificate():
    # x >= 2 with x <= 1: 1 * (x >= 2) gives max x = 1 < 2
    check(1, [1], [lp.LinearRow(((0, 1),), lp.GE, 2)], [1])


def test_conflicting_equalities():
    # (x == 2) - (x == 1) gives 0 >= 1
    rows = [lp.LinearRow(((0, 1),), lp.EQ, 1), lp.LinearRow(((0, 1),), lp.EQ, 2)]
    check(1, [None], rows, [-1, 1])


def test_empty_coefficient_row():
    # the empty row reads 0 == 1
    check(2, [None, None], [lp.LinearRow((), lp.EQ, 1)], [1])


def test_negative_rhs_handling():
    # -x <= -2 with x <= 1: -1 * (-x <= -2) gives x >= 2
    check(1, [1], [lp.LinearRow(((0, -1),), lp.LE, -2)], [-1])


def test_bad_variable_index():
    # x0 + x1 >= 3 in the unit box; check() adds a term on variable 2
    check(2, [1, 1], [lp.LinearRow(((0, 1), (1, 1)), lp.GE, 3)], [1])


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        lp.LinearRow((), "<", 0)


def test_certificate_rejects_wrong_multipliers():
    rows = [lp.LinearRow(((0, 1),), lp.GE, 2)]
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [-1])
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [0])
    assert not lp.verify_infeasibility_certificate(1, [1], rows, [1, 1])
    # x >= -1 and x <= 1 hold at x = 0; multipliers of the wrong sign would read 0 >= 1
    assert not lp.verify_infeasibility_certificate(1, [1], [lp.LinearRow(((0, 1),), lp.GE, -1)], [-1])
    assert not lp.verify_infeasibility_certificate(1, [0], [lp.LinearRow(((0, 1),), lp.LE, 1)], [1])
