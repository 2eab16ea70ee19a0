"""Exact linear-programming feasibility over the rationals, for tests.

An independent exact oracle beside the test suite: the generalized
permutahedron tests decide convex-hull membership with it.  Phase-1 simplex with Bland's smallest-index pivot rule on a dense tableau.
Every variable has lower bound zero and an optional upper bound; the upper
bounds are handled implicitly (bounded-variable simplex) so box constraints
never enter the tableau.  All arithmetic is int/Fraction, never float.
Entries stay plain ints as long as pivots are +-1, which they usually are
for near-unimodular systems.

An infeasible outcome carries one multiplier per input row.  The sign
convention: multipliers are >= 0 on ``>=`` rows, <= 0 on ``<=`` rows and
free on ``==`` rows, so that the aggregated constraint reads
``g . x >= sum_r y_r b_r`` for every feasible x, where g = sum_r y_r a_r.
Infeasibility is certified when the maximum of ``g . x`` over the variable
box is still smaller than the right-hand side; see
verify_infeasibility_certificate for the exact replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]

LE = "<="
GE = ">="
EQ = "=="

_LOWER = 0
_UPPER = 1
_BASIC = 2


@dataclass(frozen=True)
class LinearRow:
    """One constraint: sum of coeffs[var] * x_var  (sense)  rhs."""

    coeffs: tuple[tuple[int, Rational], ...]
    sense: str
    rhs: Rational

    def __post_init__(self) -> None:
        if self.sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {self.sense!r}")


@dataclass(frozen=True)
class FeasibleResult:
    x: tuple[Rational, ...]


@dataclass(frozen=True)
class InfeasibleResult:
    row_multipliers: tuple[Rational, ...]


def _ratio(a: Rational, b: Rational) -> Rational:
    """Exact a/b, normalized back to int when the quotient is integral."""
    q = Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else a / b
    return q.numerator if q.denominator == 1 else q


def solve_feasibility(
    nvars: int,
    upper: Sequence[Optional[Rational]],
    rows: Sequence[LinearRow],
) -> FeasibleResult | InfeasibleResult:
    """Decide whether {x : rows hold, 0 <= x_j <= upper_j} is nonempty.

    upper[j] is None for variables with no upper bound.  Returns an exact
    witness point or exact infeasibility multipliers.
    """
    if len(upper) != nvars:
        raise ValueError("upper bound list does not match variable count")
    nrows = len(rows)
    nslack = sum(1 for r in rows if r.sense != EQ)
    ncols = nvars + nslack + nrows

    tableau: list[list[Rational]] = []
    bval: list[Rational] = []
    row_sign: list[int] = []
    bounds: list[Optional[Rational]] = list(upper) + [None] * (nslack + nrows)

    slack_at = nvars
    art0 = nvars + nslack
    for r, row in enumerate(rows):
        arr: list[Rational] = [0] * ncols
        for j, c in row.coeffs:
            if not (0 <= j < nvars):
                raise ValueError(f"variable index {j} out of range")
            arr[j] += c
        if row.sense == LE:
            arr[slack_at] = 1
            slack_at += 1
        elif row.sense == GE:
            arr[slack_at] = -1
            slack_at += 1
        rhs = row.rhs
        if rhs < 0:
            arr = [-v for v in arr]
            rhs = -rhs
            row_sign.append(-1)
        else:
            row_sign.append(1)
        arr[art0 + r] = 1
        tableau.append(arr)
        bval.append(rhs)

    basis = [art0 + r for r in range(nrows)]
    status = [_LOWER] * ncols
    for r in range(nrows):
        status[art0 + r] = _BASIC

    # Phase-1 objective: minimize the sum of artificials.  Reduced costs of
    # column j:  d_j = c_j - sum_r T[r][j]  (all basic costs are 1).
    d: list[Rational] = [0] * ncols
    for j in range(ncols):
        s: Rational = 0
        for r in range(nrows):
            s += tableau[r][j]
        d[j] = (1 if j >= art0 else 0) - s
    z: Rational = sum(bval)

    guard = 1000 * (nrows + ncols + 10)
    for _ in range(guard):
        enter = -1
        direction = 0
        for j in range(ncols):
            st = status[j]
            if st == _BASIC:
                continue
            dj = d[j]
            if st == _LOWER and dj < 0:
                enter, direction = j, 1
                break
            if st == _UPPER and dj > 0:
                enter, direction = j, -1
                break
        if enter < 0:
            break

        # Ratio test; the entering variable's own bound is also a candidate.
        best_t: Optional[Rational] = None
        leave_row = -1
        leave_to = _LOWER
        leave_var = ncols
        ub_enter = bounds[enter]
        if ub_enter is not None:
            best_t = ub_enter
            leave_var = enter
        for r in range(nrows):
            a = tableau[r][enter]
            if not a:
                continue
            delta = a if direction > 0 else -a
            if delta > 0:
                t = _ratio(bval[r], delta)
                to = _LOWER
            else:
                ub = bounds[basis[r]]
                if ub is None:
                    continue
                t = _ratio(ub - bval[r], -delta)
                to = _UPPER
            if (
                best_t is None
                or t < best_t
                or (t == best_t and basis[r] < leave_var)
            ):
                best_t, leave_row, leave_to, leave_var = t, r, to, basis[r]
        if best_t is None:
            raise RuntimeError("phase-1 objective unbounded; inconsistent model")

        t = best_t
        de = d[enter]
        if t:
            for r in range(nrows):
                a = tableau[r][enter]
                if a:
                    bval[r] -= t * direction * a
            z += t * direction * de

        if leave_row < 0:
            # Bound flip: the entering variable crosses its own box.
            status[enter] = _UPPER if direction > 0 else _LOWER
            continue

        new_val = (0 if direction > 0 else ub_enter) + direction * t
        piv_row = tableau[leave_row]
        p = piv_row[enter]
        if p != 1:
            tableau[leave_row] = piv_row = [
                _ratio(v, p) if v else 0 for v in piv_row
            ]
        for r in range(nrows):
            if r == leave_row:
                continue
            f = tableau[r][enter]
            if f:
                row = tableau[r]
                tableau[r] = [
                    rv - f * pv if pv else rv for rv, pv in zip(row, piv_row)
                ]
        if de:
            d = [dv - de * pv if pv else dv for dv, pv in zip(d, piv_row)]
        bval[leave_row] = new_val
        status[leave_var] = leave_to
        basis[leave_row] = enter
        status[enter] = _BASIC
    else:
        raise RuntimeError("simplex iteration guard exceeded")

    if z > 0:
        # Dual multipliers off the artificial columns: d_art = 1 - y.
        y = tuple(row_sign[r] * (1 - d[art0 + r]) for r in range(nrows))
        return InfeasibleResult(y)

    x: list[Rational] = [0] * ncols
    for r in range(nrows):
        x[basis[r]] = bval[r]
    for j in range(ncols):
        if status[j] == _UPPER:
            x[j] = bounds[j]
    return FeasibleResult(tuple(x[:nvars]))


def verify_feasible_point(
    nvars: int,
    upper: Sequence[Optional[Rational]],
    rows: Sequence[LinearRow],
    x: Sequence[Rational],
) -> bool:
    """Replay a claimed feasible point against the rows and bounds."""
    if len(x) != nvars:
        return False
    for j in range(nvars):
        if x[j] < 0:
            return False
        if upper[j] is not None and x[j] > upper[j]:
            return False
    for row in rows:
        lhs: Rational = 0
        for j, c in row.coeffs:
            lhs += c * x[j]
        if row.sense == LE and lhs > row.rhs:
            return False
        if row.sense == GE and lhs < row.rhs:
            return False
        if row.sense == EQ and lhs != row.rhs:
            return False
    return True


def verify_infeasibility_certificate(
    nvars: int,
    upper: Sequence[Optional[Rational]],
    rows: Sequence[LinearRow],
    y: Sequence[Rational],
) -> bool:
    """Replay infeasibility multipliers in exact arithmetic.

    Checks the sign conditions, aggregates g = sum_r y_r a_r, and confirms
    that max of g . x over the variable box falls short of sum_r y_r b_r.
    Together these prove that no x in the box satisfies every row.
    """
    if len(y) != len(rows):
        return False
    g: list[Rational] = [0] * nvars
    rhs_total: Rational = 0
    for mult, row in zip(y, rows):
        if row.sense == LE and mult > 0:
            return False
        if row.sense == GE and mult < 0:
            return False
        if mult:
            for j, c in row.coeffs:
                if not (0 <= j < nvars):
                    return False
                g[j] += mult * c
            rhs_total += mult * row.rhs
    box_max: Rational = 0
    for j in range(nvars):
        gj = g[j]
        if gj > 0:
            if upper[j] is None:
                return False
            box_max += gj * upper[j]
    return box_max < rhs_total
