"""Replay of infeasibility multipliers for linear rows, for tests.

A reference beside the test suite: ``test_schubitope.py`` replays the
package's ``FarkasCertificate`` through ``verify_infeasibility_certificate``,
which shares no code with ``schubitope``.  All arithmetic is int/Fraction.

Every variable has lower bound zero and an optional upper bound.  The
multipliers, one per row, are >= 0 on ``>=`` rows, <= 0 on ``<=`` rows and
free on ``==`` rows, so that the aggregated constraint reads
``g . x >= sum_r y_r b_r`` for every feasible x, where g = sum_r y_r a_r.
Infeasibility is certified when the maximum of ``g . x`` over the variable
box is still smaller than the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]

LE = "<="
GE = ">="
EQ = "=="


@dataclass(frozen=True)
class LinearRow:
    """One constraint: sum of coeffs[var] * x_var  (sense)  rhs."""

    coeffs: tuple[tuple[int, Rational], ...]
    sense: str
    rhs: Rational

    def __post_init__(self) -> None:
        if self.sense not in (LE, GE, EQ):
            raise ValueError(f"bad sense {self.sense!r}")


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
        if g[j] > 0:
            if upper[j] is None:
                return False
            box_max += g[j] * upper[j]
    return box_max < rhs_total
