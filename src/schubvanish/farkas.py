"""Relaxation-LP multipliers for a min cut of the filling network.

``lp_feasible`` decides the relaxation LP of (D, alpha) by
``schubitope.filling_or_cut`` and restates a min cut as a
``FarkasCertificate`` that replays in exact rational arithmetic.  Verdicts
never carry one.  The module stays off the batch path, which then imports
neither ``fractions`` nor ``dataclasses``; ``schubitope`` resolves both
names on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .permcore import Diagram
from .schubitope import Filling, filling_or_cut


@dataclass(frozen=True)
class FarkasCertificate:
    """LP multipliers proving the relaxation polytope of (D, alpha) empty.

    The relaxation has a variable x_ij in [0, 1] for each label i and each
    column j in ``columns``, the equalities sum_j x_ij = alpha_i and, for the
    t-th cell (s, j) of a column, the prefix inequality sum_{i <= s} x_ij >= t.
    content[i-1] multiplies the equality of label i; prefix lists
    ((s, j), multiplier >= 0) for the prefix inequalities used.
    """

    content: tuple[Fraction, ...]
    prefix: tuple[tuple[tuple[int, int], Fraction], ...]
    columns: tuple[int, ...]

    def validate(self, d: Diagram, alpha: Sequence[int]) -> bool:
        """Check that the combined row's maximum over the box is below its right side."""
        n = d.n_rows
        columns = set(self.columns)
        if len(self.content) != n or len(alpha) != n or len(columns) != len(self.columns):
            return False
        nonempty = {j for j, rows in enumerate(d.columns, start=1) if rows}
        if not nonempty <= columns <= set(range(1, d.n_cols + 1)):
            return False
        weight: dict[tuple[int, int], Fraction] = {}
        rhs = sum(y * a for y, a in zip(self.content, alpha))
        for (s, j), mult in self.prefix:
            cells = d.columns[j - 1] if j in nonempty else ()
            if mult < 0 or s not in cells or (s, j) in weight:
                return False
            weight[(s, j)] = mult
            rhs += mult * (cells.index(s) + 1)
        lhs = 0
        for j in columns:
            z = 0  # multipliers of the prefix rows of column j at rows >= i
            for i in range(n, 0, -1):
                z += weight.get((i, j), 0)
                lhs += max(0, self.content[i - 1] + z)
        return lhs < rhs


def lp_feasible(d: Diagram, alpha: Sequence[int]) -> Union[Filling, FarkasCertificate]:
    """Decide the relaxation LP of (D, alpha) by ``filling_or_cut``.

    A filling is an integral point.  A min cut S becomes LP multipliers: -1
    on the equality of each label outside S and, in each column, 1 on the
    prefix row where t - #(S within rows 1..s) peaks above 0.  The box
    maximum of the combined row then falls short of its right side by
    alpha(S) - theta_D(S), since theta of a column is its cell count less
    that peak.
    """
    found = filling_or_cut(d, alpha)
    if isinstance(found, Filling):
        return found
    in_s = set(found.rows)
    prefix = []
    for j, rows in enumerate(d.columns, start=1):
        peak, peak_row = 0, 0
        for t, s in enumerate(rows, start=1):
            short = t - sum(1 for i in in_s if i <= s)
            if short > peak:
                peak, peak_row = short, s
        if peak:
            prefix.append(((peak_row, j), Fraction(1)))
    content = tuple(Fraction(0 if i in in_s else -1) for i in range(1, d.n_rows + 1))
    return FarkasCertificate(content, tuple(prefix), tuple(range(1, d.n_cols + 1)))
