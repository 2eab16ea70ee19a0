"""Sufficient vanishing tests for Schubert intersection numbers.

The symmetric test concatenates all factor diagrams and asks whether the
staircase content (n-1, ..., 1, 0) fits; the asymmetric test concatenates
all but the last factor and asks for the code of the target.  Either way an
empty filling set forces the intersection number to zero.  Every verdict is
one max-flow (``schubitope.filling_or_cut``): a Vanishes verdict carries the
min cut, one violated subset inequality a reader can replay by hand at any
rank, and an Inconclusive one carries the filling the flow found.  The tests
are one-sided; a filling only means "inconclusive".
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from . import permcore, schubitope
from .permcore import Diagram, Frozen, Perm
from .schubitope import Filling, InfeasibleSubset


class Outcome(str, Enum):
    VANISHES = "VANISHES"
    INCONCLUSIVE = "INCONCLUSIVE"
    DEGREE_MISMATCH = "DEGREE_MISMATCH"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class VanishingVerdict(NamedTuple):
    outcome: Outcome
    method: str
    certificate: Optional[InfeasibleSubset] = None
    witness: Optional[Filling] = None
    detail: str = ""


class SchubertProblem(Frozen):
    """A list of factors, optionally with a distinguished target class."""

    __slots__ = _fields = ("factors", "target")

    def __init__(self, factors: tuple[Perm, ...], target: Optional[Perm] = None) -> None:
        if len(factors) < 1:
            raise ValueError("a problem needs at least one factor")
        for w in factors:
            permcore.check_permutation(w)
        if target is not None:
            permcore.check_permutation(target)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "target", target)

    @property
    def mode(self) -> str:
        return "symmetric" if self.target is None else "asymmetric"

    def embedded(self) -> "SchubertProblem":
        ws = list(self.factors) + ([] if self.target is None else [self.target])
        ws = permcore.common_embed(ws)
        if self.target is None:
            return SchubertProblem(tuple(ws))
        return SchubertProblem(tuple(ws[:-1]), ws[-1])

    def symmetrized(self) -> "SchubertProblem":
        """The equivalent symmetric problem; appends the target's complement.

        The multiplicity of the target class equals the intersection number
        of the factors together with w0 * target.
        """
        p = self.embedded()
        if p.target is None:
            return p
        n = len(p.target)
        comp = permcore.multiply(permcore.w0(n), p.target)
        return SchubertProblem(p.factors + (comp,))


def staircase(n: int) -> tuple[int, ...]:
    """(n-1, n-2, ..., 1, 0): the content of the symmetric test."""
    return tuple(range(n - 1, -1, -1))


def symmetric_test(factors: Sequence[Perm]) -> VanishingVerdict:
    """Vanishing test for the intersection number of the factor list.

    Well-posed when the lengths sum to n(n-1)/2; otherwise the verdict is
    DEGREE_MISMATCH (the number is zero for trivial reasons, and no
    certificate is produced).
    """
    ws = permcore.common_embed(factors)
    n = len(ws[0]) if ws else 0
    method = "schubitope_symmetric"
    if sum(permcore.length(w) for w in ws) != n * (n - 1) // 2:
        return VanishingVerdict(
            Outcome.DEGREE_MISMATCH,
            method,
            detail="factor lengths do not sum to n(n-1)/2",
        )
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws])
    return _verdict(d, staircase(n), method)


def asymmetric_test(factors: Sequence[Perm], target: Perm) -> VanishingVerdict:
    """Vanishing test for the multiplicity of the target class.

    Concatenates the factor diagrams only and uses the code of the target
    as content; strictly stronger than running the symmetric test on the
    factors plus the target's complement.
    """
    ws = permcore.common_embed(list(factors) + [target])
    target_n = ws[-1]
    ws = ws[:-1]
    method = "schubitope_asymmetric"
    if sum(permcore.length(w) for w in ws) != permcore.length(target_n):
        return VanishingVerdict(
            Outcome.DEGREE_MISMATCH,
            method,
            detail="factor lengths do not sum to the target length",
        )
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws])
    return _verdict(d, permcore.code(target_n), method)


def flexible_test(
    factors: Sequence[Perm],
    target: Perm,
    alpha: Sequence[int],
) -> VanishingVerdict:
    """Asymmetric test with the content replaced by a chosen monomial.

    alpha must be a lattice point of the target's Schubitope, i.e. the
    exponent of an actual monomial of the target's polynomial; anything
    else would make the conclusion unsound and is rejected with ValueError.
    """
    target_d, d = _flexible_diagrams(factors, target)
    alpha = tuple(alpha)
    n = target_d.n_rows
    if len(alpha) < n:
        alpha = alpha + (0,) * (n - len(alpha))
    if len(alpha) != n:
        raise ValueError("content vector length must match the embedded rank")
    member, _ = schubitope.schubitope_membership(target_d, alpha)
    if not member:
        raise ValueError(
            f"{alpha} is not in the target's Schubitope; the test would be unsound"
        )
    return _flexible_verdict(d, alpha)


def _flexible_diagrams(
    factors: Sequence[Perm], target: Perm
) -> tuple[Diagram, Diagram]:
    """The target's Rothe diagram and the factors' concatenated one, in S_n."""
    ws = permcore.common_embed(list(factors) + [target])
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws[:-1]])
    return permcore.rothe_diagram(ws[-1]), d


def _flexible_verdict(d: Diagram, alpha: tuple[int, ...]) -> VanishingVerdict:
    """The flexible verdict for a content already known to be in the
    target's Schubitope, on the factors' prebuilt diagram."""
    method = "flexible"
    if d.cell_count != sum(alpha):
        return VanishingVerdict(
            Outcome.DEGREE_MISMATCH,
            method,
            detail="factor lengths do not sum to the content total",
        )
    verdict = _verdict(d, alpha, method)
    return VanishingVerdict(
        verdict.outcome,
        method,
        certificate=verdict.certificate,
        witness=verdict.witness,
        detail=f"content={alpha}",
    )


def _verdict(d: Diagram, alpha: Sequence[int], method: str) -> VanishingVerdict:
    found = schubitope.filling_or_cut(d, alpha)
    if isinstance(found, Filling):
        return VanishingVerdict(Outcome.INCONCLUSIVE, method, witness=found)
    return VanishingVerdict(Outcome.VANISHES, method, certificate=found)


def vanishing_certificate(d: Diagram, alpha: Sequence[int]) -> InfeasibleSubset:
    """A human-checkable certificate that alpha misses the Schubitope.

    The violated subset inequality of the min cut, at any row count.
    Calling this on a feasible instance is an error.
    """
    found = schubitope.filling_or_cut(d, alpha)
    if isinstance(found, Filling):
        raise ValueError("certificate requested for a feasible instance")
    return found


def sample_schubitope_point(
    d: Diagram, rng: Optional[random.Random] = None
) -> tuple[int, ...]:
    """The content of a random column-strict, flag-bounded filling of d.

    Per column with cell rows r_1 < ... < r_z, picks labels
    x_1 < ... < x_z with x_t <= r_t; valid choices always exist because the
    rows are distinct positive integers (r_t >= t).  With rng=None the
    smallest labels are taken, giving a deterministic point.  For the Rothe
    diagram of w the result is always a lattice point of the Schubitope of w.
    """
    counts = [0] * d.n_rows
    for c in d.nonempty_columns():
        rows = d.column_cells(c)
        z = len(rows)
        caps = list(rows)
        for t in range(z - 2, -1, -1):
            caps[t] = min(caps[t], caps[t + 1] - 1)
        if any(cap < t + 1 for t, cap in enumerate(caps)):
            raise RuntimeError(f"no admissible labels for column {c}")
        prev = 0
        for t in range(z):
            lo = prev + 1
            hi = caps[t]
            x = lo if rng is None else rng.randint(lo, hi)
            counts[x - 1] += 1
            prev = x
    return tuple(counts)


def flexible_test_sampled(
    factors: Sequence[Perm],
    target: Perm,
    samples: int = 32,
    seed: int = 0,
) -> VanishingVerdict:
    """Randomized driver: try the target's code, then sampled contents.

    Distinct sampled points only; returns the first Vanishes verdict, else
    Inconclusive with the number of distinct contents tried.  Both diagrams
    are built once and shared by every content.  Every content tried is the
    content of a filling of the target's diagram (the code labels each cell
    with its row), so it lies in the target's Schubitope without a check.
    """
    target_d, d = _flexible_diagrams(factors, target)
    rng = random.Random(seed)
    tried: set[tuple[int, ...]] = set()
    candidates = [target_d.row_counts()]
    for _ in range(samples):
        candidates.append(sample_schubitope_point(target_d, rng))
    last: Optional[VanishingVerdict] = None
    for alpha in candidates:
        if alpha in tried:
            continue
        tried.add(alpha)
        verdict = _flexible_verdict(d, alpha)
        if verdict.outcome is Outcome.DEGREE_MISMATCH:
            return verdict
        if verdict.outcome is Outcome.VANISHES:
            return verdict
        last = verdict
    assert last is not None
    return VanishingVerdict(
        Outcome.INCONCLUSIVE,
        "flexible",
        witness=last.witness,
        detail=f"{len(tried)} distinct contents tried",
    )


class StrengthReport(NamedTuple):
    """Both verdicts for one asymmetric problem, for comparing test power."""

    symmetric: VanishingVerdict
    asymmetric: VanishingVerdict


def strength_comparison(factors: Sequence[Perm], target: Perm) -> StrengthReport:
    """Run the symmetric test on factors + complement, and the asymmetric test.

    Whenever the symmetric test vanishes, the asymmetric one must too; that
    implication is checked here and a violation raises, since it would
    contradict an exact inclusion of polytopes.
    """
    problem = SchubertProblem(tuple(factors), tuple(target)).symmetrized()
    sym = symmetric_test(problem.factors)
    asym = asymmetric_test(factors, target)
    if (
        sym.outcome is Outcome.VANISHES
        and asym.outcome is not Outcome.VANISHES
    ):
        raise RuntimeError(
            "symmetric test vanished but asymmetric did not; "
            f"factors={factors} target={target}"
        )
    return StrengthReport(sym, asym)
