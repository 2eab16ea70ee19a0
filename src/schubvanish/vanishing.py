"""Sufficient vanishing tests for Schubert intersection numbers.

The asymmetric test concatenates the factor diagrams and asks whether the
code of the target fits as content; an empty filling set forces the
multiplicity of the target class to zero.  The symmetric test is the same
test with target w0, whose code is the staircase (n-1, ..., 1, 0), and the
flexible test puts another monomial of the target's polynomial in place of
the code.  Every verdict is one max-flow (``schubitope.filling_or_cut``): a
Vanishes verdict carries the min cut, one violated subset inequality a
reader can replay by hand at any rank, and an Inconclusive one carries the
filling the flow found.  The tests are one-sided.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from . import permcore, schubitope
from .permcore import Diagram, Frozen, Perm
from .schubitope import Filling, InfeasibleSubset


class Outcome(str):
    """A verdict's outcome: VANISHES, INCONCLUSIVE or DEGREE_MISMATCH.

    The three instances are the class attributes of those names, so
    outcomes compare with ``is``.  Each is a ``str`` equal to its name, as
    the members of a ``(str, Enum)`` are, and ``value`` is that name as a
    plain ``str``; ``enum`` is not used, since building an Enum class would
    add to the start-up of every CLI process.  ``Outcome(name)`` returns
    the instance and refuses any other name.
    """

    __slots__ = ()
    VANISHES: Outcome
    INCONCLUSIVE: Outcome
    DEGREE_MISMATCH: Outcome

    def __new__(cls, value: str) -> Outcome:
        outcome = cls.__dict__.get(value)
        if type(outcome) is not cls:
            raise ValueError(f"{value!r} is not a valid Outcome")
        return outcome

    @property
    def value(self) -> str:
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"<Outcome.{self.value}: {self.value!r}>"


Outcome.VANISHES = str.__new__(Outcome, "VANISHES")
Outcome.INCONCLUSIVE = str.__new__(Outcome, "INCONCLUSIVE")
Outcome.DEGREE_MISMATCH = str.__new__(Outcome, "DEGREE_MISMATCH")


class VanishingVerdict(Frozen):
    """The outcome of one test by one method, with its evidence.

    A VANISHES verdict of the Schubitope tests carries its certificate, an
    INCONCLUSIVE one the filling it found as witness; detail is a note.
    """

    __slots__ = _fields = ("outcome", "method", "certificate", "witness", "detail")

    def __init__(
        self,
        outcome: Outcome,
        method: str,
        certificate: Optional[InfeasibleSubset] = None,
        witness: Optional[Filling] = None,
        detail: str = "",
    ) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)


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
        """Every word embedded in S_n for the largest n; self when they all
        have that length already."""
        ws = self.factors if self.target is None else self.factors + (self.target,)
        n = len(ws[0])
        if all(len(w) == n for w in ws):
            return self
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

    The asymmetric test with target w0, whose code is the staircase.
    Well-posed when the lengths sum to n(n-1)/2; otherwise the verdict is
    DEGREE_MISMATCH (the number is zero for trivial reasons, and no
    certificate is produced).
    """
    return _test(factors, None, "schubitope_symmetric", "n(n-1)/2")


def asymmetric_test(factors: Sequence[Perm], target: Perm) -> VanishingVerdict:
    """Vanishing test for the multiplicity of the target class.

    Concatenates the factor diagrams only and uses the code of the target
    as content; strictly stronger than running the symmetric test on the
    factors plus the target's complement.
    """
    return _test(factors, target, "schubitope_asymmetric", "the target length")


def _test(
    factors: Sequence[Perm], target: Optional[Perm], method: str, total: str
) -> VanishingVerdict:
    posed = permcore.well_posed(factors, target)
    if posed is None:
        return _mismatch(method, total)
    ws, target = posed
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws])
    return _verdict(d, permcore.code(target), method)


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
    ws = permcore.common_embed([*factors, target])
    target_d = permcore.rothe_diagram(ws[-1])
    alpha = tuple(alpha)
    alpha += (0,) * (target_d.n_rows - len(alpha))
    if len(alpha) != target_d.n_rows:
        raise ValueError("content vector length must match the embedded rank")
    member, _ = schubitope.schubitope_membership(target_d, alpha)
    if not member:
        raise ValueError(
            f"{alpha} is not in the target's Schubitope; the test would be unsound"
        )
    if permcore.well_posed(ws[:-1], ws[-1]) is None:
        return _mismatch("flexible", "the content total")
    d = permcore.concat_diagrams([permcore.rothe_diagram(w) for w in ws[:-1]])
    return _content_verdict(d, alpha)


def _mismatch(method: str, total: str) -> VanishingVerdict:
    detail = f"factor lengths do not sum to {total}"
    return VanishingVerdict(Outcome.DEGREE_MISMATCH, method, detail=detail)


def _verdict(d: Diagram, alpha: Sequence[int], method: str) -> VanishingVerdict:
    found = schubitope.filling_or_cut(d, alpha)
    if isinstance(found, Filling):
        return VanishingVerdict(Outcome.INCONCLUSIVE, method, witness=found)
    return VanishingVerdict(Outcome.VANISHES, method, certificate=found)


def _content_verdict(d: Diagram, alpha: tuple[int, ...]) -> VanishingVerdict:
    return _verdict(d, alpha, "flexible")._replace(detail=f"content={alpha}")


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
    rows are distinct positive integers (r_t >= t), and
    ``schubitope.column_caps`` raises RuntimeError for a column without
    them.  With rng=None the smallest labels are taken, giving a
    deterministic point.  For the Rothe diagram of w the result is always a
    lattice point of the Schubitope of w.
    """
    counts = [0] * d.n_rows
    for caps in schubitope.column_caps(d.columns):
        prev = 0
        for hi in caps:
            lo = prev + 1
            x = lo if rng is None else rng.randint(lo, hi)
            counts[x - 1] += 1
            prev = x
    return tuple(counts)


def flexible_test_sampled(
    factors: Sequence[Perm],
    target: Perm,
    samples: int = 32,
    seed: int = 0,
    code_verdict: Optional[VanishingVerdict] = None,
) -> VanishingVerdict:
    """Randomized driver: try the target's code, then sampled contents.

    Distinct sampled points only; returns the first Vanishes verdict, else
    Inconclusive with the number of distinct contents tried.  Samples are
    drawn only until a content vanishes, so a problem the code decides draws
    none.  Every content tried is the content of a filling of the target's
    diagram (the code labels each cell with its row), so it lies in the
    target's Schubitope without a check.

    The verdict on the code is ``asymmetric_test(factors, target)``, taken
    over as the flexible one; a caller that has it already passes it as
    code_verdict, so the code is not decided twice.  Its witness's diagram
    serves the sampled contents.  A DEGREE_MISMATCH becomes the flexible
    one, whose note names the content total.
    """
    if code_verdict is None:
        code_verdict = asymmetric_test(factors, target)
    if code_verdict.outcome is Outcome.DEGREE_MISMATCH:
        return _mismatch("flexible", "the content total")
    target_d = permcore.rothe_diagram(permcore.common_embed([*factors, target])[-1])
    code = target_d.row_counts()
    verdict = code_verdict._replace(method="flexible", detail=f"content={code}")
    if verdict.outcome is not Outcome.INCONCLUSIVE:
        return verdict
    d = verdict.witness.diagram
    rng = random.Random(seed)
    seen = {code}
    for _ in range(samples):
        alpha = sample_schubitope_point(target_d, rng)
        if alpha not in seen:
            seen.add(alpha)
            verdict = _content_verdict(d, alpha)
            if verdict.outcome is Outcome.VANISHES:
                return verdict
    return verdict._replace(detail=f"{len(seen)} distinct contents tried")
