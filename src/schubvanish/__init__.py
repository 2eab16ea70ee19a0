"""Exact vanishing tests for Schubert intersection numbers.

The package decides, in polynomial time and exact arithmetic, sufficient
conditions for a Schubert intersection number of the complete flag variety
to vanish, and emits certificates a reader can check by hand.  One
max-flow on the filling network (``filling_or_cut``) decides every
Schubitope verdict: it returns a filling, or the min cut as one violated
subset inequality.  A brute-force polynomial oracle and three classical
rival tests are included for cross-validation at small rank.
"""

from .permcore import (
    Diagram,
    bruhat_leq,
    code,
    concat_diagrams,
    descents,
    embed,
    format_permutation,
    inverse,
    length,
    multiply,
    parse_permutation,
    rothe_diagram,
    w0,
)
from .schubitope import (
    DegreeMismatchError,
    Filling,
    InfeasibleSubset,
    enumerate_tab,
    filling_or_cut,
    schubitope_membership,
    theta,
)
from .schubpoly import (
    asymmetric_coefficient,
    intersection_number,
    schubert_polynomial,
    verify_snp,
)
from .vanishing import (
    Outcome,
    SchubertProblem,
    VanishingVerdict,
    asymmetric_test,
    flexible_test,
    flexible_test_sampled,
    sample_schubitope_point,
    strength_comparison,
    symmetric_test,
    vanishing_certificate,
)
from .rivals import (
    RootGamePosition,
    Triple,
    bruhat_vanishing_test,
    dc_class,
    dc_test,
    dc_trivial,
    is_doomed,
    root_game_initial,
    root_game_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
