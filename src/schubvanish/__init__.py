"""Exact vanishing tests for Schubert intersection numbers.

The package decides, in polynomial time and exact arithmetic, sufficient
conditions for a Schubert intersection number of the complete flag variety
to vanish, and emits certificates a reader can check by hand.  One
max-flow on the filling network (``filling_or_cut``) decides every
Schubitope verdict: it returns a filling, or the min cut as one violated
subset inequality.  A brute-force polynomial oracle and three classical
rival tests are included for cross-validation at small rank.

Every public name resolves on first access (PEP 562), so a process that
runs one batch imports only the modules the batch uses.
"""

import importlib

_EXPORTS = {
    "permcore": (
        "Diagram", "bruhat_leq", "code", "concat_diagrams", "descents",
        "embed", "format_permutation", "inverse", "length", "multiply",
        "parse_permutation", "rothe_diagram", "w0",
    ),
    "schubitope": (
        "DegreeMismatchError", "Filling", "InfeasibleSubset", "filling_or_cut",
        "schubitope_membership", "theta",
    ),
    "schubpoly": (
        "asymmetric_coefficient", "intersection_number", "schubert_polynomial",
        "verify_snp",
    ),
    "vanishing": (
        "Outcome", "SchubertProblem", "VanishingVerdict", "asymmetric_test",
        "flexible_test", "flexible_test_sampled", "sample_schubitope_point",
        "strength_comparison", "symmetric_test", "vanishing_certificate",
    ),
    "rivals": (
        "RootGamePosition", "Triple", "bruhat_vanishing_test", "dc_class",
        "dc_test", "dc_trivial", "is_doomed", "root_game_initial",
        "root_game_test",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("gpermutahedron", *_EXPORTS)

__all__ = sorted([*_MODULES, *_HOME])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
