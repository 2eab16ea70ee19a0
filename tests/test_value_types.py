"""The value classes keep the semantics the frozen dataclasses, NamedTuples
and the Enum they replace had."""

import copy
import pickle
from fractions import Fraction

import pytest

from schubvanish import cli, permcore, rivals, schubitope, vanishing
from schubvanish.vanishing import Outcome


def make_all():
    """Two independently built equal instances of every value class."""
    d = permcore.rothe_diagram((2, 1, 5, 4, 3))
    filling = schubitope.filling_or_cut(d, d.row_counts())
    return {
        "Diagram": lambda: permcore.diagram([(1, 1), (3, 4), (4, 3)], 5, 5),
        "SchubertProblem": lambda: vanishing.SchubertProblem(((2, 1, 3), (1, 3, 2)), (3, 1, 2)),
        "Triple": lambda: rivals.Triple((2, 1), (1, 3, 2), (2, 1, 3)),
        "InfeasibleSubset": lambda: schubitope.InfeasibleSubset((1,), 4, 3),
        "Filling": lambda: schubitope.Filling.from_dict(d, dict(filling.labels)),
        "VanishingVerdict": lambda: vanishing.VanishingVerdict(
            Outcome.VANISHES, "m", schubitope.InfeasibleSubset((1,), 4, 3)
        ),
        "Options": lambda: cli.Options(tests=("schubitope", "oracle"), seed=3),
        "FarkasCertificate": lambda: schubitope.lp_feasible(d, (4, 0, 0, 0, 0)),
    }


@pytest.mark.parametrize("name", sorted(make_all()))
def test_equal_instances_are_equal_and_hash_equal(name):
    build = make_all()[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert type(a).__name__ == name


@pytest.mark.parametrize("name", sorted(make_all()))
def test_fields_cannot_be_assigned(name):
    value = make_all()[name]()
    field = next(iter(value._fields))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", sorted(make_all()))
def test_copies_and_pickles_are_equal(name):
    value = make_all()[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


def test_outcomes_are_three_strings_compared_by_identity():
    outcomes = (Outcome.VANISHES, Outcome.INCONCLUSIVE, Outcome.DEGREE_MISMATCH)
    for outcome, name in zip(outcomes, ("VANISHES", "INCONCLUSIVE", "DEGREE_MISMATCH")):
        assert outcome.value == name and type(outcome.value) is str
        assert outcome == name and name == outcome and hash(outcome) == hash(name)
        assert isinstance(outcome, str) and isinstance(outcome, Outcome)
        assert Outcome(name) is outcome
        assert copy.deepcopy(outcome) is outcome
        assert pickle.loads(pickle.dumps(outcome)) is outcome
        assert repr(outcome) == f"<Outcome.{name}: {name!r}>"
    assert len(set(outcomes)) == 3
    for other in ("vanishes", "value", "__new__"):
        with pytest.raises(ValueError, match="not a valid Outcome"):
            Outcome(other)
    verdict = vanishing.symmetric_test([(1, 2, 3)] * 3)
    assert verdict.outcome is Outcome.DEGREE_MISMATCH


def test_replace_and_asdict():
    verdict = vanishing.VanishingVerdict(Outcome.INCONCLUSIVE, "m", detail="a")
    assert verdict._asdict() == {
        "outcome": Outcome.INCONCLUSIVE, "method": "m", "certificate": None,
        "witness": None, "detail": "a",
    }
    changed = verdict._replace(method="flexible", detail="b")
    assert changed == vanishing.VanishingVerdict(Outcome.INCONCLUSIVE, "flexible", None, None, "b")
    assert verdict.method == "m" and verdict.detail == "a"
    options = cli.Options(seed=3)
    assert list(options._asdict()) == list(cli.Options._fields) == [
        "tests", "flexible_samples", "seed", "stable", "fmt",
    ]
    assert options._replace(tests=("oracle",)) == cli.Options(("oracle",), 0, 3, False, "text")
    with pytest.raises(TypeError):
        options._replace(jobs=2)


def test_certificates_build_from_positional_fields():
    # as perfbench/outcheck.py rebuilds them from a JSON record
    d, alpha = permcore.rothe_diagram((2, 1, 5, 4, 3)), (4, 0, 0, 0, 0)
    subset = schubitope.InfeasibleSubset((1,), 4, 3)
    assert (subset.rows, subset.lhs, subset.rhs) == ((1,), 4, 3)
    assert subset.validate(d, alpha)
    found = schubitope.lp_feasible(d, alpha)
    farkas = schubitope.FarkasCertificate(
        tuple(Fraction(x) for x in found.content),
        tuple(((s, j), Fraction(m)) for (s, j), m in found.prefix),
        found.columns,
    )
    assert type(farkas).__name__ == "FarkasCertificate"
    assert farkas == found and farkas.validate(d, alpha)


def test_reprs_show_the_fields():
    assert repr(schubitope.InfeasibleSubset((1,), 4, 3)) == "InfeasibleSubset(rows=(1,), lhs=4, rhs=3)"
    d = permcore.diagram([(1, 2)], 2, 3)
    assert repr(d) == "Diagram(columns=((), (1,), ()), n_rows=2)"
    assert repr(rivals.Triple((2, 1), (1, 3, 2), (2, 1, 3))) == (
        "Triple(u=(2, 1, 3), v=(1, 3, 2), w=(2, 1, 3))"
    )
    assert repr(vanishing.SchubertProblem(((1,),))) == "SchubertProblem(factors=((1,),), target=None)"
    assert repr(cli.Options()) == (
        "Options(tests=('schubitope',), flexible_samples=0, seed=0, stable=False, "
        "fmt='text')"
    )


def test_diagram_is_its_columns_and_row_count():
    d = permcore.diagram([(2, 1), (1, 1)], 2, 2)
    assert permcore.Diagram.__slots__ == ("columns", "n_rows")
    assert d.columns == ((1, 2), ()) and d.n_cols == 2 and d.cell_count == 2
    assert d == permcore.Diagram([[1, 2], []], 2)
    assert hash(d) == hash((d.columns, d.n_rows))
    assert d != permcore.diagram([(2, 1), (1, 1)], 2, 3)
    assert d != (d.columns, d.n_rows)


def test_diagram_rejects_columns_that_are_not_increasing_rows():
    for columns in ([(2, 1)], [(1, 1)], [(0,)], [(1, 3)]):
        with pytest.raises(ValueError, match="not increasing within 1..2"):
            permcore.Diagram(columns, 2)


def test_diagram_rejects_cells_outside_the_grid():
    for cells in ([(0, 1)], [(1, 0)], [(3, 1)], [(1, 3)]):
        with pytest.raises(ValueError, match="outside 2x2 grid"):
            permcore.diagram(cells, 2, 2)


def test_triple_embeds_and_checks_lengths():
    t = rivals.Triple((2, 1), (1, 3, 2), (2, 1, 3))
    assert t.factors == ((2, 1, 3), (1, 3, 2), (2, 1, 3))
    assert t.n == 3
    with pytest.raises(ValueError, match="do not sum to n"):
        rivals.Triple((2, 1, 3), (1, 3, 2), (3, 2, 1))


def test_schubert_problem_rejects_non_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        vanishing.SchubertProblem(((1, 1, 2), (2, 1)))
    with pytest.raises(ValueError, match="not a permutation"):
        vanishing.SchubertProblem(((2, 1),), (1, 3))
    with pytest.raises(ValueError, match="at least one factor"):
        vanishing.SchubertProblem(())


def test_triple_validates_through_post_init(monkeypatch):
    # perfbench/traced_cli.py counts triples built by wrapping this method
    calls = []
    post_init = rivals.Triple.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(rivals.Triple, "__post_init__", counting)
    t = rivals.Triple((2, 1), (1, 3, 2), (2, 1, 3))
    assert calls == [t] and t.u == (2, 1, 3)
