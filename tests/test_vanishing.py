import collections
import random
import types

import pytest

from fillingref import is_valid_filling
from polyref import poly_mul, schubert_polynomial, staircase
from schubvanish import permcore as pc
from schubvanish import schubitope as sb
from schubvanish import schubpoly as sp
from schubvanish import vanishing as vn
from schubvanish.vanishing import Outcome


def perms(*texts):
    return tuple(pc.parse_permutation(t) for t in texts)


def test_symmetric_vanishing_examples():
    for factors in (
        perms("3256147", "2143657", "4632175"),
        perms("1423", "1423", "1423"),
        perms("3216547", "3216547", "4261573"),
    ):
        verdict = vn.symmetric_test(factors)
        assert verdict.outcome is Outcome.VANISHES
        assert verdict.certificate is not None
        d = pc.concat_diagrams([pc.rothe_diagram(w) for w in factors])
        n = len(factors[0])
        assert verdict.certificate.validate(d, staircase(n))
        assert sp.intersection_number(factors) == 0


def test_symmetric_degree_guard():
    verdict = vn.symmetric_test(perms("1234", "1234", "1234"))
    assert verdict.outcome is Outcome.DEGREE_MISMATCH
    assert verdict.certificate is None
    assert sp.intersection_number(perms("1234", "1234", "1234")) == 0


def test_symmetric_inconclusive_has_witness():
    verdict = vn.symmetric_test(perms("1234", "1234", "4321"))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert isinstance(verdict.witness, sb.Filling)
    d = pc.concat_diagrams(
        [pc.rothe_diagram(w) for w in perms("1234", "1234", "4321")]
    )
    assert verdict.witness.diagram == d
    assert is_valid_filling(verdict.witness, (3, 2, 1, 0))


def test_asymmetric_examples():
    v1 = vn.asymmetric_test(perms("4123", "1342"), pc.parse_permutation("4312"))
    assert v1.outcome is Outcome.VANISHES
    # 7236415 is w0 * 1652473: the asymmetric form of (3216547, 3216547, 1652473)
    target = pc.parse_permutation("7236415")
    assert pc.multiply(pc.w0(7), pc.parse_permutation("1652473")) == target
    v2 = vn.asymmetric_test(perms("3216547", "3216547"), target)
    assert v2.outcome is Outcome.VANISHES
    v3 = vn.asymmetric_test(perms("1423", "1423"), pc.parse_permutation("4213"))
    assert v3.outcome is Outcome.INCONCLUSIVE
    assert v3.witness is not None
    # the blocking monomial: the square carries 2 x1^3 x2, the code of 4213,
    # even though the multiplicity of the 4213 class itself is zero
    square = poly_mul(schubert_polynomial((1, 4, 2, 3), 4), schubert_polynomial((1, 4, 2, 3), 4))
    assert square[pc.code((4, 2, 1, 3))] == 2
    assert sp.asymmetric_coefficient(perms("1423", "1423"), (4, 2, 1, 3)) == 0


def test_asymmetric_degree_guard():
    verdict = vn.asymmetric_test(perms("1423", "1423"), (4, 3, 2, 1))
    assert verdict.outcome is Outcome.DEGREE_MISMATCH


def test_asymmetric_certificates_validate():
    factors = perms("4123", "1342")
    target = pc.parse_permutation("4312")
    verdict = vn.asymmetric_test(factors, target)
    d = pc.concat_diagrams([pc.rothe_diagram(w) for w in factors])
    assert verdict.certificate.validate(d, pc.code(target))


def test_flexible_rejects_alpha_outside_target_polytope():
    with pytest.raises(ValueError):
        vn.flexible_test(
            perms("231645", "231645"),
            pc.parse_permutation("451623"),
            (8, 0, 0, 0, 0, 0),
        )
    with pytest.raises(ValueError):
        vn.flexible_test(perms("1423", "1423"), (4, 2, 1, 3), (3, 1, 0, 0, 0))
    # short contents pad to the embedded rank instead of erroring
    padded = vn.flexible_test(perms("1423", "1423"), (4, 2, 1, 3), (3, 1))
    assert padded.outcome is Outcome.INCONCLUSIVE


def test_flexible_inconclusive_for_every_monomial():
    u = pc.parse_permutation("231645")
    target = pc.parse_permutation("451623")
    assert pc.code(target) == (3, 3, 0, 2, 0, 0)
    # the polynomial of the target has exactly these three monomials
    monomials = {(3, 3, 0, 2, 0, 0), (3, 3, 1, 1, 0, 0), (3, 3, 2, 0, 0, 0)}
    assert set(schubert_polynomial(target)) == monomials
    for alpha in sorted(monomials):
        verdict = vn.flexible_test((u, u), target, alpha)
        assert verdict.outcome is Outcome.INCONCLUSIVE, alpha
        product = poly_mul(schubert_polynomial(u, 6), schubert_polynomial(u, 6))
        assert product.get(alpha, 0) > 0


def test_flexible_with_code_matches_asymmetric():
    # the whole verdict, witness included, but for its method and note: the
    # sampled driver takes the asymmetric verdict over as its verdict on the code
    cases = [
        (perms("4123", "1342"), pc.parse_permutation("4312")),
        (perms("1423", "1423"), pc.parse_permutation("4213")),
        (perms("231645", "231645"), pc.parse_permutation("451623")),
    ]
    rng = random.Random(23)
    for n in range(4, 10):
        for _ in range(8):
            target = random_permutation_of_length(n, rng.randint(1, n * (n - 1) // 2), rng)
            first = rng.randint(0, min(pc.length(target), n * (n - 1) // 2))
            factors = (
                random_permutation_of_length(n, first, rng),
                random_permutation_of_length(n, pc.length(target) - first, rng),
            )
            cases.append((factors, target))
    outcomes = set()
    for factors, target in cases:
        flex = vn.flexible_test(factors, target, pc.code(target))
        asym = vn.asymmetric_test(factors, target)
        assert flex._replace(method="", detail="") == asym._replace(method="", detail=""), (
            factors, target)
        outcomes.add(flex.outcome)
        assert vn.flexible_test_sampled(factors, target, 8, 5, asym) == (
            reference_flexible_sampled(factors, target, 8, 5)), (factors, target)
    assert outcomes == {Outcome.VANISHES, Outcome.INCONCLUSIVE}


def test_label_caps_once_per_diagram(monkeypatch):
    # one flexible problem: every flow on D and every point sampled from the
    # target's diagram read the caps their diagram got once
    factors, target = perms("231645", "231645"), pc.parse_permutation("451623")
    d = pc.concat_diagrams([pc.rothe_diagram(w) for w in factors])
    target_d = pc.rothe_diagram(target)
    calls = collections.Counter()
    caps_of = sb.label_caps

    def counting(rows):
        calls[tuple(rows)] += 1
        return caps_of(rows)

    monkeypatch.setattr(sb, "label_caps", counting)
    sb.column_caps.cache_clear()
    asym = vn.asymmetric_test(factors, target)
    verdict = vn.flexible_test_sampled(factors, target, 16, 0, asym)
    assert verdict.detail == "3 distinct contents tried"
    columns = collections.Counter(rows for g in (d, target_d) for rows in g.columns if rows)
    assert calls and calls <= columns, (calls, columns)


def test_flexible_trivial_nonvanishing():
    w = pc.parse_permutation("21543")
    verdict = vn.flexible_test((w,), w, pc.code(w))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.witness is not None


def test_sampler_identity_and_minimal():
    assert vn.sample_schubitope_point(pc.rothe_diagram((1, 2, 3, 4))) == (0, 0, 0, 0)
    w = pc.parse_permutation("21543")
    alpha = vn.sample_schubitope_point(pc.rothe_diagram(w))
    assert sum(alpha) == 4
    ok, _ = sb.schubitope_membership(pc.rothe_diagram(w), alpha)
    assert ok


def test_sampler_choices_always_exist():
    # column cell rows are distinct positive integers, so the t-th one is
    # at least t and the minimal labels 1..z always fit
    for n in range(1, 7):
        for w in pc.all_perms(n):
            d = pc.rothe_diagram(w)
            for rows in d.columns:
                assert all(r >= t for t, r in enumerate(rows, start=1))
            vn.sample_schubitope_point(d)


def test_sampler_refuses_a_column_without_labels():
    # no Diagram has a cell above its place in the column; a stand-in does
    stand_in = types.SimpleNamespace(columns=((1,), (0, 2)), n_rows=2)
    with pytest.raises(RuntimeError, match="no admissible labels for column 2"):
        vn.sample_schubitope_point(stand_in)


def test_sampler_points_are_members():
    rng = random.Random(7)
    for w in (perms("35142")[0], perms("246135")[0], perms("4632175")[0]):
        d = pc.rothe_diagram(w)
        for _ in range(25):
            alpha = vn.sample_schubitope_point(d, rng)
            assert sum(alpha) == pc.length(w)
            ok, _ = sb.schubitope_membership(d, alpha)
            assert ok, (w, alpha)


def test_sampler_hits_only_the_three_monomials():
    w = pc.parse_permutation("451623")
    allowed = {
        (3, 3, 0, 2, 0, 0), (3, 3, 1, 1, 0, 0), (3, 3, 2, 0, 0, 0),
    }
    d = pc.rothe_diagram(w)
    rng = random.Random(0)
    seen = set()
    for _ in range(60):
        alpha = vn.sample_schubitope_point(d, rng)
        assert alpha in allowed
        seen.add(alpha)
    assert len(seen) == 3


def test_flexible_sampled_driver():
    verdict = vn.flexible_test_sampled(
        perms("231645", "231645"),
        pc.parse_permutation("451623"),
        samples=16,
        seed=1,
    )
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert "3 distinct contents" in verdict.detail
    winner = vn.flexible_test_sampled(
        perms("4123", "1342"), pc.parse_permutation("4312"), samples=4, seed=1
    )
    assert winner.outcome is Outcome.VANISHES
    assert winner.certificate is not None


def reference_flexible_sampled(factors, target, samples, seed):
    """The sampled driver as one flexible_test call per distinct content."""
    n = max(len(w) for w in (*factors, target))
    target_d = pc.rothe_diagram(pc.embed(target, n))
    rng = random.Random(seed)
    candidates = [pc.code(pc.embed(target, n))]
    candidates += [vn.sample_schubitope_point(target_d, rng) for _ in range(samples)]
    tried, last = [], None
    for alpha in candidates:
        if alpha in tried:
            continue
        tried.append(alpha)
        last = vn.flexible_test(factors, target, alpha)
        if last.outcome is not Outcome.INCONCLUSIVE:
            return last
    return vn.VanishingVerdict(
        Outcome.INCONCLUSIVE,
        "flexible",
        witness=last.witness,
        detail=f"{len(tried)} distinct contents tried",
    )


def test_flexible_sampled_matches_per_content_reference():
    rng = random.Random(5)
    perms5 = pc.all_perms(5)
    outcomes = set()
    for seed in range(40):
        u, v = rng.choice(perms5), rng.choice(perms5)
        targets = [
            w for w in perms5 if pc.length(w) == pc.length(u) + pc.length(v)
        ] or [pc.w0(5)]
        target = rng.choice(targets)
        got = vn.flexible_test_sampled((u, v), target, samples=6, seed=seed)
        assert got == reference_flexible_sampled((u, v), target, 6, seed)
        outcomes.add(got.outcome)
    assert outcomes == {Outcome.VANISHES, Outcome.INCONCLUSIVE, Outcome.DEGREE_MISMATCH}


@pytest.mark.parametrize(
    "u, v, target, drawn",
    [
        ("4123", "1342", "4312", 0),  # the code vanishes
        ("142356", "214563", "342165", 2),  # the second sample vanishes
        ("231645", "231645", "451623", 8),  # no content vanishes
    ],
)
def test_samples_are_drawn_only_until_a_content_vanishes(
    u, v, target, drawn, monkeypatch
):
    factors, target = perms(u, v), pc.parse_permutation(target)
    reference = reference_flexible_sampled(factors, target, 8, 0)
    calls = []
    sample = vn.sample_schubitope_point

    def counting(d, rng=None):
        calls.append(d)
        return sample(d, rng)

    monkeypatch.setattr(vn, "sample_schubitope_point", counting)
    assert vn.flexible_test_sampled(factors, target, samples=8, seed=0) == reference
    assert len(calls) == drawn
    assert (reference.outcome is Outcome.VANISHES) == (drawn < 8)


def random_permutation_of_length(n, length, rng):
    """The permutation of a random Lehmer code with the given sum."""
    code = [0] * n
    for _ in range(length):
        code[rng.choice([i for i in range(n) if code[i] < n - 1 - i])] += 1
    free = list(range(1, n + 1))
    return tuple(free.pop(c) for c in code)


def test_sampled_contents_are_members_without_a_check(monkeypatch):
    # the driver skips the membership max-flow, so every content it tries
    # must be a member by construction; flexible_test still checks its input
    tried = []
    verdict_of = vn._verdict

    def recording(d, alpha, method):
        tried.append(alpha)
        return verdict_of(d, alpha, method)

    monkeypatch.setattr(vn, "_verdict", recording)
    rng = random.Random(11)
    checked = 0
    for n in range(4, 8):
        for seed in range(12):
            lu = rng.randint(0, n)
            lv = rng.randint(0, min(n, n * (n - 1) // 2 - lu))
            u, v = (random_permutation_of_length(n, k, rng) for k in (lu, lv))
            target = random_permutation_of_length(n, pc.length(u) + pc.length(v), rng)
            target_d = pc.rothe_diagram(target)
            # (target, identity) never vanishes, so the driver tries every content
            for factors in ((u, v), (target, pc.identity(n))):
                tried.clear()
                verdict = vn.flexible_test_sampled(factors, target, samples=16, seed=seed)
                assert tried and tried[0] == pc.code(target)
                if verdict.outcome is Outcome.INCONCLUSIVE:
                    assert verdict.detail == f"{len(tried)} distinct contents tried"
                for alpha in tried:
                    assert sb.schubitope_membership(target_d, alpha) == (True, None)
                checked += len(tried)
            if pc.length(target):
                outside = (0,) * (n - 1) + (pc.length(target),)
                assert not sb.schubitope_membership(target_d, outside)[0]
                with pytest.raises(ValueError, match="not in the target's Schubitope"):
                    vn.flexible_test((u, v), target, outside)
    assert checked > 4 * 4 * 12  # sampled contents, not only the codes


def test_vanishing_certificate_prefers_subset():
    d = pc.rothe_diagram(pc.parse_permutation("21543"))
    cert = vn.vanishing_certificate(d, (4, 0, 0, 0, 0))
    assert cert == sb.InfeasibleSubset((1,), 4, 3)
    factors = perms("3256147", "2143657", "4632175")
    big = pc.concat_diagrams([pc.rothe_diagram(w) for w in factors])
    cert = vn.vanishing_certificate(big, staircase(7))
    assert isinstance(cert, sb.InfeasibleSubset)
    assert cert.validate(big, staircase(7))


def test_vanishing_certificate_feasible_instance_errors():
    d = pc.rothe_diagram(pc.parse_permutation("21543"))
    with pytest.raises(ValueError):
        vn.vanishing_certificate(d, (3, 1, 0, 0, 0))


def test_vanishing_certificate_beyond_scan_limit():
    # 23 rows exceed the subset-scan cap; the min cut is still one subset
    d = pc.diagram([(1, 1)], 23, 1)
    alpha = (0, 1) + (0,) * 21
    cert = vn.vanishing_certificate(d, alpha)
    assert cert == sb.InfeasibleSubset((2,), 1, 0)
    assert cert.validate(d, alpha)
    with pytest.raises(sb.DegreeMismatchError):
        vn.vanishing_certificate(d, (0,) * 23)


def test_flexible_pads_short_contents():
    # rank-5 target against rank-6 factors: a short content embeds with zeros
    u = pc.parse_permutation("231645")
    factors = (u, (1, 2, 4, 3))
    target = pc.parse_permutation("23541")
    short = vn.flexible_test(factors, target, (1, 1, 2, 1))
    full = vn.flexible_test(factors, target, (1, 1, 2, 1, 0, 0))
    assert short.outcome is full.outcome
    assert short.outcome in (Outcome.VANISHES, Outcome.INCONCLUSIVE)


def test_strength_comparison():
    # the asymmetric test against the symmetric test on the factors plus the
    # target's complement: strictly stronger on the first problem
    for words, target, asymmetric in (
        (("4123", "1342"), "4312", Outcome.VANISHES),
        (("1423", "1423"), "4213", Outcome.INCONCLUSIVE),
    ):
        problem = vn.SchubertProblem(perms(*words), pc.parse_permutation(target))
        assert vn.asymmetric_test(problem.factors, problem.target).outcome is asymmetric
        assert vn.symmetric_test(problem.symmetrized().factors).outcome is Outcome.INCONCLUSIVE


def test_flexible_misses_both_monomials_of_4132():
    # the multiplicity of 4132 in the product of 1423 and 1342 is zero, yet
    # both monomials of the target appear in the product
    factors = perms("1423", "1342")
    target = pc.parse_permutation("4132")
    assert sp.asymmetric_coefficient(factors, target) == 0
    for alpha in ((3, 0, 1, 0), (3, 1, 0, 0)):
        verdict = vn.flexible_test(factors, target, alpha)
        assert verdict.outcome is Outcome.INCONCLUSIVE


def test_symmetric_soundness_sampled_s6():
    rng = random.Random(99)
    perms6 = pc.all_perms(6)
    by_len = {}
    for w in perms6:
        by_len.setdefault(pc.length(w), []).append(w)
    checked = 0
    while checked < 40:
        u, v = rng.choice(perms6), rng.choice(perms6)
        rest = 15 - pc.length(u) - pc.length(v)
        if rest not in by_len:
            continue
        w = rng.choice(by_len[rest])
        checked += 1
        verdict = vn.symmetric_test((u, v, w))
        if verdict.outcome is Outcome.VANISHES:
            assert sp.intersection_number((u, v, w)) == 0, (u, v, w)


def test_problem_record_helpers():
    p = vn.SchubertProblem(perms("21", "312"))
    assert p.mode == "symmetric"
    q = p.embedded()
    assert q.factors == ((2, 1, 3), (3, 1, 2))
    assert q.embedded() is q  # embedded once, whatever calls it again
    a = vn.SchubertProblem(perms("4123", "1342"), pc.parse_permutation("4312"))
    assert a.mode == "asymmetric"
    s = a.symmetrized()
    assert s.target is None
    assert s.factors == ((4, 1, 2, 3), (1, 3, 4, 2), (1, 2, 4, 3))
    with pytest.raises(ValueError):
        vn.SchubertProblem(((1, 1, 2),))


def test_staircase():
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)
