import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from apolar import (
    Context,
    DomainError,
    ExponentVector,
    GorensteinSpec,
    HomogeneousIdealPresentation,
    Polynomial,
    SeriesSpec,
    ann_partial,
    antipodal,
    diff_action,
    dual_socle_poly,
    monomial_iff_test,
    monomials_of_degree,
    multinomial,
    pairing_is_nondegenerate,
    pairing_matrix,
    parse_ideal,
    parse_polynomial,
    power_ideal,
    random_spec,
    series_annihilator_check,
    verify_gorenstein_ann,
)
from apolar import gorenstein, graded_engine, polynomial
from apolar.exponents import box_monomials_of_degree
from apolar.gorenstein import _is_annihilator_of
from apolar.graded_engine import GradedSlice
from apolar.linalg import rank, reduce_vector
from hypothesis import given
from support import (
    cleared,
    gorenstein_specs,
    rand_zero_dim_ideal,
    reference_antipodal,
    reference_catalecticant,
)

CTX = Context(("x", "y"))
TCTX = CTX.dual()

SPEC1 = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y + x^3", CTX))
SPEC2 = GorensteinSpec(3, parse_polynomial("y", CTX))
SPEC3 = GorensteinSpec(10, parse_polynomial("y^6 + x^3*y^3 + x^5*y", CTX))


def test_spec_construction():
    assert SPEC1.p_degree == 3 and SPEC1.top_degree == 3
    assert SPEC1.leading_exponent.coords == (1, 2)
    assert SPEC1.socle_monomial.coords == (2, 1)
    assert SPEC3.top_degree == 12
    assert SPEC3.socle_monomial.coords == (9, 3)
    # terms inside the power ideal are dropped on construction
    trimmed = GorensteinSpec(2, parse_polynomial("x^2 + x*y", CTX))
    assert trimmed.p == parse_polynomial("x*y", CTX)
    with pytest.raises(DomainError):
        GorensteinSpec(2, parse_polynomial("x^2", CTX))
    with pytest.raises(DomainError):
        GorensteinSpec(3, parse_polynomial("x^2 + y", CTX))


def test_multinomial():
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(12, (9, 3)) == 220
    assert multinomial(0, (0, 0)) == 1
    with pytest.raises(DomainError):
        multinomial(3, (1, 1))


def test_antipodal_fixtures():
    assert antipodal(SPEC1) == parse_polynomial(
        "3*t1^2*t2 + 3*t1*t2^2 + t2^3", TCTX
    )
    assert antipodal(SPEC2) == parse_polynomial("3*t1^2*t2", TCTX)
    assert antipodal(SPEC3) == parse_polynomial(
        "220*t1^9*t2^3 + 924*t1^6*t2^6 + 495*t1^4*t2^8", TCTX
    )


def test_antipodal_monomial_iff_p_monomial():
    rng = random.Random(71)
    for _ in range(60):
        spec = random_spec(rng)
        anti = antipodal(spec)
        assert len(anti.support()) == len(spec.p.support())
        assert anti.homogeneous_degree() == spec.top_degree


def test_dual_socle_poly_fixtures():
    assert dual_socle_poly(SPEC1) == antipodal(SPEC1)
    assert dual_socle_poly(SPEC2) == antipodal(SPEC2)
    assert dual_socle_poly(SPEC3) == antipodal(SPEC3)


def test_dual_socle_poly_single_monomial_support():
    spec = GorensteinSpec(3, parse_polynomial("x*y", CTX))
    poly = dual_socle_poly(spec)
    assert len(poly.support()) == 1


def test_dual_socle_matches_antipodal_random():
    rng = random.Random(72)
    for _ in range(40):
        spec = random_spec(rng, dims=(2, 3), max_k=4)
        assert dual_socle_poly(spec) == antipodal(spec)


def test_antipodal_and_dual_socle_poly_match_the_literal_reference():
    # antipodal reads p's integer form and dual_socle_poly makes only the
    # one antipodal coefficient it compares; both equal the literal
    # reflection, on coefficients with denominators above 1.
    rng = random.Random(73)
    fractional = 0
    for _ in range(40):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        want = reference_antipodal(spec)
        assert antipodal(spec) == want and dual_socle_poly(spec) == want
        fractional += any(c.denominator > 1 for _, c in spec.p.terms())
    assert fractional > 10


def test_dual_socle_poly_refuses_a_functional_off_the_reflected_support():
    # phi nonzero at a degree-M exponent whose reflection is no exponent of
    # p leaves no antipodal coefficient to normalize by.
    spec = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y", CTX))  # M = 3
    spec._phi = {(0, 3): 5, (1, 2): 2}  # (0, 3) reflects to (3, 0), not in p
    with pytest.raises(DomainError, match="support differs"):
        dual_socle_poly(spec)


def test_verify_makes_no_fraction_for_the_generators_or_the_dual_form(monkeypatch):
    # verify_gorenstein_ann builds the colon ideal's generators and
    # F = antipodal(p) and certifies them in integers only: on
    # benchmark-shaped specs (d=3, k=5, a 4-term p of degree 6) it runs with
    # Fraction in polynomial, graded_engine and gorenstein replaced by a stub
    # that raises.  The specs are built, and F checked, outside the patch.
    made = []

    def recorded(spec):
        made.append(antipodal(spec))
        return made[-1]

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} made during verify_gorenstein_ann")

    monkeypatch.setattr(gorenstein, "antipodal", recorded)
    rng = random.Random(35)
    ctx = Context.of_dim(3)
    for _ in range(4):
        support = rng.sample(box_monomials_of_degree(ctx, 6, 4), 4)
        spec = GorensteinSpec(5, Polynomial(ctx, {
            ev: Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 4)) for ev in support}))
        with monkeypatch.context() as patch:
            for module in (polynomial, graded_engine, gorenstein):
                patch.setattr(module, "Fraction", no_fraction)
            assert verify_gorenstein_ann(spec)
        assert spec.colon_ideal().generators
        assert made[-1] == reference_antipodal(spec)
    assert len(made) == 4


def test_verify_gorenstein_ann_fixtures():
    assert verify_gorenstein_ann(SPEC1)
    assert verify_gorenstein_ann(SPEC2)
    assert verify_gorenstein_ann(SPEC3)


def _certified(ideal, f) -> bool:
    """The certificate's verdict on I == Ann(f), checked against comparing I
    slice by slice with Ann(f) built by ``ann_partial``."""
    verdict = _is_annihilator_of(ideal, f)
    assert verdict == ideal.equals(ann_partial(f, ideal.ctx)), (str(ideal), str(f))
    return verdict


def _monomial_pres(text):
    return HomogeneousIdealPresentation.from_monomial_ideal(parse_ideal(text, CTX))


@pytest.mark.parametrize(
    "f",
    [
        "t1^2*t2 + t1*t2^2 + t2^3",  # multinomial weights dropped
        "4*t1^2*t2 + 3*t1*t2^2 + t2^3",  # one coefficient perturbed
    ],
)
def test_certificate_rejects_a_wrong_dual_form(f):
    assert antipodal(SPEC1) == parse_polynomial("3*t1^2*t2 + 3*t1*t2^2 + t2^3", TCTX)
    assert _certified(SPEC1.colon_ideal(), antipodal(SPEC1))
    assert not _certified(SPEC1.colon_ideal(), parse_polynomial(f, TCTX))


def test_certificate_checks_degree_top_plus_one():
    # Ann(t1^4) = (x^5, y): (y) kills t1^4 and agrees with it up to degree 4,
    # the catalecticant ranks included, but misses x^5.
    spec = GorensteinSpec(5, parse_polynomial("y^4", CTX))
    f = antipodal(spec)
    assert f == parse_polynomial("t1^4", TCTX) and spec.top_degree == 4
    assert _certified(spec.colon_ideal(), f)
    short = _monomial_pres("(y)")
    assert short.slice(5).hilbert_value == 1
    assert not _certified(short, f)


def test_certificate_checks_catalecticant_ranks():
    # Ann(t1^2*t2) = (x^3, y^2).  (x^3, x*y^2, y^3) kills t1^2*t2 and holds
    # all of R_4, but misses y^2: rank Cat_2 = 2 < h(2) = 3.
    f = parse_polynomial("t1^2*t2", TCTX)
    assert _certified(_monomial_pres("(x^3, y^2)"), f)
    short = _monomial_pres("(x^3, x*y^2, y^3)")
    assert short.slice(4).hilbert_value == 0
    assert not _certified(short, f)


def _certificate_cases(rng, spec):
    """I, F = antipodal(p) and the other pairs the certificate must judge:
    I with F unweighted or one coefficient perturbed, a random monomial
    ideal with F, and I with a generator dropped or lifted, with F."""
    ideal, f = spec.colon_ideal(), antipodal(spec)
    unweighted = Polynomial(
        f.ctx,
        {ExponentVector(f.ctx, tuple(spec.k - 1 - c for c in ev.coords)): a
         for ev, a in spec.p.terms()},
    )
    ev = rng.choice(sorted(f.support(), key=lambda e: e.coords))
    perturbed = Polynomial(f.ctx, {**dict(f.terms()), ev: 2 * f.coeff(ev)})
    swapped = HomogeneousIdealPresentation.from_monomial_ideal(
        rand_zero_dim_ideal(rng, spec.d, max_coord=spec.top_degree + 2)
    )
    # I without one minimal generator g, plus all of R_(top+1), or with g
    # replaced by its multiples x_u*g: each kills f and, but for g of
    # degree top+1, only step 3 can tell it from I.
    top_forms = tuple(map(Polynomial.monomial, monomials_of_degree(spec.ctx, spec.top_degree + 1)))
    changed = []
    for i, g in enumerate(ideal.generators):
        rest = ideal.generators[:i] + ideal.generators[i + 1:]
        lifted = tuple(Polynomial.variable(spec.ctx, u) * g for u in range(spec.d))
        changed += [HomogeneousIdealPresentation(spec.ctx, rest + top_forms),
                    HomogeneousIdealPresentation(spec.ctx, rest + lifted)]
    return ideal, f, [(ideal, unweighted), (ideal, perturbed), (swapped, f), *((j, f) for j in changed)]


def test_certificate_matches_the_slice_comparison():
    rng = random.Random(72)
    verdicts = Counter()
    for _ in range(40):
        ideal, f, pairs = _certificate_cases(rng, random_spec(rng, dims=(1, 2, 3), max_k=4))
        assert _certified(ideal, f)
        for pair in pairs:
            verdicts[_certified(*pair)] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 100, verdicts


def _full_certificate(ideal, f) -> bool:
    """The certificate with step 3 run in every degree e = 0..M/2, on the
    falling-factorial catalecticant of ``support.reference_catalecticant``."""
    if not all(diff_action(g, f).is_zero for g in ideal.generators):
        return False
    top = f.homogeneous_degree()
    if ideal.slice(top + 1).hilbert_value:
        return False
    for e in range(top // 2 + 1):
        sl = ideal.slice(e)
        if (ideal.slice(top - e).hilbert_value > sl.hilbert_value
                or rank(reference_catalecticant(f, sl.standard_monomials)[0]) < sl.hilbert_value):
            return False
    return True


def _last_zero_degree(ideal, half) -> int:
    """The largest e <= half with I_e = 0, or -1 when I_0 != 0."""
    return max((e for e in range(half + 1)
                if ideal.slice(e).hilbert_value == len(monomials_of_degree(ideal.ctx, e))), default=-1)


def test_certificate_ranks_only_from_the_last_zero_degree(monkeypatch):
    # An accepted pair is ranked in degrees max(z, 0)..M/2 alone, z the last
    # degree <= M/2 where I is zero, and every verdict equals the one of the
    # certificate ranking every degree 0..M/2.
    calls = []
    monkeypatch.setattr(gorenstein, "rank", lambda rows: calls.append(rows) or rank(rows))
    rng = random.Random(73)
    verdicts, skipped = Counter(), 0
    for _ in range(40):
        ideal, f, pairs = _certificate_cases(rng, random_spec(rng, dims=(1, 2, 3), max_k=4))
        for pres, form in [(ideal, f), *pairs]:
            half = form.homogeneous_degree() // 2
            ranked = half - max(_last_zero_degree(pres, half), 0) + 1
            calls.clear()
            verdict = _is_annihilator_of(pres, form)
            assert verdict == _full_certificate(pres, form)
            assert len(calls) == ranked if verdict else len(calls) <= ranked
            verdicts[verdict] += 1
            skipped += verdict and ranked < half + 1
    assert verdicts[True] >= 10 and verdicts[False] >= 100 and skipped >= 10, (verdicts, skipped)


def test_certificate_rejects_by_the_rank_at_the_last_zero_degree(monkeypatch):
    # F = t1^4 + t2^4 has Ann(F) = (x*y, x^4 - y^4).  I = Ann(F) from degree
    # 3 up kills F, holds R_5 and has h_I = 1, 2, 3, 2, 1, so only a rank
    # tells it from Ann(F): I_2 = 0 (z = 2 = M/2), and Cat_2(F) has rank 2,
    # x*y in its kernel, below h_I(2) = 3.
    f = parse_polynomial("t1^4 + t2^4", TCTX)
    assert _certified(parse_ideal("(x*y, x^4 - y^4)", CTX), f)
    pres = parse_ideal("(x^2*y, x*y^2, x^4 - y^4)", CTX)
    assert [pres.slice(e).hilbert_value for e in range(6)] == [1, 2, 3, 2, 1, 0]
    calls = []
    monkeypatch.setattr(gorenstein, "rank", lambda rows: calls.append(rows) or rank(rows))
    assert not _is_annihilator_of(pres, f) and len(calls) == 1
    assert not _full_certificate(pres, f) and not _certified(pres, f)


@pytest.mark.parametrize(
    "ideal, hilbert",
    [
        # (x^2, y^4) = Ann(t1*t2^3) with x^2 (degree 2 <= M/2) replaced by
        # x^3, x^2*y: h is symmetric, so the rows of Cat_2 at the standard
        # monomials, x^2's among them, must be found dependent.
        ("(x^3, x^2*y, y^4)", [1, 2, 3, 2, 1]),
        # y^4 (degree 4 > M/2) replaced by x*y^4, y^5: h_I(4) > h_I(0).
        ("(x^2, x*y^4, y^5)", [1, 2, 2, 2, 2]),
    ],
)
def test_certificate_rejects_a_generator_replaced_by_its_multiples(ideal, hilbert):
    f = parse_polynomial("t1*t2^3", TCTX)
    assert _certified(_monomial_pres("(x^2, y^4)"), f)
    pres = _monomial_pres(ideal)
    assert [pres.slice(e).hilbert_value for e in range(6)] == hilbert + [0]
    assert not _certified(pres, f)


@given(gorenstein_specs())
def test_certificate_agrees_with_the_slice_comparison_on_generated_specs(spec):
    by_slices = GorensteinSpec(spec.k, spec.p).colon_ideal().equals(
        ann_partial(antipodal(spec), spec.ctx)
    )
    assert verify_gorenstein_ann(spec) is by_slices is True


def test_monomial_iff_fixtures():
    r1 = monomial_iff_test(SPEC1)
    assert (r1.is_monomial_ideal, r1.ann_of_socle_equals_ideal) == (False, False)
    assert r1.agree
    r2 = monomial_iff_test(SPEC2)
    assert (r2.is_monomial_ideal, r2.ann_of_socle_equals_ideal) == (True, True)
    assert str(r2.socle_monomial) == "x^2*y"
    r3 = monomial_iff_test(SPEC3)
    assert (r3.is_monomial_ideal, r3.ann_of_socle_equals_ideal) == (False, False)
    assert str(r3.socle_monomial) == "x^9*y^3"


def test_socle_pair_binomials_in_ideal():
    # a_i x^((k-1)1 - j) - a_j x^((k-1)1 - i) lies in the colon ideal.
    for spec in (SPEC1, SPEC3):
        ideal = spec.colon_ideal()
        support = spec.p.terms()
        for (i_ev, a_i), (j_ev, a_j) in itertools.combinations(support, 2):
            comp_i = ExponentVector(
                spec.ctx, tuple(spec.k - 1 - c for c in i_ev.coords)
            )
            comp_j = ExponentVector(
                spec.ctx, tuple(spec.k - 1 - c for c in j_ev.coords)
            )
            sl = ideal.slice(spec.top_degree)
            col = {ev: c for c, ev in enumerate(sl.monomial_basis)}
            binomial = {col[comp_j]: a_i, col[comp_i]: -a_j}
            assert not reduce_vector(cleared(binomial), sl._rows)


def test_one_element_socle_classes():
    # Each x^((k-1)1 - i), i in the support, lies in (I : m) \ I.
    for spec in (SPEC1, SPEC2, SPEC3):
        ideal = spec.colon_ideal()
        sl = ideal.slice(spec.top_degree)
        above = ideal.slice(spec.top_degree + 1)
        assert above.standard_monomials == ()
        for i_ev, _ in spec.p.terms():
            comp = ExponentVector(
                spec.ctx, tuple(spec.k - 1 - c for c in i_ev.coords)
            )
            assert any(sl.reduce_monomial(comp))  # not in I


def test_claim_ij_combinatorics():
    # Pairs summing to d(k-1): either a coordinate sum reaches k, or the sum
    # is exactly (k-1) everywhere.
    for d in (1, 2, 3):
        ctx = Context.of_dim(d)
        for k in (1, 2, 3, 4):
            for s in monomials_of_degree(ctx, d * (k - 1)):
                assert max(s.coords) >= k or all(c == k - 1 for c in s.coords)


def test_box_of_standard_monomials():
    for spec in (SPEC1, SPEC2, SPEC3):
        ideal = spec.colon_ideal()
        cap = spec.socle_monomial.coords
        for coords in itertools.product(*(range(c + 1) for c in cap)):
            ev = ExponentVector(spec.ctx, coords)
            assert ev in ideal.slice(ev.degree).standard_monomials


def test_hilbert_symmetry_and_pairing_fixtures():
    for spec in (SPEC1, SPEC2, SPEC3):
        h = spec.colon_ideal().hilbert_function()
        top = spec.top_degree
        assert len(h) == top + 1
        assert all(h[i] == h[top - i] for i in range(top + 1))
        for i in range(top + 1):
            matrix = pairing_matrix(spec, i)
            assert len(matrix) == h[i] and len(matrix[0]) == h[top - i]
            assert rank([cleared(row) for row in matrix]) == min(h[i], h[top - i])
            assert pairing_is_nondegenerate(spec, i)


def test_socle_functional_on_random_specs():
    # With K = (k-1, ..., k-1) and mu the LEX-largest exponent of p, the
    # binomials a_mu x^(K-q) - a_q x^(K-mu) lie in I, so phi(x^(K-q)) is
    # a_q / a_mu; every other degree-M monomial lies in I.
    rng = random.Random(74)
    for _ in range(60):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        top = spec.colon_ideal().slice(spec.top_degree)
        assert top.standard_monomials == (spec.socle_monomial,)
        a_mu = spec.p.coeff(spec.leading_exponent)
        expected = {
            tuple(spec.k - 1 - c for c in q.coords): a / a_mu for q, a in spec.p.terms()
        }
        phi = spec._phi
        degree_m = monomials_of_degree(spec.ctx, spec.top_degree)
        assert set(phi) == {ev.coords for ev in degree_m}
        assert all(type(c) is int for c in phi.values())
        scale = phi[spec.socle_monomial.coords]
        assert {j: Fraction(c, scale) for j, c in phi.items()} == {
            j: expected.get(j, 0) for j in phi
        }
        assert spec._phi is phi


def test_spec_memos_are_made_on_first_read():
    spec = GorensteinSpec(3, parse_polynomial("x1^2*x2 + x1*x2^2", Context.of_dim(2)))
    assert "_colon" not in vars(spec) and "_phi" not in vars(spec)
    colon, phi = spec._colon, spec._phi
    assert spec._colon is colon and spec.colon_ideal() is colon
    assert spec._phi is phi and "_phi" in vars(spec)


def test_socle_functional_is_read_once_per_spec(monkeypatch):
    spec = GorensteinSpec(4, parse_polynomial("x1^2*x2 + x1*x2*x3 - 2*x3^3", Context.of_dim(3)))
    reads, read = [], GradedSlice.coset

    def counted(sl, c):
        if sl.degree == spec.top_degree:
            reads.append(c)
        return read(sl, c)

    monkeypatch.setattr(GradedSlice, "coset", counted)
    dual = dual_socle_poly(spec)
    assert len(reads) == len(monomials_of_degree(spec.ctx, spec.top_degree))
    assert all(pairing_is_nondegenerate(spec, i) for i in range(spec.top_degree + 1))
    assert dual_socle_poly(spec) == dual == antipodal(spec)
    assert len(reads) == len(monomials_of_degree(spec.ctx, spec.top_degree))


def _reference_pairing(spec, i):
    """Each entry reduced on its own in the top slice."""
    ideal = spec.colon_ideal()
    top = ideal.slice(spec.top_degree)
    return [
        [
            top.reduce_monomial(
                ExponentVector(spec.ctx, tuple(a + b for a, b in zip(r.coords, c.coords)))
            )[0]
            for c in ideal.slice(spec.top_degree - i).standard_monomials
        ]
        for r in ideal.slice(i).standard_monomials
    ]


def test_pairing_matrix_matches_per_entry_reduction():
    rng = random.Random(75)
    for _ in range(40):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        for i in range(spec.top_degree + 1):
            assert pairing_matrix(spec, i) == _reference_pairing(spec, i)
    with pytest.raises(DomainError, match="out of range"):
        pairing_matrix(SPEC1, SPEC1.top_degree + 1)


def test_degenerate_pairing_is_reported():
    # (x^2, x*y, y^3) has h = (1, 2, 1) and top slice spanned by y^2, the
    # socle monomial of (3, x^2); in degree 1, x pairs to zero with x and y.
    spec = GorensteinSpec(3, parse_polynomial("x^2", CTX))
    spec._colon = _monomial_pres("(x^2, x*y, y^3)")
    assert pairing_matrix(spec, 1) == [[1, 0], [0, 0]]  # rows and columns y, x
    assert [pairing_is_nondegenerate(spec, i) for i in range(3)] == [True, False, True]


def test_pairing_verdict_is_the_rank_of_the_pairing_matrix():
    # Colon ideals, and half the time their LEX initial ideals swapped in:
    # same Hilbert function and top slice, often a degenerate pairing.
    rng = random.Random(76)
    verdicts = Counter()
    for n in range(80):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        if n % 2:
            initial = spec.colon_ideal().initial_monomials()
            spec._colon = HomogeneousIdealPresentation.from_monomial_ideal(initial)
        for i in range(spec.top_degree + 1):
            matrix = pairing_matrix(spec, i)
            ncols = len(matrix[0])
            full = rank([cleared(row) for row in matrix]) == min(len(matrix), ncols)
            assert pairing_is_nondegenerate(spec, i) == full, (spec, i)
            verdicts[full] += 1
    assert verdicts[True] and verdicts[False]


def test_pairing_verdicts_rank_one_of_each_dual_pair(monkeypatch):
    # Pairing M-i is the transpose of pairing i: a full sweep, read before
    # any pairing matrix, ranks floor(M/2) + 1 matrices and every verdict
    # still equals the rank of its own pairing matrix.
    import apolar.gorenstein as gorenstein

    ranked = []

    def counted(rows):
        ranked.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(gorenstein, "rank", counted)
    rng = random.Random(77)
    verdicts = Counter()
    for n in range(60):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        if n % 2:
            initial = GorensteinSpec(spec.k, spec.p).colon_ideal().initial_monomials()
            spec._colon = HomogeneousIdealPresentation.from_monomial_ideal(initial)
        top = spec.top_degree
        ranked.clear()
        sweep = [pairing_is_nondegenerate(spec, i) for i in reversed(range(top + 1))][::-1]
        assert len(ranked) == top // 2 + 1
        assert [pairing_is_nondegenerate(spec, i) for i in range(top + 1)] == sweep
        assert len(ranked) == top // 2 + 1
        for i, verdict in enumerate(sweep):
            matrix = pairing_matrix(spec, i)
            ncols = len(matrix[0])
            assert verdict == (rank([cleared(row) for row in matrix])
                               == min(len(matrix), ncols)), (spec, i)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]
    for i in (-1, SPEC1.top_degree + 1):
        with pytest.raises(DomainError, match="out of range"):
            pairing_is_nondegenerate(SPEC1, i)


def test_two_dimensional_top_slice_is_refused():
    # (x^3, y^3) has quotient basis x^2*y, x*y^2 in degree 3, SPEC1's top.
    spec = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y + x^3", CTX))
    spec._colon = _monomial_pres("(x^3, y^3)")
    assert len(spec.colon_ideal().slice(spec.top_degree).standard_monomials) == 2
    for call in (dual_socle_poly, lambda s: pairing_matrix(s, 1)):
        with pytest.raises(DomainError, match="not spanned by the socle monomial"):
            call(spec)


def test_series_spec_validation():
    with pytest.raises(DomainError):
        SeriesSpec((1, 0, 1))
    assert SeriesSpec.exponential(3).coeffs == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
    )
    assert SeriesSpec.geometric(2).coeffs == (1, 1, 1)


def test_series_annihilator_fixtures():
    assert series_annihilator_check(SPEC1, SeriesSpec.exponential(3))
    assert series_annihilator_check(SPEC1, SeriesSpec.geometric(3))
    with pytest.raises(DomainError):
        series_annihilator_check(SPEC1, SeriesSpec((1, 1)))


@pytest.mark.parametrize("k", [2, 4])
def test_series_annihilator_power_boundaries(k):
    # SPEC1 has top degree 3.  Swap in (x^k, y^k), whose quotient has top
    # degree 2k - 2: for k=2, (t.xbar)^3 vanishes; for k=4, degree 4 of the
    # quotient is nonzero.  Either way the check must fail.
    spec = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y + x^3", CTX))
    spec._colon = HomogeneousIdealPresentation.from_monomial_ideal(power_ideal(CTX, k))
    assert not series_annihilator_check(spec, SeriesSpec.exponential(3))


def test_series_annihilator_random():
    for dims in [(2,), (2, 3)]:
        rng = random.Random(73)
        for _ in range(10):
            spec = random_spec(rng, dims=dims, max_k=3)
            top = spec.top_degree
            series = SeriesSpec(
                tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(top + 1))
            )
            assert series_annihilator_check(spec, series)


def test_search_tooling_reproducible():
    a = random_spec(random.Random(99))
    b = random_spec(random.Random(99))
    assert a.k == b.k and a.p == b.p
