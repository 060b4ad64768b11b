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
from apolar.gorenstein import _is_annihilator_of
from apolar.graded_engine import GradedSlice
from apolar.linalg import rank, reduce_vector
from hypothesis import given
from support import cleared, gorenstein_specs, rand_zero_dim_ideal

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


def test_certificate_matches_the_slice_comparison():
    rng = random.Random(72)
    verdicts = Counter()
    for _ in range(40):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        ideal, f = spec.colon_ideal(), antipodal(spec)
        unweighted = Polynomial(
            f.ctx,
            {ExponentVector(f.ctx, tuple(spec.k - 1 - c for c in ev.coords)): a
             for ev, a in spec.p.terms()},
        )
        ev = rng.choice(sorted(f.support(), key=lambda e: e.coords))
        perturbed = Polynomial(f.ctx, {**f._terms, ev: 2 * f.coeff(ev)})
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
        assert _certified(ideal, f)
        for pair in ((ideal, unweighted), (ideal, perturbed), (swapped, f), *((j, f) for j in changed)):
            verdicts[_certified(*pair)] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 100, verdicts


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
            assert rank([cleared(row) for row in matrix], h[top - i]) == min(h[i], h[top - i])
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
    reads, read = [], GradedSlice.reduce_monomial

    def counted(sl, ev):
        reads.append(ev)
        return read(sl, ev)

    monkeypatch.setattr(GradedSlice, "reduce_monomial", counted)
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
            full = rank([cleared(row) for row in matrix], ncols) == min(len(matrix), ncols)
            assert pairing_is_nondegenerate(spec, i) == full, (spec, i)
            verdicts[full] += 1
    assert verdicts[True] and verdicts[False]


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
