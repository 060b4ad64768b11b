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
    MonomialIdeal,
    NotArtinianError,
    SeriesSpec,
    parse_ideal,
    parse_polynomial,
    random_spec,
    series_annihilator_check,
)
from apolar.oracle import brute_ann, brute_docle, brute_quotient_dim, brute_series_check

from support import rand_zero_dim_ideal

CTX = Context.of_dim(2)
TCTX = CTX.dual()


def ev(*coords):
    return ExponentVector(CTX, coords)


def test_brute_docle_fixtures():
    assert brute_docle(parse_ideal("(x1^3, x2^2)", CTX), ev(4, 4)).elems == (ev(2, 1),)
    assert brute_docle(parse_ideal("(x1^2, x1*x2)", CTX), ev(3, 3)).elems == (ev(1, 0),)
    assert brute_docle(parse_ideal("(x1*x2)", CTX), ev(3, 3)).elems == ()


def test_brute_docle_box_guard():
    with pytest.raises(DomainError):
        brute_docle(parse_ideal("(x1^3, x2^2)", CTX), ev(2, 2))


def test_brute_ann_fixtures():
    q = parse_polynomial("t1^2*t2", TCTX)
    kernels = brute_ann(q, 4, CTX)
    assert [len(kernels[e]) for e in range(5)] == [0, 0, 1, 3, 5]
    assert str(kernels[2][0]) == "x2^2"
    gens3 = {str(p) for p in kernels[3]}
    assert any("x1^3" in s for s in gens3)

    one = parse_polynomial("1", TCTX)
    kernels = brute_ann(one, 1, CTX)
    assert {str(p) for p in kernels[1]} == {"x1", "x2"}
    assert kernels[0] == []


def test_brute_ann_guard():
    q = parse_polynomial("t1^2*t2", TCTX)
    with pytest.raises(DomainError):
        brute_ann(q, 2, CTX)


def test_brute_quotient_dim_fixtures():
    named = Context(("x", "y"))
    pres = parse_ideal("(x^3, y^2 - x*y)", named)
    assert brute_quotient_dim(list(pres.generators), 10) == 6
    unit = HomogeneousIdealPresentation.from_monomial_ideal(MonomialIdeal.unit(CTX))
    assert brute_quotient_dim(list(unit.generators), 5) == 0


def test_brute_quotient_dim_cutoff():
    pres = parse_ideal("(x1)", CTX)
    with pytest.raises(NotArtinianError):
        brute_quotient_dim(list(
            HomogeneousIdealPresentation.from_monomial_ideal(pres).generators
        ), 6)


def test_brute_series_check_fixtures():
    spec = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y + x^3", Context(("x", "y"))))
    assert spec.top_degree == 3
    assert brute_series_check(spec, (1, 1, Fraction(1, 2), Fraction(1, 6)))
    assert brute_series_check(spec, (2, -1, 3, 1, 0))  # truncated at a_3
    # a_M = 0: the degree-M part of f(s) vanishes, so the boundary fails.
    assert not brute_series_check(spec, (1, 1, 1, 0))
    with pytest.raises(DomainError):
        brute_series_check(spec, (1, 1))


def test_brute_series_check_matches_series_annihilator_check():
    # Colon ideals give True; swapped-in artinian monomial ideals give True
    # exactly when their socle degree is the spec's top degree.
    rng = random.Random(41)
    verdicts = Counter()
    for d in (2, 3):
        for swap in (False, True):
            for _ in range(8):
                spec = random_spec(rng, dims=(d,), max_k=3)
                if swap:
                    ideal = rand_zero_dim_ideal(rng, d, max_coord=3)
                    spec._colon = HomogeneousIdealPresentation.from_monomial_ideal(ideal)
                top = spec.top_degree
                wild = tuple(
                    Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 3))
                    for _ in range(top + 1)
                )
                for series in (SeriesSpec.exponential(top), SeriesSpec.geometric(top),
                               SeriesSpec(wild)):
                    verdict = series_annihilator_check(spec, series)
                    assert brute_series_check(spec, series.coeffs) == verdict, spec
                    verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]
