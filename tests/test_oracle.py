import hashlib
import json
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
    Polynomial,
    SeriesSpec,
    docle,
    monomials_of_degree,
    parse_ideal,
    parse_polynomial,
    random_spec,
    series_annihilator_check,
)
from apolar import monomial_ideal, oracle
from apolar.linalg import rref
from apolar.oracle import (
    brute_ann,
    brute_docle,
    brute_quotient_dim,
    brute_series_check,
    brute_socle,
)

from hypothesis import given, settings
from support import cleared, gorenstein_specs, rand_zero_dim_ideal

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


def test_brute_docle_refuses_a_box_over_the_point_limit_before_scanning(monkeypatch):
    def scanned(ideal, m):
        raise AssertionError("a point was scanned")

    monkeypatch.setattr(MonomialIdeal, "contains", scanned)
    # 1001 * 1001 points, above MAX_BOX_POINTS = 10^6
    with pytest.raises(DomainError, match="limit of 1000000"):
        brute_docle(parse_ideal("(x1^3, x2^2)", CTX), ev(1000, 1000))


def test_brute_ann_refuses_a_degree_over_the_cell_limit_before_building_it(monkeypatch):
    # For deg q = 3 in two variables, degree e's matrix has (e + 1) * max(e + 1, 4 - e)
    # cells: 4, 6, 9 and 16 up to degree 3, then 25 in degree 4.
    monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 20)
    actions, act = [], oracle.diff_action
    monkeypatch.setattr(oracle, "diff_action", lambda f, g: actions.append(f) or act(f, g))
    with pytest.raises(DomainError, match="degree-4 oracle matrix has 5 x 5 cells"):
        brute_ann(parse_polynomial("t1^2*t2", TCTX), 4, CTX)
    assert len(actions) == 1 + 2 + 3 + 4  # the monomials of degrees 0 to 3 only


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
    artinian = HomogeneousIdealPresentation.from_monomial_ideal(parse_ideal("(x1^2, x2^3)", CTX))
    with pytest.raises(DomainError, match="cutoff must be >= 0") as exc:
        brute_quotient_dim(list(artinian.generators), -1)
    assert not isinstance(exc.value, NotArtinianError)


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


# sha256 of the presentations' text and socle() strings, captured on the
# engine that built socle rows from Fraction cosets.
SOCLE_DIGEST = "22e4445ce1416fb5274b45919eb4c6e43b7caf61b67f30b2fb8fbf0067118d3f"


def _socle_presentations() -> list[HomogeneousIdealPresentation]:
    """Seeded presentations in d = 2 and 3: pure powers x_i^3..x_i^(7-d),
    sometimes a quadratic monomial, plus forms of degree 3 with two or three
    rational terms (mostly not Gorenstein, with socles in several degrees
    and fractional classes); every fourth is a colon ideal's generators."""
    rng = random.Random(43)
    out = []
    for n in range(24):
        d = 2 + n % 2
        ctx = Context.of_dim(d)
        if n % 4 == 3:
            spec = random_spec(rng, dims=(d,), max_k=3)
            out.append(HomogeneousIdealPresentation(ctx, spec.colon_ideal().generators))
            continue
        gens = [
            Polynomial.monomial(ExponentVector(
                ctx, tuple(rng.randint(3, 7 - d) if j == i else 0 for j in range(d))))
            for i in range(d)
        ]
        if n % 4 == 2:
            gens.append(Polynomial.monomial(rng.choice(monomials_of_degree(ctx, 2))))
        for _ in range(rng.randint(1, d - 1)):
            pool = monomials_of_degree(ctx, 3)
            gens.append(Polynomial(ctx, {
                ev: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for ev in rng.sample(pool, min(len(pool), rng.randint(2, 3)))
            }))
        out.append(HomogeneousIdealPresentation(ctx, gens))
    return out


def test_brute_socle_fixtures():
    named = Context(("x", "y"))

    def monomial_gens(text):
        ideal = parse_ideal(text, named)
        return list(HomogeneousIdealPresentation.from_monomial_ideal(ideal).generators)

    fat = brute_socle(monomial_gens("(x^2, x*y, y^2)"), 5)
    assert {e: sorted(map(str, basis)) for e, basis in fat.items()} == {0: [], 1: ["x", "y"]}
    gens = list(parse_ideal("(x^3, y^3, 3*x^2*y - 2*x*y^2)", named).generators)
    assert {e: len(basis) for e, basis in brute_socle(gens, 8).items()} == {
        0: 0, 1: 0, 2: 1, 3: 1,
    }
    with pytest.raises(NotArtinianError):
        brute_socle(monomial_gens("(x^2)"), 6)


def _socle_against_initial_docle(pres: HomogeneousIdealPresentation) -> dict[int, tuple[int, int]]:
    """Per degree e with (R/I)_e nonzero: the oracle's socle dimension and the
    number of degree-e points of docle(in_<(I))."""
    cutoff = sum(g.homogeneous_degree() for g in pres.generators) + pres.ctx.dim
    brute = brute_socle(list(pres.generators), cutoff)
    points = Counter(sum(p.coords) for p in docle(pres.initial_monomials()))
    assert set(points) <= set(brute), str(pres)
    return {e: (len(basis), points[e]) for e, basis in brute.items()}


def test_socle_is_bounded_by_the_docle_of_the_initial_ideal():
    # Graded Betti numbers only grow under Groebner degeneration, so each
    # degree's socle has at most as many dimensions as docle(in_<(I)) has
    # points there; for a monomial ideal the socle is spanned by its docle.
    strict = 0
    for pres in _socle_presentations():
        for e, (dim, points) in _socle_against_initial_docle(pres).items():
            assert dim <= points, (str(pres), e)
            strict += dim < points
    assert strict
    rng = random.Random(44)
    for n in range(18):
        ideal = rand_zero_dim_ideal(rng, 1 + n % 3, max_coord=3)
        pres = HomogeneousIdealPresentation.from_monomial_ideal(ideal)
        for e, (dim, points) in _socle_against_initial_docle(pres).items():
            assert dim == points, (str(ideal), e)


@settings(max_examples=40)
@given(gorenstein_specs(max_k=3))
def test_colon_socles_are_bounded_by_the_docle_of_the_initial_ideal(spec):
    pres = HomogeneousIdealPresentation(spec.ctx, spec.colon_ideal().generators)
    for e, (dim, points) in _socle_against_initial_docle(pres).items():
        assert dim <= points, (str(pres), e)


def _assert_socle_matches_brute_socle(pres: HomogeneousIdealPresentation, classes) -> None:
    """Per degree, the engine's classes and the oracle's basis have the same
    number and span the same space (both are normal forms under LEX)."""
    cutoff = sum(g.homogeneous_degree() for g in pres.generators) + pres.ctx.dim
    brute = brute_socle(list(pres.generators), cutoff)
    assert sorted(brute) == list(range(len(pres.hilbert_function())))
    for e, basis in brute.items():
        engine = [c.polynomial() for c in classes if c.degree == e]
        assert len(engine) == len(basis), (str(pres), e)
        monomials = monomials_of_degree(pres.ctx, e)
        n = len(monomials)
        rows = [[cleared([f.coeff(m) for m in monomials]) for f in fs] for fs in (engine, basis)]
        spans = [rref([[row.get(c, 0) for c in range(n)] for row in rs], n) for rs in rows]
        assert spans[0] == spans[1], (str(pres), e)


def test_socle_matches_brute_socle():
    items, degrees, fractional, larger = [], Counter(), False, False
    for pres in _socle_presentations():
        classes = pres.socle()
        items.append([str(pres), [f"degree {c.degree}: {c}" for c in classes]])
        _assert_socle_matches_brute_socle(pres, classes)
        degrees[len({c.degree for c in classes})] += 1
        fractional |= any(x.denominator > 1 for c in classes for x in c.coords)
        larger |= len(classes) > 1
    assert degrees[2] and fractional and larger
    blob = json.dumps(items, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SOCLE_DIGEST


def test_socle_reads_neither_the_initial_ideal_nor_its_docle(monkeypatch):
    # socle finds the degrees of docle(in_<(I)) on the slices themselves:
    # it builds no initial ideal and folds no irreducible decomposition.
    def refuse(*args):
        raise AssertionError("socle read the initial ideal or folded its docle")

    monkeypatch.setattr(HomogeneousIdealPresentation, "initial_monomials", refuse)
    monkeypatch.setattr(monomial_ideal, "_fold_splits", refuse)
    for pres in _socle_presentations():
        _assert_socle_matches_brute_socle(pres, pres.socle())
