import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from apolar import (
    Antichain,
    Context,
    ExponentVector,
    HomogeneousIdealPresentation,
    MonomialIdeal,
    ParseError,
    Polynomial,
    parse_antichain,
    parse_ideal,
    parse_monomial,
    parse_polynomial,
)
from apolar.parsing import parse_naturals, parse_rationals

XY = Context(("x", "y"))
IDX = Context.of_dim(2)


def test_parse_ideal_detects_monomial_ideals():
    ideal = parse_ideal("(x1^3, x2^2)", IDX)
    assert isinstance(ideal, MonomialIdeal)
    assert {g.coords for g in ideal.gens} == {(3, 0), (0, 2)}


def test_parse_ideal_presentation():
    pres = parse_ideal("(x^3, y^2 - x*y)", XY)
    assert isinstance(pres, HomogeneousIdealPresentation)
    assert len(pres.generators) == 2
    assert all(g.is_homogeneous() for g in pres.generators)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_ideal("(x^3,", XY)
    assert err.value.position == 5
    for parse, text, message in (
        (parse_ideal, "(x", "expected ')', found 'end of input' at offset 2"),
        (parse_monomial, "2", "expected a monomial at offset 0"),
        (parse_antichain, "x", "expected '{', found 'x' at offset 0"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse(text, XY)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x + z", XY)


def test_coefficients_and_implicit_products():
    p = parse_polynomial("3xy + 1/2x^2 - y^2", XY)
    assert p.coeff(ExponentVector(XY, (1, 1))) == 3
    assert p.coeff(ExponentVector(XY, (2, 0))) == Fraction(1, 2)
    assert p.coeff(ExponentVector(XY, (0, 2))) == -1


def test_unicode_minus():
    assert parse_polynomial("y−x", XY) == parse_polynomial("y - x", XY)


def test_constants_and_zero():
    assert parse_polynomial("0", XY).is_zero
    assert parse_polynomial("7", XY) == Polynomial.constant(XY, 7)
    zero_ideal = parse_ideal("(0)", XY)
    assert isinstance(zero_ideal, MonomialIdeal) and zero_ideal.is_zero
    unit = parse_ideal("(1)", XY)
    assert isinstance(unit, MonomialIdeal) and unit.is_unit


def test_terms_collect():
    assert parse_polynomial("x + x", XY) == parse_polynomial("2x", XY)
    assert parse_polynomial("x - x", XY).is_zero


def test_parse_monomial_and_antichain():
    assert parse_monomial("x^2*y", XY).coords == (2, 1)
    chain = parse_antichain("{x1^2, x2}", IDX)
    assert chain == Antichain(
        IDX, (ExponentVector(IDX, (2, 0)), ExponentVector(IDX, (0, 1)))
    )
    identity = parse_antichain("{1}", IDX)
    assert identity.elems == (ExponentVector(IDX, (0, 0)),)


def test_antichain_rejects_comparable():
    from apolar import DomainError

    with pytest.raises(DomainError):
        parse_antichain("{x, x^2}", XY)


def test_round_trip_is_canonical():
    for text in ("(x1^3, x2^2)", "(x1^2, x1*x2)", "(x1*x2)"):
        ideal = parse_ideal(text, IDX)
        assert str(parse_ideal(str(ideal), IDX)) == str(ideal)
    poly = parse_polynomial("3*t1^2*t2 + 3*t1*t2^2 + t2^3", IDX.dual())
    assert parse_polynomial(str(poly), IDX.dual()) == poly
    assert str(parse_polynomial(str(poly), IDX.dual())) == str(poly)


def test_numbered_names_parse_greedily():
    big = Context.of_dim(12)
    p = parse_polynomial("x12^2*x1", big)
    coords = next(iter(p.support())).coords
    assert coords[11] == 2 and coords[0] == 1
    many = Context.of_dim(1500)
    coords = next(iter(parse_polynomial("x1*x10*x100*x1000", many).support())).coords
    assert [i for i, c in enumerate(coords) if c] == [0, 9, 99, 999]
    assert all(coords[i] == 1 for i in (0, 9, 99, 999))


def test_trailing_junk_rejected():
    with pytest.raises(ParseError, match=re.escape("unexpected ')' in polynomial at offset 5")):
        parse_polynomial("x + y)", XY)
    with pytest.raises(ParseError):
        parse_ideal("(x) y", XY)
    with pytest.raises(ParseError, match="trailing input after monomial at offset 1"):
        parse_monomial("x+y", XY)
    with pytest.raises(ParseError, match="trailing input after antichain at offset 4"):
        parse_antichain("{x} y", XY)


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="zero denominator at offset 5"):
        parse_polynomial("x + 1/0*y", XY)


def test_number_lists():
    assert parse_rationals(" 1, -1/2, +3/6 ") == (1, Fraction(-1, 2), Fraction(1, 2))
    assert parse_naturals("4, 0,12") == (4, 0, 12)
    for text, offset in (("1,abc", 2), ("1/0", 1), (",", 0), ("1 2", 2), ("", 0)):
        with pytest.raises(ParseError) as exc:
            parse_rationals(text)
        assert exc.value.position == offset
    with pytest.raises(ParseError):
        parse_naturals("4,-1")


@st.composite
def polynomials(draw):
    """A rational polynomial in 1-3 variables with up to five terms; zero too."""
    ctx = draw(st.sampled_from([Context.of_dim(1), XY, Context.of_dim(3)]))
    exponent = st.tuples(*[st.integers(0, 12)] * ctx.dim)
    coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
    terms = draw(st.dictionaries(exponent, coeff, max_size=5))
    return Polynomial(ctx, {ExponentVector(ctx, e): c for e, c in terms.items()})


@st.composite
def monomial_ideals(draw):
    ctx = draw(st.sampled_from([Context.of_dim(1), XY, Context.of_dim(3)]))
    exponent = st.tuples(*[st.integers(0, 9)] * ctx.dim)
    gens = draw(st.lists(exponent, max_size=6))
    return MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, e) for e in gens])


@given(polynomials())
def test_polynomial_text_round_trips(p):
    assert parse_polynomial(str(p), p.ctx) == p


@given(monomial_ideals())
def test_monomial_ideal_text_round_trips(ideal):
    assert parse_ideal(str(ideal), ideal.ctx) == ideal
