import random
from fractions import Fraction
from math import factorial

import pytest

from apolar import (
    AmbientMismatchError,
    Context,
    DomainError,
    ExponentVector,
    Polynomial,
    annihilates,
    contraction_action,
    diff_action,
    parse_polynomial,
)

CTX = Context(("x", "y"))
TCTX = CTX.dual()


def test_arithmetic_fixtures():
    f = parse_polynomial("x + y", CTX)
    g = parse_polynomial("x - y", CTX)
    assert f * g == parse_polynomial("x^2 - y^2", CTX)
    p = parse_polynomial("x*y^2 + x^2*y + x^3", CTX)
    assert p.is_homogeneous()
    assert p.homogeneous_degree() == 3
    assert Polynomial.zero(CTX).degree() is None
    assert Polynomial.zero(CTX).is_homogeneous()


def test_sum_difference_negation_and_repr():
    f = parse_polynomial("x + y", CTX)
    g = parse_polynomial("x - 1/2*y", CTX)
    assert f + g == parse_polynomial("2*x + 1/2*y", CTX)
    assert f - g == parse_polynomial("3/2*y", CTX)
    assert -g == parse_polynomial("-x + 1/2*y", CTX) and -(-f) == f
    assert (f - f).is_zero and f + (-f) == Polynomial.zero(CTX)
    assert repr(g) == "Polynomial(x - 1/2*y)"
    assert repr(Polynomial.zero(CTX)) == "Polynomial(0)"
    t = Polynomial.variable(TCTX, 0)
    for op in (f.__add__, f.__sub__):
        with pytest.raises(AmbientMismatchError):
            op(t)
    with pytest.raises(AmbientMismatchError, match="term exponent"):
        Polynomial(CTX, {ExponentVector(TCTX, (1, 0)): 1})


def test_inhomogeneous_degree():
    q = parse_polynomial("x^2 + y", CTX)
    assert not q.is_homogeneous()
    assert q.degree() == 2
    with pytest.raises(DomainError):
        q.homogeneous_degree()


def test_scale_and_pow():
    f = parse_polynomial("x + y", CTX)
    assert f.scale(Fraction(1, 2)) == parse_polynomial("1/2*x + 1/2*y", CTX)
    assert 2 * f == parse_polynomial("2*x + 2*y", CTX)
    assert f ** 2 == parse_polynomial("x^2 + 2*x*y + y^2", CTX)
    with pytest.raises(DomainError, match="negative polynomial power"):
        f ** -1


def test_diff_action_fixtures():
    c1 = Context.of_dim(1)
    t1 = c1.dual()
    x = Polynomial.variable(c1, 0)
    y = Polynomial.variable(t1, 0)
    assert diff_action(x, y) == Polynomial.constant(t1, 1)
    x2 = Polynomial.monomial(ExponentVector(c1, (2,)))
    assert diff_action(x2, y).is_zero

    op = parse_polynomial("y^2 - x*y", CTX)
    target = Polynomial.monomial(ExponentVector(TCTX, (2, 1)))
    assert diff_action(op, target) == Polynomial.monomial(
        ExponentVector(TCTX, (1, 0)), -2
    )


def test_contraction_fixtures():
    c1 = Context.of_dim(1)
    t1 = c1.dual()
    op = Polynomial.monomial(ExponentVector(c1, (2,)))
    target = Polynomial.monomial(ExponentVector(t1, (3,)))
    assert contraction_action(op, target) == Polynomial.monomial(
        ExponentVector(t1, (1,))
    )
    far = Polynomial.monomial(ExponentVector(t1, (1,)))
    assert contraction_action(op, far).is_zero
    m = Polynomial.monomial(ExponentVector(TCTX, (2, 1)))
    mx = Polynomial.monomial(ExponentVector(CTX, (2, 1)))
    assert contraction_action(mx, m) == Polynomial.constant(TCTX, 1)


def test_annihilates_fixtures():
    q = Polynomial.monomial(ExponentVector(TCTX, (2, 1)))
    assert annihilates(parse_polynomial("x^3", CTX), q)
    assert not annihilates(parse_polynomial("y^2 - x*y", CTX), q)
    assert annihilates(Polynomial.zero(CTX), q)


def test_action_dimension_mismatch():
    c3 = Context.of_dim(3)
    with pytest.raises(AmbientMismatchError):
        diff_action(Polynomial.variable(CTX, 0), Polynomial.variable(c3, 0))


def rand_poly(rng, ctx, max_deg=3, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        ev = ExponentVector(
            ctx, tuple(rng.randint(0, max_deg) for _ in range(ctx.dim))
        )
        terms[ev] = Fraction(rng.randint(-4, 4))
    return Polynomial(ctx, terms)


def test_module_law_random():
    # (f g) o Q = f o (g o Q)
    rng = random.Random(41)
    for _ in range(150):
        f = rand_poly(rng, CTX, 2)
        g = rand_poly(rng, CTX, 2)
        q = rand_poly(rng, TCTX, 5)
        assert diff_action(f * g, q) == diff_action(f, diff_action(g, q))
        assert contraction_action(f * g, q) == contraction_action(
            f, contraction_action(g, q)
        )


def test_annihilating_combinations_term_by_term():
    # Over Q, a combination with nonzero coefficients kills a monomial target
    # iff every single monomial term does.
    rng = random.Random(42)
    for _ in range(200):
        target = Polynomial.monomial(
            ExponentVector(TCTX, (rng.randint(0, 4), rng.randint(0, 4)))
        )
        f = rand_poly(rng, CTX, 4)
        per_term = all(
            annihilates(Polynomial.monomial(m), target) for m in f.support()
        )
        assert annihilates(f, target) == per_term


def test_diff_and_contraction_agree_up_to_positive_scalars():
    rng = random.Random(43)
    for _ in range(150):
        m = ExponentVector(CTX, (rng.randint(0, 3), rng.randint(0, 3)))
        q = ExponentVector(TCTX, (rng.randint(0, 4), rng.randint(0, 4)))
        d = diff_action(Polynomial.monomial(m), Polynomial.monomial(q))
        c = contraction_action(Polynomial.monomial(m), Polynomial.monomial(q))
        assert d.is_zero == c.is_zero
        if not d.is_zero:
            (ev_d, coeff_d), = d.terms()
            (ev_c, coeff_c), = c.terms()
            assert ev_d == ev_c
            ratio = coeff_d / coeff_c
            assert ratio.denominator == 1 and ratio > 0
        f = rand_poly(rng, CTX, 3)
        target = Polynomial.monomial(q)
        assert annihilates(f, target) == contraction_action(f, target).is_zero


def _literal_action(op, target, with_coeffs):
    """The action expanded term by term in Fraction arithmetic."""
    acc = {}
    for p, a in op.terms():
        for q, b in target.terms():
            if all(x <= y for x, y in zip(p.coords, q.coords)):
                c = a * b
                if with_coeffs:
                    for x, y in zip(p.coords, q.coords):
                        c *= Fraction(factorial(y), factorial(y - x))
                rest = ExponentVector(target.ctx, tuple(y - x for x, y in zip(p.coords, q.coords)))
                acc[rest] = acc.get(rest, Fraction(0)) + c
    return Polynomial(target.ctx, acc)


def test_actions_match_a_literal_fraction_reference():
    rng = random.Random(44)

    def fractional(ctx, max_deg):  # every coefficient's denominator is above 1
        terms = {}
        for _ in range(rng.randint(1, 4)):
            ev = ExponentVector(ctx, (rng.randint(0, max_deg), rng.randint(0, max_deg)))
            terms[ev] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 7 * rng.randint(2, 5))
        return Polynomial(ctx, terms)

    pairs = [(fractional(CTX, 2), fractional(TCTX, 5)) for _ in range(150)]
    # x/2 - y/3 on 2/5*t1 + 3/5*t2: 1/5 - 1/5 cancels to zero.
    cancelling = parse_polynomial("1/2*x - 1/3*y", CTX), parse_polynomial("2/5*t1 + 3/5*t2", TCTX)
    pairs.append(cancelling)
    for op, target in pairs:
        for action, with_coeffs in ((diff_action, True), (contraction_action, False)):
            got = action(op, target)
            assert got == _literal_action(op, target, with_coeffs)
            assert all(type(c) is Fraction for _, c in got.terms())
    assert diff_action(*cancelling).is_zero and contraction_action(*cancelling).is_zero


def test_text_round_trip():
    p = parse_polynomial("3*x^2*y + x*y^2 - 1/2*y^3", CTX)
    assert parse_polynomial(str(p), CTX) == p
    assert str(Polynomial.zero(CTX)) == "0"
