import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, strategies as st

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
from apolar.polynomial import _divided, _numerators
from support import literal_action

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
            assert got == literal_action(op, target, with_coeffs)
            assert all(type(c) is Fraction for _, c in got.terms())
    assert diff_action(*cancelling).is_zero and contraction_action(*cancelling).is_zero


def test_diff_action_matches_the_literal_reference_at_high_exponents():
    # Targets with exponents up to 30, where q! is far above every result
    # coefficient, and sums built to cancel: x^p1/a - x^p2/b on
    # t^(r+p1) + t^(r+p2) has 0 at t^r for a = (r+p1)!/r!, b = (r+p2)!/r!.
    rng = random.Random(45)

    def rand_ev(ctx, top):
        return ExponentVector(ctx, (rng.randint(0, top), rng.randint(0, top)))

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))

    for _ in range(100):
        op = Polynomial(CTX, {rand_ev(CTX, 12): coeff() for _ in range(rng.randint(1, 4))})
        target = Polynomial(TCTX, {rand_ev(TCTX, 30): coeff() for _ in range(rng.randint(1, 5))})
        assert diff_action(op, target) == literal_action(op, target, True)
    for _ in range(100):
        r, p1, p2 = rand_ev(TCTX, 15), rand_ev(CTX, 15), rand_ev(CTX, 15)
        if p1 == p2:
            continue
        up = [ExponentVector(TCTX, tuple(map(sum, zip(r.coords, p.coords)))) for p in (p1, p2)]
        a, b = (Fraction(factorial(u.coords[0]) * factorial(u.coords[1]),
                         factorial(r.coords[0]) * factorial(r.coords[1])) for u in up)
        c = coeff()
        op = Polynomial(CTX, {p1: c / a, p2: -c / b})
        target = Polynomial(TCTX, {up[0]: 1, up[1]: 1})
        got = diff_action(op, target)
        assert got == literal_action(op, target, True)
        assert got.coeff(r) == 0


coefficients = st.one_of(
    st.integers(-5, 5),  # zeros included
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.booleans(),
)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6))
def test_a_polynomial_built_from_ints_holds_its_integer_form_from_the_start(raw):
    # The same values handed as they are drawn (ints, bools and Fractions
    # mixed), as Fractions, as ints and as bools, where those can hold
    # them, give equal polynomials with one integer form, and an int dict's
    # form is its nonzero pairs over 1.
    terms = {ExponentVector(CTX, e): c for e, c in raw.items()}
    builds = [terms, {ev: Fraction(c) for ev, c in terms.items()}]
    if all(Fraction(c).denominator == 1 for c in raw.values()):
        builds.append({ev: int(c) for ev, c in terms.items()})
        assert _numerators(Polynomial(CTX, builds[-1])) == (
            tuple((e, int(c)) for e, c in raw.items() if c), 1)
    if all(c in (0, 1) for c in raw.values()):
        builds.append({ev: bool(c) for ev, c in terms.items()})
    polys = [Polynomial(CTX, b) for b in builds]
    for f in polys:
        assert f == polys[0] and _numerators(f) == _numerators(polys[0])
        assert all(type(c) is Fraction for _, c in f.terms())


def _canonical(f):
    """f's integer form as (pairs dict, den), once its pairs are checked to
    hold distinct exponents and nonzero numerators."""
    pairs, den = _numerators(f)
    assert len(dict(pairs)) == len(pairs) and all(c for _, c in pairs) and den > 0
    return dict(pairs), den


fraction_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))),
    max_size=5,
)


@given(fraction_dicts, fraction_dicts, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
       st.integers(0, 3))
def test_arithmetic_matches_a_fraction_dict_reference(a, b, c, n):
    # +, -, unary -, *, scale and ** on the integer form agree with the same
    # operations on plain {exponent vector: Fraction} dicts, and each result
    # holds the integer form a Polynomial built from its own terms holds.
    def reference(terms):
        return {ExponentVector(CTX, e): Fraction(v) for e, v in terms.items() if v}

    def added(x, y, sign=1):
        out = dict(x)
        for ev, v in y.items():
            out[ev] = out.get(ev, 0) + sign * v
        return {ev: v for ev, v in out.items() if v}

    def multiplied(x, y):
        out = {}
        for e1, v1 in x.items():
            for e2, v2 in y.items():
                ev = ExponentVector(CTX, (e1.coords[0] + e2.coords[0], e1.coords[1] + e2.coords[1]))
                out[ev] = out.get(ev, 0) + v1 * v2
        return {ev: v for ev, v in out.items() if v}

    ra, rb = reference(a), reference(b)
    power = {ExponentVector(CTX, (0, 0)): Fraction(1)}
    for _ in range(n):
        power = multiplied(power, ra)
    f, g = (Polynomial(CTX, {ExponentVector(CTX, e): v for e, v in t.items()}) for t in (a, b))
    cases = [(f + g, added(ra, rb)), (f - g, added(ra, rb, -1)), (-f, added({}, ra, -1)),
             (f * g, multiplied(ra, rb)), (f.scale(c), {ev: v * c for ev, v in ra.items() if c}),
             (f ** n, power)]
    for got, want in cases:
        assert dict(got.terms()) == want
        assert _canonical(got) == _canonical(Polynomial(CTX, dict(got.terms())))


def test_a_lookup_by_coordinates_keeps_the_context():
    # The integer form keys terms by coordinate tuples: a vector or a
    # polynomial of another context with the same coordinates still differs.
    p = parse_polynomial("3*x - 1/2*y^2", CTX)
    assert p.coeff(ExponentVector(CTX, (1, 0))) == 3
    assert p.coeff(ExponentVector(TCTX, (1, 0))) == 0
    assert p.coeff(ExponentVector(CTX, (0, 1))) == 0
    assert Polynomial.variable(CTX, 0) != Polynomial.variable(TCTX, 0)
    assert Polynomial(CTX) != Polynomial(TCTX)
    for zero in (Polynomial(CTX), p - p, p.scale(0), Polynomial._from_ints(CTX, [], 6)):
        assert _numerators(zero) == ((), 1) and zero == Polynomial.zero(CTX)


@st.composite
def integer_forms(draw):
    """Distinct exponents, all of one degree or drawn freely, with integer
    numerators (zeros included), a denominator and a factor m >= 2."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 5))
        exps = [(a, n - a) for a in draw(st.lists(st.integers(0, n), unique=True, max_size=5))]
    else:
        exps = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), unique=True, max_size=5))
    nums = draw(st.lists(st.integers(-12, 12), min_size=len(exps), max_size=len(exps)))
    return list(zip(exps, nums)), draw(st.integers(2, 6)), draw(st.integers(2, 4))


EXTRA = ExponentVector(CTX, (5, 5))  # above every exponent integer_forms draws


ANSWERS = ("terms", "eq", "str", "coeff", "support", "degree", "numerators", "divided", "action")


@given(integer_forms(), st.permutations(ANSWERS))
def test_a_polynomial_built_three_ways_gives_the_same_answers(form, order):
    # The value sum n/den * x^s is built from a Fraction dict, from an int
    # dict (den = 1 only) and by the integer-form constructor over den*m, no
    # lcm of the reduced denominators.  Every answer matches a literal
    # reference, whichever form the first answer read.
    pairs, den, m = form
    op = parse_polynomial("t1^2 - 3/2*t1*t2 + 5*t2", TCTX)
    target = parse_polynomial("1/3*x^4*y^3 - x^2*y^5 + 7*x*y", CTX)
    for d in (1, den):
        want = {ExponentVector(CTX, s): Fraction(n, d) for s, n in pairs if n}
        lcm_den = lcm(*[c.denominator for c in want.values()])
        degrees = {ev.degree for ev in want}

        def answer(f, name):
            if name == "terms":
                assert f.terms() == sorted(want.items(), key=lambda t: t[0].coords[::-1])
                assert all(type(c) is Fraction for _, c in f.terms())
            elif name == "eq":
                assert f == Polynomial(CTX, dict(want)) and f != Polynomial(CTX, {EXTRA: 1})
            elif name == "str":
                assert str(f) == str(Polynomial(CTX, dict(want)))
            elif name == "coeff":
                assert all(f.coeff(ev) == c for ev, c in want.items()) and f.coeff(EXTRA) == 0
            elif name == "support":
                assert f.support() == set(want)
            elif name == "degree":
                assert f.is_zero == (not want) and f.degree() == max(degrees, default=None)
                assert f.is_homogeneous() == (len(degrees) <= 1)
                if len(degrees) > 1:
                    with pytest.raises(DomainError):
                        f.homogeneous_degree()
                else:
                    assert f.homogeneous_degree() == next(iter(degrees), None)
            elif name == "numerators":
                ints, got_den = _numerators(f)
                assert got_den == lcm_den and len(ints) == len(want)
                assert dict(ints) == {ev.coords: int(c * lcm_den) for ev, c in want.items()}
            elif name == "divided":
                assert dict(_divided(f)) == {
                    ev.coords: int(c * lcm_den) * factorial(ev.coords[0]) * factorial(ev.coords[1])
                    for ev, c in want.items()}
            else:
                got = diff_action(op, f), diff_action(f, target)
                assert got == (literal_action(op, f, True), literal_action(f, target, True))

        builds = [Polynomial(CTX, {ExponentVector(CTX, s): Fraction(n, d) for s, n in pairs}),
                  Polynomial._from_ints(CTX, [(s, n * m) for s, n in pairs], d * m)]
        if d == 1:
            builds.append(Polynomial(CTX, {ExponentVector(CTX, s): n for s, n in pairs}))
        for f in builds:
            for name in order:
                answer(f, name)


def test_text_round_trip():
    p = parse_polynomial("3*x^2*y + x*y^2 - 1/2*y^3", CTX)
    assert parse_polynomial(str(p), CTX) == p
    assert str(Polynomial.zero(CTX)) == "0"
