"""Exact laws of the colon ideal ((x_1^k, ..., x_d^k) : p) that need no
oracle, so they hold at any size: a failure is a defect in the program, and
the law is not to be weakened to pass.

- Torus equivariance.  For lambda in (Q^*)^d let q(x) = p(lambda*x).  The
  substitution x_i -> lambda_i*x_i fixes every monomial ideal, so it maps
  (x^k : p) onto (x^k : q).  It scales the coefficient of x^m by lambda^m, so
  the Hilbert function and the LEX initial ideal stay, and the RREF row led
  by x^a, entry r_c at x^(m_c), becomes r_c*lambda^(m_c)/lambda^a.
- Permutations.  Permuting the variables of p permutes those of the colon
  ideal, which keeps its Hilbert function, its one-dimensional socle and the
  verdict of ``verify_gorenstein_ann``.
- GL_d equivariance of Ann.  For an invertible matrix A, Ann(F o A) is the
  image of Ann(F) under the contragredient change of variables, a graded
  automorphism: the Hilbert function, the degrees of the minimal generators
  and the socle dimension agree.  F o A is dense in every degree.
- Macaulay's theorem.  The Hilbert function h of a standard graded quotient
  R/I is an O-sequence: h(1) <= d and h(e+1) <= h(e)^<e> for e >= 1
  (Bruns-Herzog, Cohen-Macaulay Rings, Thm 4.2.10).
- Stanley's codimension-3 theorem.  The h-vector of an artinian Gorenstein
  algebra of codimension at most 3 is an SI-sequence: symmetric, with the
  first differences of its first half an O-sequence (Stanley, Adv. Math.
  28, 1978, from Buchsbaum-Eisenbud 1977).  It fails in codimension 13,
  (1, 13, 12, 13, 1), so it is drawn for d <= 3 only.
"""

from fractions import Fraction
from math import comb, prod

from hypothesis import given, settings, strategies as st

from apolar import (
    Context,
    ExponentVector,
    GorensteinSpec,
    Polynomial,
    ann_partial,
    random_spec,
    verify_gorenstein_ann,
)
from apolar.exponents import monomials_of_degree
from support import gorenstein_specs


def _weight(scales, m) -> Fraction:
    return prod((s ** a for s, a in zip(scales, m.coords)), start=Fraction(1))


@settings(max_examples=45)
@given(gorenstein_specs(dims=(1, 2, 3, 4)), st.data())
def test_torus_scaling_rescales_each_echelon_row(spec, data):
    scale = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    scales = data.draw(st.lists(scale, min_size=spec.d, max_size=spec.d))
    q = Polynomial(spec.ctx, {m: c * _weight(scales, m) for m, c in spec.p.terms()})
    colon, scaled = spec.colon_ideal(), GorensteinSpec(spec.k, q).colon_ideal()
    assert scaled.hilbert_function() == colon.hilbert_function()
    assert scaled.initial_monomials() == colon.initial_monomials()
    for e in range(spec.top_degree + 2):
        sl = colon.slice(e)
        weights = [_weight(scales, m) for m in sl.monomial_basis]
        want = tuple(tuple(r * w / weights[p] for r, w in zip(row, weights))
                     for row, p in zip(sl.reduced_rows, sl._pivots))
        assert scaled.slice(e).reduced_rows == want, e


@settings(max_examples=60)
@given(gorenstein_specs(dims=(2, 3, 4)), st.data())
def test_permuting_the_variables_keeps_hilbert_socle_and_verdict(spec, data):
    order = data.draw(st.permutations(range(spec.d)))
    q = Polynomial(spec.ctx, {ExponentVector(spec.ctx, tuple(m.coords[i] for i in order)): c
                              for m, c in spec.p.terms()})
    other = GorensteinSpec(spec.k, q)
    assert other.colon_ideal().hilbert_function() == spec.colon_ideal().hilbert_function()
    assert other.colon_ideal().socle_dimension() == spec.colon_ideal().socle_dimension() == 1
    assert verify_gorenstein_ann(other) is verify_gorenstein_ann(spec) is True


@st.composite
def forms(draw, dims=(2, 3), max_degree=4):
    """A form in d t-variables of degree 0..max_degree, with one to four
    terms of mixed signs and denominators."""
    ctx = Context.of_dim(draw(st.sampled_from(dims)), "t")
    pool = monomials_of_degree(ctx, draw(st.integers(0, max_degree)))
    support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    return Polynomial(ctx, {ev: draw(coeff) for ev in support})


def _det(a) -> int:
    """The determinant of a square integer matrix, along its first row."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def _compose(f: Polynomial, a) -> Polynomial:
    """f(A t): each t_i replaced by the linear form sum_j a_ij t_j."""
    ctx = f.ctx
    lin = [sum((Polynomial.variable(ctx, j).scale(x) for j, x in enumerate(row)), Polynomial.zero(ctx))
           for row in a]
    out = Polynomial.zero(ctx)
    for m, c in f.terms():
        out += prod((form ** n for form, n in zip(lin, m.coords)), start=Polynomial.constant(ctx, c))
    return out


def _macaulay_bound(h: int, e: int) -> int:
    """h^<e>: with h = C(a_e, e) + C(a_(e-1), e-1) + ... + C(a_j, j), the
    greedy e-binomial expansion, the sum of the C(a_i + 1, i + 1)."""
    out = 0
    while h and e:
        a = e
        while comb(a + 1, e) <= h:
            a += 1
        out, h, e = out + comb(a + 1, e + 1), h - comb(a, e), e - 1
    return out


def _is_o_sequence(h, d: int) -> bool:
    """h(0) = 1, h(1) <= d and h(e+1) <= h(e)^<e> for e >= 1, with h zero
    past its end."""
    h = list(h) + [0]
    return (h[0] == 1 and h[1] <= d and all(x >= 0 for x in h)
            and all(h[e + 1] <= _macaulay_bound(h[e], e) for e in range(1, len(h) - 1)))


def _is_si_sequence(h, d: int) -> bool:
    """Symmetric, with the first differences up to the middle an O-sequence."""
    half = h[:(len(h) + 1) // 2]
    diffs = [half[0]] + [b - a for a, b in zip(half, half[1:])]
    return list(h) == list(reversed(h)) and _is_o_sequence(diffs, d)


@settings(max_examples=40)
@given(forms(), st.data())
def test_an_invertible_change_of_variables_keeps_ann_invariants(f, data):
    d = f.ctx.dim
    entry = st.integers(-2, 2)
    a = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
                  .filter(_det))
    g = _compose(f, a)
    ann, moved = ann_partial(f), ann_partial(g)
    assert moved.hilbert_function() == ann.hilbert_function()
    assert (sorted(x.homogeneous_degree() for x in moved.generators)
            == sorted(x.homogeneous_degree() for x in ann.generators))
    assert moved.socle_dimension() == ann.socle_dimension() == 1


def test_macaulay_bound_and_si_sequences_on_known_values():
    # 5 = C(3,2) + C(2,1), so 5^<2> = C(4,3) + C(3,2) = 7.
    assert _macaulay_bound(5, 2) == 7 and _macaulay_bound(3, 1) == 6 and _macaulay_bound(0, 3) == 0
    assert _is_o_sequence([1, 3, 6, 10], 3) and not _is_o_sequence([1, 2, 4], 3)
    assert _is_si_sequence([1, 3, 6, 3, 1], 3) and _is_si_sequence([1, 2, 2, 1], 2)
    assert not _is_si_sequence([1, 13, 12, 13, 1], 13)
    assert not _is_si_sequence([1, 3, 2, 1], 3)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_colon_hilbert_functions_are_o_sequences(rnd):
    spec = random_spec(rnd, dims=(1, 2, 3, 4))
    assert _is_o_sequence(spec.colon_ideal().hilbert_function(), spec.d)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), forms(dims=(1, 2, 3)))
def test_gorenstein_h_vectors_in_codimension_three_are_si_sequences(rnd, f):
    spec = random_spec(rnd, dims=(1, 2, 3))
    assert _is_si_sequence(spec.colon_ideal().hilbert_function(), spec.d)
    assert _is_si_sequence(ann_partial(f).hilbert_function(), f.ctx.dim)
