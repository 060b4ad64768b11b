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
"""

from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from apolar import ExponentVector, GorensteinSpec, Polynomial, verify_gorenstein_ann
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
