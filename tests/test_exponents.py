import itertools
import random

import pytest

from apolar import (
    AmbientMismatchError,
    Context,
    DomainError,
    ExponentVector,
    add,
    leq,
    lex_cmp,
    lex_key,
    monomials_of_degree,
    sub_checked,
    unit_vector,
    zero_vector,
)


def ev(ctx, *coords):
    return ExponentVector(ctx, coords)


CTX2 = Context.of_dim(2)


def test_leq_fixtures():
    assert leq(ev(CTX2, 1, 2), ev(CTX2, 2, 2))
    assert leq(zero_vector(CTX2), ev(CTX2, 5, 7))
    assert not leq(ev(CTX2, 2, 1), ev(CTX2, 1, 2))
    assert not leq(ev(CTX2, 1, 2), ev(CTX2, 2, 1))


def test_lex_cmp_fixtures():
    # y^6 is LEX-largest among y^6, x^3 y^3, x^5 y (last coordinate first).
    assert lex_cmp(ev(CTX2, 0, 6), ev(CTX2, 3, 3)) == 1
    assert lex_cmp(ev(CTX2, 3, 3), ev(CTX2, 3, 3)) == 0
    assert lex_cmp(ev(CTX2, 5, 1), ev(CTX2, 3, 3)) == -1


def test_dimension_mismatch_errors():
    c3 = Context.of_dim(3)
    with pytest.raises(AmbientMismatchError):
        leq(ev(CTX2, 1, 1), ev(c3, 1, 1, 1))
    with pytest.raises(AmbientMismatchError):
        lex_cmp(ev(CTX2, 1, 1), ev(c3, 1, 1, 1))
    with pytest.raises(AmbientMismatchError):
        ExponentVector(CTX2, (1, 2, 3))


def test_cross_alphabet_comparisons_allowed():
    # Operators and targets share a dimension but not an alphabet.
    tctx = CTX2.dual()
    assert leq(ev(CTX2, 1, 0), ev(tctx, 2, 1))
    with pytest.raises(AmbientMismatchError):
        add(ev(CTX2, 1, 0), ev(tctx, 0, 1))


def test_negative_coordinates_rejected():
    with pytest.raises(DomainError):
        ExponentVector(CTX2, (1, -1))


def test_empty_or_repeated_alphabets_and_bad_indices_rejected():
    with pytest.raises(DomainError, match="at least one variable"):
        Context(())
    with pytest.raises(DomainError, match="distinct"):
        Context(("x", "y", "x"))
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        Context.of_dim(0)
    assert unit_vector(CTX2, 1) == ev(CTX2, 0, 1)
    for i in (-1, 2):
        with pytest.raises(DomainError, match="out of range"):
            unit_vector(CTX2, i)


def test_add_sub_fixtures():
    assert add(ev(CTX2, 1, 2), ev(CTX2, 2, 1)) == ev(CTX2, 3, 3)
    assert sub_checked(ev(CTX2, 3, 3), ev(CTX2, 1, 2)) == ev(CTX2, 2, 1)
    assert sub_checked(ev(CTX2, 1, 2), ev(CTX2, 2, 1)) is None


def test_partial_order_laws():
    rng = random.Random(101)
    pts = [ev(CTX2, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(40)]
    for a in pts:
        assert leq(a, a)
    for a in pts:
        for b in pts:
            if leq(a, b) and leq(b, a):
                assert a == b
    for _ in range(300):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_lex_total_order_and_translation_invariance():
    rng = random.Random(102)
    ctx = Context.of_dim(3)
    for _ in range(300):
        a = ev(ctx, *(rng.randint(0, 5) for _ in range(3)))
        b = ev(ctx, *(rng.randint(0, 5) for _ in range(3)))
        c = ev(ctx, *(rng.randint(0, 5) for _ in range(3)))
        cmp = lex_cmp(a, b)
        assert cmp in (-1, 0, 1)
        assert cmp == -lex_cmp(b, a)
        assert (cmp == 0) == (a == b)
        assert lex_cmp(add(a, c), add(b, c)) == cmp


def test_monoid_laws():
    rng = random.Random(103)
    for _ in range(100):
        a = ev(CTX2, rng.randint(0, 6), rng.randint(0, 6))
        b = ev(CTX2, rng.randint(0, 6), rng.randint(0, 6))
        c = ev(CTX2, rng.randint(0, 6), rng.randint(0, 6))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, zero_vector(CTX2)) == a
        assert sub_checked(add(a, b), b) == a


def test_monomial_text():
    assert str(ev(CTX2, 3, 0)) == "x1^3"
    assert str(ev(CTX2, 2, 1)) == "x1^2*x2"
    assert str(zero_vector(CTX2)) == "1"
    named = Context(("x", "y"))
    assert str(ev(named, 1, 2)) == "x*y^2"


def test_monomials_of_degree_descending():
    ms = monomials_of_degree(CTX2, 3)
    assert [m.coords for m in ms] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    keys = [lex_key(m) for m in ms]
    assert keys == sorted(keys, reverse=True)
    assert unit_vector(CTX2, 0).coords == (1, 0)


def test_monomials_of_degree_match_sorted_listing():
    for d in range(1, 6):
        ctx = Context.of_dim(d)
        for n in range(9):
            listing = sorted(
                (ExponentVector(ctx, c)
                 for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n),
                key=lex_key, reverse=True,
            )
            assert monomials_of_degree(ctx, n) == tuple(listing)
        assert monomials_of_degree(ctx, -1) == ()


def test_monomial_caches_are_bounded():
    from apolar import exponents, graded_engine

    line = Context.of_dim(1)
    caches = (exponents._compositions, exponents.monomials_of_degree,
              exponents.box_monomials_of_degree, graded_engine._shift_table)
    try:
        for n in range(exponents.CACHE_SIZE + 10):
            assert monomials_of_degree(line, n)[0].coords == (n,)
            assert exponents.box_monomials_of_degree(line, n, n)[0].coords == (n,)
            assert graded_engine._shift_table(line, n + 1, 0) == (0,)
        for cache in caches:
            assert cache.cache_info().currsize <= exponents.CACHE_SIZE
    finally:
        for cache in caches:
            cache.cache_clear()
