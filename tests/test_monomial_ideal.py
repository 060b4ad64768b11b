import itertools
import os
import random
import subprocess
import sys
from functools import reduce
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import apolar
from apolar import (
    AmbientMismatchError,
    Antichain,
    Context,
    DomainError,
    ExponentVector,
    MonomialIdeal,
    closure,
    colon_var,
    colon_var_saturate,
    decompose,
    docle,
    intersect,
    inverse_ideal,
    is_subideal,
    parse_ideal,
    saturate,
    sq_leq,
)
from apolar.exponents import lex_key
from apolar.monomial_ideal import _fold_splits, _intersection
from apolar.oracle import brute_docle

from support import (
    maxima,
    rand_antichain,
    rand_proper_ideal,
    rand_zero_dim_ideal,
    reference_fold,
)

CTX = Context.of_dim(2)


def ev(ctx, *coords):
    return ExponentVector(ctx, coords)


def ideal(ctx, *gens):
    return MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, g) for g in gens])


def test_from_generators_minimizes():
    assert ideal(CTX, (3, 0), (0, 2), (3, 1)) == ideal(CTX, (3, 0), (0, 2))
    assert ideal(CTX, (0, 0)).is_unit
    assert MonomialIdeal.zero(CTX).is_zero
    assert ideal(CTX, (2, 0), (0, 0)).is_unit


def test_canonical_equality_and_text():
    a = ideal(CTX, (0, 2), (3, 0))
    b = ideal(CTX, (3, 0), (0, 2), (4, 4))
    assert a == b
    assert str(a) == "(x1^3, x2^2)"
    assert str(MonomialIdeal.zero(CTX)) == "(0)"
    assert str(MonomialIdeal.unit(CTX)) == "(1)"


def test_contains():
    j = ideal(CTX, (3, 0), (0, 2))
    assert j.contains(ev(CTX, 3, 1))
    assert not j.contains(ev(CTX, 2, 1))
    assert not MonomialIdeal.zero(CTX).contains(ev(CTX, 5, 5))
    with pytest.raises(AmbientMismatchError):
        j.contains(ev(Context.of_dim(3), 1, 1, 1))


def test_zero_dimensionality():
    assert ideal(CTX, (3, 0), (0, 2)).is_zero_dimensional
    assert not ideal(CTX, (2, 0), (1, 1)).is_zero_dimensional
    assert not ideal(CTX, (1, 1)).is_zero_dimensional


def test_docle_fixtures():
    assert docle(ideal(CTX, (3, 0), (0, 2))) == Antichain(CTX, (ev(CTX, 2, 1),))
    assert docle(ideal(CTX, (2, 0), (1, 1))) == Antichain(CTX, (ev(CTX, 1, 0),))
    assert docle(ideal(CTX, (1, 1))) == Antichain(CTX, ())


def test_docle_rejects_unit_and_zero():
    with pytest.raises(DomainError):
        docle(MonomialIdeal.unit(CTX))
    with pytest.raises(DomainError):
        docle(MonomialIdeal.zero(CTX))


def test_docle_matches_oracle_on_random_ideals():
    rng = random.Random(21)
    for _ in range(60):
        d = rng.choice([2, 3])
        i = rand_proper_ideal(rng, d)
        box = ExponentVector(
            i.ctx, tuple(max(g.coords[k] for g in i.gens) + 1 for k in range(d))
        )
        assert docle(i) == brute_docle(i, box)


@st.composite
def monomial_ideals(draw, zero_dimensional=False):
    """A proper nonzero ideal, d = 1..4, small enough for ``brute_docle``."""
    d = draw(st.integers(1, 4))
    ctx = Context.of_dim(d)
    coord = st.integers(0, 5 if d <= 2 else 3)
    gens = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=2 * d + 2))
    if zero_dimensional:
        gens += [tuple(draw(coord) + 1 if j == i else 0 for j in range(d)) for i in range(d)]
    i = MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, g) for g in gens])
    assume(not i.is_unit)
    return i


@st.composite
def antichains(draw):
    d = draw(st.integers(1, 4))
    ctx = Context.of_dim(d)
    points = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), min_size=1, max_size=6))
    return maxima(ctx, [ExponentVector(ctx, p) for p in points])


@given(monomial_ideals())
def test_docle_matches_oracle_property(i):
    d = i.ctx.dim
    box = ExponentVector(
        i.ctx, tuple(max(g.coords[k] for g in i.gens) + 1 for k in range(d))
    )
    assert docle(i) == brute_docle(i, box)


@given(antichains())
def test_docle_of_inverse_ideal_property(m):
    assert docle(inverse_ideal(m)) == m


@given(monomial_ideals(zero_dimensional=True))
def test_inverse_ideal_of_docle_is_closure_property(i):
    assert inverse_ideal(docle(i)) == closure(i)


@given(monomial_ideals())
def test_closure_laws_property(i):
    # Extensive, idempotent and above i in the sq order, which is reflexive.
    c = closure(i)
    assert is_subideal(i, c)
    assert sq_leq(i, c)
    assert closure(c) == c
    assert sq_leq(i, i)


_READS = {
    "docle": docle,
    "closure": closure,
    "decompose": decompose,
    "sq_leq": lambda i: sq_leq(i, closure(i)),
}


def _reads(i, names) -> dict:
    out = {}
    for name in names:
        try:
            out[name] = _READS[name](i)
        except DomainError as exc:  # decompose of an ideal with empty docle
            out[name] = str(exc)
    return out


@given(monomial_ideals())
def test_results_do_not_depend_on_call_order_property(i):
    twin = MonomialIdeal(i.ctx, i.gens)
    assert twin == i and twin is not i
    backward = _reads(twin, reversed(_READS))
    fresh = _reads(i, _READS)
    assert fresh == backward == _reads(twin, _READS)
    box = ExponentVector(i.ctx, tuple(max(c) + 1 for c in zip(*(g.coords for g in i.gens))))
    assert fresh["docle"] == backward["docle"] == brute_docle(i, box)


def test_docle_flat_in_exponent_size():
    # A membership table over the generator box would have 10^12 cells here.
    n, a = 10**6, 10**3
    i = ideal(CTX, (n, 0), (a, a + 7), (0, n))
    m = docle(i)
    assert m == Antichain(CTX, (ev(CTX, n - 1, a + 6), ev(CTX, a - 1, n - 1)))
    assert inverse_ideal(m) == closure(i)


def test_docle_size_bound():
    rng = random.Random(22)
    for _ in range(60):
        d = rng.choice([2, 3])
        i = rand_proper_ideal(rng, d)
        assert len(docle(i)) <= comb(len(i.gens), d)


def test_docle_downset_disjoint_from_ideal():
    rng = random.Random(23)
    for _ in range(40):
        i = rand_proper_ideal(rng, 2)
        for m in docle(i):
            for a in range(m.coords[0] + 1):
                for b in range(m.coords[1] + 1):
                    assert not i.contains(ev(CTX, a, b))


def test_partition_for_zero_dimensional():
    # Every monomial under the generator box is in exactly one of U(I), D(docle).
    rng = random.Random(24)
    for _ in range(30):
        i = rand_zero_dim_ideal(rng, 2, max_coord=6)
        doc = docle(i).elems
        top = [max(g.coords[k] for g in i.gens) + 1 for k in range(2)]
        for a in range(top[0] + 1):
            for b in range(top[1] + 1):
                m = ev(CTX, a, b)
                in_ideal = i.contains(m)
                in_downset = any(
                    a <= s.coords[0] and b <= s.coords[1] for s in doc
                )
                assert in_ideal != in_downset


def test_inverse_ideal_fixtures():
    assert inverse_ideal(Antichain(CTX, (ev(CTX, 2, 1),))) == ideal(CTX, (3, 0), (0, 2))
    assert inverse_ideal(Antichain(CTX, (ev(CTX, 1, 0),))) == ideal(CTX, (2, 0), (0, 1))
    k = 4
    box = Antichain(CTX, (ev(CTX, k - 1, k - 1),))
    assert inverse_ideal(box) == ideal(CTX, (k, 0), (0, k))
    with pytest.raises(DomainError):
        inverse_ideal(Antichain(CTX, ()))


def test_intersect_fixtures():
    emmy = ideal(CTX, (2, 0), (1, 1))
    assert intersect(ideal(CTX, (1, 0)), ideal(CTX, (2, 0), (0, 1))) == emmy
    assert intersect(emmy, emmy) == emmy
    assert intersect(emmy, MonomialIdeal.unit(CTX)) == emmy
    assert intersect(emmy, MonomialIdeal.zero(CTX)).is_zero


@st.composite
def ideal_pairs(draw):
    """Two ideals in one context, zero or unit at times; b often shares
    generators with a, so one may lie inside the other."""
    d = draw(st.integers(1, 4))
    ctx = Context.of_dim(d)
    point = st.tuples(*[st.integers(0, 5 if d <= 2 else 3)] * d)
    a = draw(st.lists(point, max_size=2 * d + 2))
    b = draw(st.lists(st.sampled_from(a), max_size=len(a))) if a else []
    b += draw(st.lists(point, max_size=2 * d + 2))
    if draw(st.booleans()):
        a, b = b, a
    return tuple(MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, g) for g in gens])
                 for gens in (a, b))


def lcm_intersect(a, b):
    """The intersection by its definition: the minimal lcms of all generator pairs."""
    lcms = {tuple(map(max, g.coords, h.coords)) for g in a.gens for h in b.gens}
    return MonomialIdeal.from_generators(a.ctx, [ExponentVector(a.ctx, c) for c in lcms])


@given(ideal_pairs())
def test_intersect_matches_the_lcm_pairs_property(pair):
    a, b = pair
    both = intersect(a, b)
    assert both.gens == lcm_intersect(a, b).gens
    assert intersect(b, a).gens == both.gens
    top = [max((g.coords[i] for g in a.gens + b.gens), default=0) + 1 for i in range(a.ctx.dim)]
    for c in itertools.product(*(range(t + 1) for t in top)):
        m = ExponentVector(a.ctx, c)
        assert both.contains(m) == (a.contains(m) and b.contains(m))


@given(ideal_pairs())
def test_is_subideal_matches_membership_and_intersection_property(pair):
    for inner, outer in (pair, pair[::-1]):
        inside = is_subideal(inner, outer)
        assert inside == all(outer.contains(g) for g in inner.gens)
        assert inside == (intersect(inner, outer) == inner)


def test_intersect_keeps_generators_lying_in_the_other_ideal():
    emmy = ideal(CTX, (2, 0), (1, 1))
    outer = ideal(CTX, (1, 0), (0, 3))
    assert intersect(emmy, outer) == emmy
    assert intersect(outer, emmy) == emmy
    # The result is (4, 0), (1, 1), (0, 4): (1, 1) is in both ideals, (4, 0)
    # and (0, 4) each lie in the other ideal, and every other common
    # multiple, such as (3, 2) = lcm((3, 0), (0, 2)), is a multiple of (1, 1).
    a = ideal(CTX, (3, 0), (1, 1), (0, 4))
    b = ideal(CTX, (4, 0), (1, 1), (0, 2))
    for x, y in ((a, b), (b, a)):
        assert intersect(x, y).gens == (ev(CTX, 4, 0), ev(CTX, 1, 1), ev(CTX, 0, 4))
    zero, unit = MonomialIdeal.zero(CTX), MonomialIdeal.unit(CTX)
    for x in (emmy, outer, a, zero, unit):
        assert intersect(x, zero).is_zero and intersect(zero, x).is_zero
        assert intersect(x, unit) == x and intersect(unit, x) == x
    assert intersect(unit, unit).is_unit


def test_intersect_orientation_fixtures():
    # intersect folds the components of the ideal with fewer generators into
    # the other's generators; each case is checked in both orders.
    def check(a, b, expected):
        want = ideal(a.ctx, *expected)
        assert len(want.gens) == len(expected)
        for x, y in ((a, b), (b, a)):
            assert intersect(x, y) == want == lcm_intersect(x, y)

    # Two generators but four components, (1, inf, 1, inf) and its three
    # twins, against three generators and one component, (2, 2, 2, inf).
    ctx4 = Context.of_dim(4)
    a = ideal(ctx4, (1, 1, 0, 0), (0, 0, 1, 1))
    b = ideal(ctx4, (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0))
    assert (len(a.gens), len(a._components)) == (2, 4)
    assert (len(b.gens), len(b._components)) == (3, 1)
    check(a, b, [(2, 1, 0, 0), (1, 2, 0, 0), (1, 1, 2, 0),
                 (2, 0, 1, 1), (0, 2, 1, 1), (0, 0, 2, 1)])
    # x3 is absent from both sides, so every component has a_3 = inf.
    ctx3 = Context.of_dim(3)
    a = ideal(ctx3, (3, 0, 0), (1, 1, 0), (0, 2, 0))
    b = ideal(ctx3, (2, 0, 0), (0, 3, 0))
    assert all(c[2] == inf for c in a._components + b._components)
    check(a, b, [(3, 0, 0), (2, 1, 0), (0, 3, 0)])
    # Equal generator counts.
    check(ideal(CTX, (2, 0), (0, 1)), ideal(CTX, (1, 0), (0, 2)), [(2, 0), (1, 1), (0, 2)])
    check(ideal(CTX, (3, 1), (1, 2)), ideal(CTX, (2, 2), (0, 3)), [(2, 2), (1, 3)])


@st.composite
def ideals_and_codes(draw):
    """An ideal, zero or unit at times, and codes of irreducible ideals m^a
    in its context, with some coordinates infinite."""
    a, _ = draw(ideal_pairs())
    coord = st.one_of(st.integers(1, 4), st.just(inf))
    return a, draw(st.lists(st.tuples(*[coord] * a.ctx.dim), max_size=a.ctx.dim + 3))


@given(ideals_and_codes())
def test_intersection_from_an_ideal_matches_the_lcm_pairs_property(case):
    start, codes = case
    from_unit = _intersection(MonomialIdeal.unit(start.ctx), codes)
    assert _intersection(start, codes).gens == lcm_intersect(start, from_unit).gens


def fold_in_order(codes, pivots):
    """The split fold with its pivots taken in the given order, one call each."""
    for g in pivots:
        codes = _fold_splits(codes, [g])
    return codes


@given(monomial_ideals(), st.data())
def test_fold_does_not_depend_on_pivot_order_property(i, data):
    d = i.ctx.dim
    pivots = [g.coords for g in i.gens]
    plain = set(_fold_splits([(inf,) * d], pivots))
    assert plain == set(i._components)
    assert set(fold_in_order([(inf,) * d], data.draw(st.permutations(pivots)))) == plain
    # The negated fold of _intersection, over the components, gives back I.
    negated = [tuple(-x for x in a) for a in i._components]
    folded = set(_fold_splits([(0,) * d], negated))
    assert folded == {tuple(-x for x in g.coords) for g in i.gens}
    assert set(fold_in_order([(0,) * d], data.draw(st.permutations(negated)))) == folded


@st.composite
def fold_cases(draw):
    """A start code and pivots, d = 1..5, some repeated: a plain fold from
    (inf, ..., inf) over generator coordinates, or a negated one from
    (0, ..., 0) over negated codes, some coordinates -inf."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        start, coord = (0,) * d, st.one_of(st.integers(-4, -1), st.just(-inf))
    else:
        start, coord = (inf,) * d, st.integers(0, 4)
    pivots = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=2 * d + 3))
    pivots += draw(st.lists(st.sampled_from(pivots), max_size=3))
    return [start], pivots


@given(fold_cases(), st.randoms(use_true_random=False))
def test_fold_matches_the_reference_fold_property(case, rnd):
    # All pivots in one call, then one call per pivot in a shuffled order,
    # each step against the reference fold's, as sets with no repeats.
    start, pivots = case
    folded = _fold_splits(start, pivots)
    assert len(set(folded)) == len(folded)
    assert set(folded) == set(reference_fold(start, pivots))
    rnd.shuffle(pivots)
    new = ref = start
    for g in pivots:
        new, ref = _fold_splits(new, [g]), reference_fold(ref, [g])
        assert len(set(new)) == len(new)
        assert set(new) == set(ref)


def test_fold_sweep_fixtures():
    # Sorted pivots never lower g_0, so the fold retires a code once a_0 < g_0;
    # a kept code with c_0 = g_0 must stay, as a split can lie below it.  Each
    # fold equals the reference fold as a set, with no repeats.
    def check(codes, pivots, expected):
        folded = _fold_splits(codes, pivots)
        assert len(set(folded)) == len(folded)
        assert set(folded) == set(reference_fold(codes, pivots)) == expected

    # (2, 1) cuts (5, 3); its split (2, 3) lies below (2, 4) alone.  (1, 9)
    # is retired and comes back at the end.
    check([(2, 4), (5, 3), (1, 9)], [(2, 1)], {(1, 9), (2, 4), (5, 1)})
    # Pivots sharing g_0 in one call: (2, inf, inf), split off by the first
    # of them, lies above the later splits (2, inf, 4) and (2, inf, 3), and
    # (1, inf, inf) above (1, inf, 2) and (1, inf, 3).
    inf3 = (inf,) * 3
    check([inf3], [(2, 5, 1), (2, 1, 4), (2, 3, 3), (3, 1, 1)],
          {(2, inf, inf), (3, 3, 4), (3, 5, 3), (inf, 1, inf), (inf, inf, 1)})
    check([inf3], [(1, 2, 2), (1, 3, 1), (1, 1, 3), (2, 2, 2), (2, 0, 3)],
          {(1, inf, inf), (2, 1, inf), (inf, 2, 3), (inf, 3, 2), (inf, inf, 1)})
    # A negated fold, where a -inf coordinate splits nothing: (-3, -1, -inf)
    # splits (0, 0, -3) to (-3, 0, -3), which lies below (-3, 0, -1) alone.
    check([(0, 0, 0)], [(-inf, -2, -1), (-3, -2, -3), (-3, -1, -inf)],
          {(0, -2, 0), (-3, 0, -1), (0, -1, -3)})


def test_docle_is_the_checked_antichain_of_its_elements():
    # _docle builds its antichain with no checks; the checking constructor
    # accepts the same elements and gives an equal antichain, and still
    # refuses a comparable pair and an element from another context.
    rng = random.Random(31)
    for n in range(300):
        d = n % 5 + 1
        i = rand_zero_dim_ideal(rng, d, 6) if n % 2 else rand_proper_ideal(rng, d)
        got = i._docle
        assert got == Antichain(i.ctx, got.elems)
        assert list(got.elems) == sorted(got.elems, key=lex_key)
        if got.elems:
            a = rng.choice(got.elems)
            above = ExponentVector(i.ctx, tuple(c + (j == n % d) for j, c in enumerate(a.coords)))
            with pytest.raises(DomainError, match="comparable"):
                Antichain(i.ctx, got.elems + (above,))
            foreign = ExponentVector(i.ctx.dual("t"), a.coords)
            with pytest.raises(AmbientMismatchError):
                Antichain(i.ctx, got.elems + (foreign,))


def test_colon_fixtures():
    emmy = ideal(CTX, (2, 0), (1, 1))
    assert colon_var(emmy, 0) == ideal(CTX, (1, 0), (0, 1))
    assert colon_var_saturate(emmy, 0).is_unit
    assert colon_var_saturate(ideal(CTX, (0, 1)), 0) == ideal(CTX, (0, 1))
    with pytest.raises(DomainError):
        colon_var(emmy, 2)


def test_per_variable_maps_refuse_out_of_range_indices():
    emmy = ideal(CTX, (2, 0), (1, 1))
    for call in (colon_var, colon_var_saturate):
        for var in (2, -1):
            with pytest.raises(DomainError, match="out of range"):
                call(emmy, var)


def test_repeated_colon_var_reaches_the_saturation():
    rng = random.Random(27)
    for _ in range(30):
        i = rand_proper_ideal(rng, rng.randint(2, 4))
        for v in range(i.ctx.dim):
            current, step = i, colon_var(i, v)
            while step != current:
                current, step = step, colon_var(step, v)
            assert current == colon_var_saturate(i, v)


def test_colon_var_matches_brute_membership():
    # (I : x) on a small grid, straight from the definition.
    rng = random.Random(25)
    for _ in range(25):
        i = rand_proper_ideal(rng, 2, max_coord=4)
        quotient = colon_var(i, 0)
        for a in range(6):
            for b in range(6):
                m = ev(CTX, a, b)
                assert quotient.contains(m) == i.contains(ev(CTX, a + 1, b))


def test_saturate_fixtures():
    assert saturate(ideal(CTX, (2, 0), (1, 1))) == ideal(CTX, (1, 0))
    assert saturate(ideal(CTX, (3, 0), (0, 2))).is_unit
    assert saturate(ideal(CTX, (1, 1))) == ideal(CTX, (1, 1))
    with pytest.raises(DomainError):
        saturate(MonomialIdeal.unit(CTX))
    with pytest.raises(DomainError):
        saturate(MonomialIdeal.zero(CTX))


def test_saturate_reads_the_components_only(monkeypatch):
    zero_dim = ideal(CTX, (3, 0), (0, 2))
    emmy = ideal(CTX, (2, 0), (1, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("saturate rebuilt an ideal")

    for name in ("intersect", "colon_var_saturate"):
        monkeypatch.setattr(f"apolar.monomial_ideal.{name}", refuse)
    monkeypatch.setattr(MonomialIdeal, "from_generators", refuse)
    assert saturate(zero_dim).is_unit
    assert saturate(emmy).gens == (ev(CTX, 1, 0),)
    # The producer stores nothing on its result: the components are its own.
    assert "_components" not in vars(saturate(emmy))
    fresh = inverse_ideal(Antichain(CTX, (ev(CTX, 2, 1),)))
    assert "_components" not in vars(fresh)
    assert fresh.gens == (ev(CTX, 3, 0), ev(CTX, 0, 2))


def test_saturate_two_absent_variables_in_one_component():
    # I = (x1) cap (x1^2, x2^2, x3^2); the component (x1) misses x2 and x3.
    ctx = Context.of_dim(3)
    i = ideal(ctx, (2, 0, 0), (1, 2, 0), (1, 0, 2))
    assert set(i._components) == {(1, inf, inf), (2, 2, 2)}
    assert saturate(i) == ideal(ctx, (1, 0, 0))
    assert docle(i) == Antichain(ctx, (ev(ctx, 1, 1, 1),))
    assert decompose(i) == (ideal(ctx, (1, 0, 0)), ideal(ctx, (2, 0, 0), (0, 2, 0), (0, 0, 2)))


@given(monomial_ideals())
def test_saturate_and_decompose_split_the_components_property(i):
    d = i.ctx.dim
    reference = reduce(intersect, (colon_var_saturate(i, v) for v in range(d)))
    assert saturate(i) == reference
    if not docle(i).elems:
        return
    j, h = decompose(i)
    assert all(inf in a for a in j._components)
    assert all(inf not in a for a in h._components)
    assert set(j._components) | set(h._components) == set(i._components)


def test_saturated_ideals_have_empty_docle():
    rng = random.Random(26)
    for _ in range(40):
        i = rand_proper_ideal(rng, rng.choice([2, 3]))
        s = saturate(i)
        if s.is_unit:
            continue
        assert not s._docle.elems
        assert saturate(s) == s


def test_decompose_emmy():
    j, h = decompose(ideal(CTX, (2, 0), (1, 1)))
    assert j == ideal(CTX, (1, 0))
    assert h == ideal(CTX, (2, 0), (0, 1))
    assert intersect(j, h) == ideal(CTX, (2, 0), (1, 1))


def test_decompose_zero_dimensional_input():
    i = ideal(CTX, (3, 0), (0, 2))
    j, h = decompose(i)
    assert j.is_unit
    assert h == i


def test_decompose_derived_example():
    i = ideal(CTX, (3, 1), (1, 3), (2, 2))
    j, h = decompose(i)
    assert intersect(j, h) == i
    assert h.is_zero_dimensional
    assert h._docle == docle(i)
    assert not j._docle.elems
    # brute containment check on the side-5 coordinate grid
    back = intersect(j, h)
    for a in range(6):
        for b in range(6):
            m = ev(CTX, a, b)
            assert back.contains(m) == i.contains(m)


def test_decompose_requires_nonempty_docle():
    with pytest.raises(DomainError):
        decompose(ideal(CTX, (1, 1)))


def test_decompose_recovers_constructed_pairs():
    # J = (I : m^infinity) is the unique saturated factor.
    rng = random.Random(27)
    hits = 0
    while hits < 25:
        d = rng.choice([2, 3])
        j = saturate(rand_proper_ideal(rng, d))
        if j.is_unit:
            continue
        h = rand_zero_dim_ideal(rng, d, max_coord=5)
        if not all(j.contains(m) for m in docle(h)):
            continue
        hits += 1
        i = intersect(j, h)
        assert decompose(i) == (j, h)


_BROKEN_SATURATE = """
import sys
import apolar.monomial_ideal as mi
from apolar import Context, ExponentVector, MonomialIdeal
assert sys.flags.optimize
ctx = Context.of_dim(2)
ideal = MonomialIdeal.from_generators(
    ctx, [ExponentVector(ctx, (2, 0)), ExponentVector(ctx, (1, 1))]
)
mi.saturate = lambda i: i  # J = I keeps docle(J) nonempty
try:
    mi.decompose(ideal)
except RuntimeError as exc:
    print(exc)
"""


def test_decompose_postconditions_survive_optimize():
    src = str(Path(apolar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SATURATE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert "docle(J) is not empty" in proc.stdout


def test_decompose_checks_docle_of_h(monkeypatch):
    # J cap H = I and H is zero-dimensional, but docle(H) = {x1, x2} != {x1}.
    i = ideal(CTX, (2, 0), (1, 1))
    wrong = ideal(CTX, (2, 0), (1, 1), (0, 2))
    monkeypatch.setattr("apolar.monomial_ideal.inverse_ideal", lambda m: wrong)
    with pytest.raises(RuntimeError, match=r"docle\(H\) != docle\(I\)"):
        decompose(i)


def test_docle_and_inverse_ideal_fold_once_per_object():
    i = ideal(CTX, (3, 1), (1, 3), (2, 2))
    twin = MonomialIdeal(CTX, i.gens)
    m = docle(i)
    assert docle(i) is m and i._docle is m
    h = inverse_ideal(m)
    assert inverse_ideal(m) is h and closure(i) is h
    # A stored result leaves equality, hashing and text alone.
    assert (twin, hash(twin), repr(twin)) == (i, hash(i), repr(i))
    # The producer does not store its result's docle: checking it folds afresh.
    fresh = inverse_ideal(Antichain(CTX, m.elems))
    assert fresh == h and fresh is not h
    assert "_docle" not in vars(fresh)
    assert docle(fresh) == m


def test_closure_fixtures():
    whole = closure(ideal(CTX, (1, 1)))
    assert whole.is_unit and whole.whole_poset
    zd = ideal(CTX, (3, 0), (0, 2))
    assert closure(zd) == zd and not closure(zd).whole_poset
    assert closure(ideal(CTX, (2, 0), (1, 1))) == ideal(CTX, (2, 0), (0, 1))


def test_closure_counterexample_not_subset_monotone():
    u = ideal(CTX, (1, 1))
    v = ideal(CTX, (1, 0), (0, 1))
    assert is_subideal(u, v)
    assert closure(u).whole_poset
    assert closure(v) == v
    assert not is_subideal(closure(u), closure(v))
    assert docle(v) == Antichain(CTX, (ev(CTX, 0, 0),))
    assert docle(u) == Antichain(CTX, ())
    assert not sq_leq(u, v)


def test_sq_leq_fixtures():
    emmy = ideal(CTX, (2, 0), (1, 1))
    assert sq_leq(emmy, closure(emmy))
    assert sq_leq(emmy, emmy)


def test_closure_laws_random():
    rng = random.Random(28)
    for _ in range(120):
        i = rand_proper_ideal(rng, rng.choice([2, 3]))
        c = closure(i)
        assert is_subideal(i, c)
        assert sq_leq(i, c)
        assert closure(c) == c


def test_closure_sq_monotone_on_constructed_pairs():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        d = rng.choice([2, 3])
        i = rand_proper_ideal(rng, d)
        j = closure(i)
        if sq_leq(i, j):
            assert sq_leq(closure(i), closure(j))
            checked += 1


def test_round_trips_random():
    rng = random.Random(30)
    for _ in range(80):
        d = rng.choice([2, 3, 4])
        m = rand_antichain(rng, d)
        assert docle(inverse_ideal(m)) == m
    for _ in range(80):
        d = rng.choice([2, 3, 4])
        i = rand_zero_dim_ideal(rng, d)
        assert inverse_ideal(docle(i)) == i
        assert closure(i) == i


def test_rigidity_random():
    rng = random.Random(31)
    for _ in range(80):
        d = rng.choice([2, 3])
        i = rand_zero_dim_ideal(rng, d, max_coord=6)
        doc = list(docle(i))
        extras = rng.sample(doc, rng.randint(0, len(doc)))
        j = MonomialIdeal.from_generators(i.ctx, list(i.gens) + extras)
        assert is_subideal(i, j)
        if j.is_unit:
            assert extras
            continue
        if set(docle(i).elems) <= set(docle(j).elems):
            assert i == j
        else:
            assert extras


def test_parse_ideal_roundtrip():
    i = parse_ideal("(x1^3, x2^2, x1^3*x2)", CTX)
    assert i == ideal(CTX, (3, 0), (0, 2))
    assert parse_ideal(str(i), CTX) == i


def test_ambient_mismatch():
    other = Context.of_dim(3)
    with pytest.raises(AmbientMismatchError):
        intersect(ideal(CTX, (1, 0)), MonomialIdeal.unit(other))
    with pytest.raises(AmbientMismatchError):
        sq_leq(ideal(CTX, (1, 0)), MonomialIdeal.unit(other))
    with pytest.raises(AmbientMismatchError):
        is_subideal(ideal(CTX, (1, 0)), MonomialIdeal.unit(other))
    with pytest.raises(AmbientMismatchError):
        ideal(CTX, (1, 0)).contains(ev(other, 1, 0, 0))
    with pytest.raises(AmbientMismatchError):
        Antichain(CTX, (ev(CTX, 1, 0), ev(other, 0, 1, 0)))
    with pytest.raises(AmbientMismatchError):
        MonomialIdeal.from_generators(CTX, [ev(CTX, 1, 0), ev(other, 0, 1, 0)])
