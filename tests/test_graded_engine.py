import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, prod
from operator import sub

import pytest

from apolar import (
    AmbientMismatchError,
    Antichain,
    Context,
    DomainError,
    ExponentVector,
    GorensteinSpec,
    HomogeneousIdealPresentation,
    MonomialIdeal,
    NotArtinianError,
    Polynomial,
    ann_partial,
    antipodal,
    colon_power_ideal,
    ideal_equals,
    inverse_ideal,
    monomial_iff_test,
    monomials_of_degree,
    parse_ideal,
    parse_polynomial,
    power_ideal,
    random_spec,
    reduce_mod_power_ideal,
    verify_gorenstein_ann,
)
from apolar.exponents import box_monomials_of_degree
from apolar.graded_engine import (
    MAX_SLICE_COLUMNS,
    GradedSlice,
    _assemble_minimal,
    _catalecticant,
    _shift_table,
)
from apolar.linalg import left_kernel, rank, reduce_vector, rref
from apolar.oracle import brute_ann, brute_quotient_dim
from apolar.polynomial import _numerators
from hypothesis import given, settings, strategies as st
from support import gorenstein_specs, reference_catalecticant

CTX = Context(("x", "y"))
TCTX = CTX.dual()

I1 = parse_ideal("(x^3, y^2 - x*y)", CTX)
P1 = parse_polynomial("x*y^2 + x^2*y + x^3", CTX)


def as_pres(text, ctx=CTX):
    ideal = parse_ideal(text, ctx)
    if isinstance(ideal, MonomialIdeal):
        return HomogeneousIdealPresentation.from_monomial_ideal(ideal)
    return ideal


def test_slice_fixtures():
    s2 = I1.slice(2)
    assert {str(m) for m in s2.standard_monomials} == {"x^2", "x*y"}
    s0 = I1.slice(0)
    assert [str(m) for m in s0.standard_monomials] == ["1"]
    assert I1.slice(4).standard_monomials == ()
    with pytest.raises(DomainError, match="slice degree must be >= 0"):
        I1.slice(-1)


def test_slice_invariants():
    for e in range(5):
        sl = I1.slice(e)
        assert set(sl.pivot_monomials) | set(sl.standard_monomials) == set(
            sl.monomial_basis
        )
        assert not set(sl.pivot_monomials) & set(sl.standard_monomials)
        assert len(sl.reduced_rows) + len(sl.standard_monomials) == len(
            sl.monomial_basis
        )


def test_hilbert_fixtures():
    assert I1.hilbert_function() == [1, 2, 2, 1]
    assert I1.dimension() == 6
    p3 = parse_polynomial("y^6 + x^3*y^3 + x^5*y", CTX)
    assert colon_power_ideal(10, p3).dimension() == 49
    m = as_pres("(x1, x2, x3)", Context.of_dim(3))
    assert m.hilbert_function() == [1]


def test_hilbert_not_artinian():
    with pytest.raises(NotArtinianError):
        as_pres("(x)").hilbert_function()
    empty = HomogeneousIdealPresentation(CTX, [])
    assert str(empty) == "(0)"
    with pytest.raises(NotArtinianError):
        empty.hilbert_function()


def test_hilbert_function_honours_cutoff_after_an_earlier_call():
    used = as_pres("(x^2, y^2)")
    assert used.hilbert_function() == [1, 2, 1]
    with pytest.raises(NotArtinianError):
        used.hilbert_function(1)
    with pytest.raises(NotArtinianError):
        as_pres("(x^2, y^2)").hilbert_function(1)
    assert used.hilbert_function(3) == [1, 2, 1]


def test_hilbert_function_refuses_a_negative_cutoff():
    with pytest.raises(DomainError, match="cutoff must be >= 0") as exc:
        as_pres("(x^2, y^2)").hilbert_function(-1)
    assert not isinstance(exc.value, NotArtinianError)


def test_reduce_monomial_rejects_other_degrees():
    sl = as_pres("(x^2, y^2)").slice(2)
    assert sl.reduce_monomial(ExponentVector(CTX, (1, 1))) == [1]
    with pytest.raises(DomainError):
        sl.reduce_monomial(ExponentVector(CTX, (1, 0)))


def _random_presentation(rng, d):
    """Up to three random forms of degree 1..3 with rational coefficients."""
    ctx, gens = Context.of_dim(d), []
    for _ in range(rng.randint(1, 3)):
        basis = monomials_of_degree(ctx, rng.randint(1, 3))
        terms = {ev: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                 for ev in rng.sample(basis, rng.randint(1, min(3, len(basis))))}
        gens.append(Polynomial(ctx, terms))
    return HomogeneousIdealPresentation(ctx, gens)


def test_coset_is_an_integer_class_over_the_slice_denominator():
    # Slices built from generators (rref) and by the colon build (SpanBuilder).
    rng = random.Random(66)
    ideals = [_random_presentation(rng, rng.choice([1, 2, 3])) for _ in range(15)]
    ideals += [random_spec(rng, dims=(1, 2, 3)).colon_ideal() for _ in range(15)]
    read = 0
    for ideal in ideals:
        for e in range(5):
            sl = ideal.slice(e)
            den, basis = sl.denominator, sl.monomial_basis
            std = [basis.index(ev) for ev in sl.standard_monomials]
            pivots = sorted(basis.index(ev) for ev in sl.pivot_monomials)
            for c in range(len(basis)):
                coset = sl.coset(c)
                assert all(type(v) is int for v in coset.values())
                assert set(coset) <= set(range(len(std)))
                if c in std:
                    assert coset == {std.index(c): den}
                else:
                    row = sl.reduced_rows[pivots.index(c)]
                    assert [Fraction(coset.get(i, 0), den) for i in range(len(std))] == [
                        -row[s] for s in std]
                    read += 1
                vec = Counter({c: den})
                vec.subtract({std[i]: v for i, v in coset.items()})
                assert reduce_vector({j: v for j, v in vec.items() if v}, sl._rows) == {}
                assert sl.reduce_monomial(basis[c]) == [
                    Fraction(coset.get(i, 0), den) for i in range(len(std))]
    assert read > 100


def test_colon_power_fixtures():
    assert colon_power_ideal(4, P1).equals(I1)
    assert colon_power_ideal(3, parse_polynomial("y", CTX)).equals(
        as_pres("(x^3, y^2)")
    )
    with pytest.raises(DomainError):
        colon_power_ideal(2, parse_polynomial("x^2*y^2", CTX))
    with pytest.raises(DomainError):
        colon_power_ideal(0, parse_polynomial("y", CTX))
    with pytest.raises(DomainError, match="p must be nonzero"):
        colon_power_ideal(3, Polynomial.zero(CTX))


def test_reduce_mod_power_ideal_keeps_a_reduced_p():
    p = parse_polynomial("x^2*y + 3*x*y^2", CTX)
    assert reduce_mod_power_ideal(p, 3) is p
    dropped = reduce_mod_power_ideal(p, 2)
    assert dropped is not p and dropped == Polynomial.zero(CTX)
    q = parse_polynomial("x^3 - 1/2*x*y^2", CTX)
    assert reduce_mod_power_ideal(q, 3) == parse_polynomial("-1/2*x*y^2", CTX)
    assert q == parse_polynomial("x^3 - 1/2*x*y^2", CTX)


def test_colon_power_of_constant_is_power_ideal():
    pres = colon_power_ideal(3, Polynomial.constant(CTX, 5))
    assert pres.equals(
        HomogeneousIdealPresentation.from_monomial_ideal(power_ideal(CTX, 3))
    )


def test_socle_fixtures():
    classes = I1.socle()
    assert [(c.degree, str(c.polynomial())) for c in classes] == [(3, "x^2*y")]
    mono = as_pres("(x^3, y^2)")
    assert [(c.degree, str(c.polynomial())) for c in mono.socle()] == [(3, "x^2*y")]
    fat = as_pres("(x^2, x*y, y^2)")
    got = {(c.degree, str(c.polynomial())) for c in fat.socle()}
    assert got == {(1, "x"), (1, "y")}
    assert fat.socle_dimension() == 2
    assert I1.socle_dimension() == 1


def test_socle_with_a_fractional_class_is_pinned():
    # Captured from the rational-kernel engine; the other socle fixtures
    # have monomial classes only.
    ideal = parse_ideal("(x^3, y^3, 3*x^2*y - 2*x*y^2)", CTX)
    assert [f"degree {c.degree}: {c}" for c in ideal.socle()] == [
        "degree 2: x^2 - 2/3*x*y + 4/9*y^2",
        "degree 3: x^2*y",
    ]


def test_socle_reads_integer_cosets_only(monkeypatch):
    # The multiplication map reaches left_kernel as integer rows; no coset
    # is read as Fractions through reduce_monomial.
    def refuse(sl, ev):
        raise AssertionError("socle read a coset as Fractions")

    seen = []

    def integer_rows(rows, ncols):
        seen.extend(type(v) for row in rows for v in row.values())
        return left_kernel(rows, ncols)

    ideal = parse_ideal("(x^3, y^3, 3*x^2*y - 2*x*y^2)", CTX)
    ideal.hilbert_function()
    monkeypatch.setattr(GradedSlice, "reduce_monomial", refuse)
    monkeypatch.setattr("apolar.graded_engine.left_kernel", integer_rows)
    assert [str(c) for c in ideal.socle()] == ["x^2 - 2/3*x*y + 4/9*y^2", "x^2*y"]
    assert seen and set(seen) == {int}


def test_socle_reads_kernels_only_in_degrees_of_the_initial_docle(monkeypatch):
    # docle(x^3, y^2) = {x^2*y}: of the four degrees of R/I only degree 3
    # can hold a socle class, so only its kernel is computed.
    widths = []

    def counted(rows, ncols):
        widths.append(len(rows))
        return left_kernel(rows, ncols)

    monkeypatch.setattr("apolar.graded_engine.left_kernel", counted)
    pres = as_pres("(x^3, y^2)")
    assert [(c.degree, str(c)) for c in pres.socle()] == [(3, "x^2*y")]
    assert widths == [1]


def test_initial_ideal_memo_honours_the_cutoff():
    ctx = Context.of_dim(2)
    pres = as_pres("(x1^3, x2^2)", ctx)
    init = pres.initial_monomials()
    assert [str(c) for c in pres.socle()] == ["x1^2*x2"]
    for call in (pres.initial_monomials, pres.socle):
        with pytest.raises(NotArtinianError):
            call(1)
        with pytest.raises(DomainError, match="cutoff must be >= 0"):
            call(-1)
    assert pres.initial_monomials(4) == init
    unit = HomogeneousIdealPresentation(ctx, [Polynomial.constant(ctx, 1)])
    assert unit.socle() == [] and unit.socle_dimension() == 0


def test_initial_monomials_fixtures():
    init = I1.initial_monomials()
    assert {g.coords for g in init.gens} == {(0, 2), (3, 0)}
    mono = parse_ideal("(x^2, x*y^3)", CTX)
    pres = HomogeneousIdealPresentation.from_monomial_ideal(
        MonomialIdeal.from_generators(
            CTX, list(mono.gens) + [ExponentVector(CTX, (0, 5))]
        )
    )
    assert pres.initial_monomials() == MonomialIdeal.from_generators(
        CTX,
        [ExponentVector(CTX, (2, 0)), ExponentVector(CTX, (1, 3)),
         ExponentVector(CTX, (0, 5))],
    )


def test_example3_initial_ideal():
    p3 = parse_polynomial("y^6 + x^3*y^3 + x^5*y", CTX)
    ideal = colon_power_ideal(10, p3)
    init = ideal.initial_monomials()
    assert {g.coords for g in init.gens} == {(0, 7), (1, 6), (3, 5), (5, 4), (10, 0)}
    assert ideal.dimension() == 49
    # pure powers of both variables appear
    assert any(g.coords[1] == 0 for g in init.gens)
    assert any(g.coords[0] == 0 for g in init.gens)


def test_ann_partial_fixtures():
    q = parse_polynomial("t1^2*t2", TCTX)
    assert ann_partial(q, CTX).equals(as_pres("(x^3, y^2)"))
    p = parse_polynomial("3*t1^2*t2 + 3*t1*t2^2 + t2^3", TCTX)
    assert ann_partial(p, CTX).equals(I1)
    cubic = parse_polynomial("t1^3", TCTX)
    assert ann_partial(cubic, CTX).equals(as_pres("(x^4, y)"))
    with pytest.raises(DomainError):
        ann_partial(Polynomial.zero(TCTX), CTX)
    with pytest.raises(AmbientMismatchError, match="dimensions differ"):
        ann_partial(q, Context.of_dim(3))


def test_ann_partial_contains_high_powers_and_is_artinian():
    rng = random.Random(61)
    for _ in range(10):
        spec = random_spec(rng, dims=(2,), max_k=3)
        from apolar import antipodal

        q = antipodal(spec)
        ann = ann_partial(q, spec.ctx)
        top = q.homogeneous_degree()
        hilbert = ann.hilbert_function()
        assert len(hilbert) <= top + 1
        assert ann.slice(top + 1).standard_monomials == ()


def test_ideal_equals_fixtures():
    assert ideal_equals(colon_power_ideal(4, P1), I1)
    assert not ideal_equals(as_pres("(x^3, y^2)"), I1)
    assert ideal_equals(I1, I1)
    with pytest.raises(AmbientMismatchError, match="across contexts"):
        I1.equals(as_pres("(x1^2, x2^2)", Context.of_dim(2)))
    with pytest.raises(AmbientMismatchError, match="generator from a different context"):
        HomogeneousIdealPresentation(CTX, [Polynomial.variable(TCTX, 0)])


def test_minimal_generators_are_minimal():
    # Dropping any generator of a colon presentation changes the ideal.
    pres = colon_power_ideal(4, P1)
    for skip in range(len(pres.generators)):
        rest = [g for i, g in enumerate(pres.generators) if i != skip]
        assert not HomogeneousIdealPresentation(CTX, rest).equals(pres)


def test_oracle_equivalence_random():
    rng = random.Random(62)
    for _ in range(15):
        spec = random_spec(rng, dims=(2, 3), max_k=3)
        ideal = spec.colon_ideal()
        # dimension agrees with naive per-degree reduction
        cutoff = spec.top_degree + 2
        assert ideal.dimension() == brute_quotient_dim(
            list(ideal.generators), cutoff
        )
    for _ in range(10):
        d = rng.choice([2, 3])
        ctx = Context.of_dim(d)
        tctx = ctx.dual()
        deg = rng.randint(1, 3)
        terms = {}
        for ev in monomials_of_degree(tctx, deg):
            if rng.random() < 0.5:
                terms[ev] = Fraction(rng.randint(1, 3))
        if not terms:
            continue
        q = Polynomial(tctx, terms)
        ann = ann_partial(q, ctx)
        kernels = brute_ann(q, deg + 1, ctx)
        for e, vectors in kernels.items():
            expected = len(monomials_of_degree(ctx, e)) - ann.slice(e).hilbert_value
            assert len(vectors) == expected


def test_slice_counts_match_oracle_small_inputs():
    # Brute monomial-by-monomial reduction per degree, d <= 3, k <= 5.
    rng = random.Random(63)
    for _ in range(8):
        spec = random_spec(rng, dims=(2, 3), max_k=5, max_support=3)
        ideal = spec.colon_ideal()
        hilbert = ideal.hilbert_function()
        total = brute_quotient_dim(list(ideal.generators), len(hilbert) + 1)
        assert total == sum(hilbert)


LADDER_P = "x1^3*x2^2*x3 + x1*x2^4*x3 + x1^2*x2*x3^3 + x2^3*x3^3"


def _assert_slices_match_generators(ideal, top):
    rebuilt = HomogeneousIdealPresentation(ideal.ctx, ideal.generators)
    for e in range(top + 2):
        assert rebuilt.slice(e).reduced_rows == ideal.slice(e).reduced_rows, e


def test_slices_from_the_build_match_slices_from_generators():
    # colon_power_ideal and ann_partial keep the spans found while extracting
    # generators as their slices; they must equal the RREF of the Macaulay
    # matrices of those generators.
    rng = random.Random(64)
    specs = [random_spec(rng, dims=(2, 3), max_k=4) for _ in range(20)]
    ctx3 = Context.of_dim(3)
    specs += [GorensteinSpec(k, parse_polynomial(LADDER_P, ctx3)) for k in (5, 6)]
    for spec in specs:
        _assert_slices_match_generators(spec.colon_ideal(), spec.top_degree)
        ann = ann_partial(antipodal(spec), spec.ctx)
        _assert_slices_match_generators(ann, spec.top_degree)


def test_ladder_generators_are_pinned():
    ctx = Context.of_dim(3)
    ideal = colon_power_ideal(6, parse_polynomial(LADDER_P, ctx))
    assert [str(g) for g in ideal.generators] == [
        "x1^4 - x1^2*x2^2 + x2^4",
        "x3^5",
        "x1^3*x2*x3 - x1*x2^3*x3 - x1^2*x3^3 + x2^2*x3^3",
        "-x1^4*x2 + x1^2*x2^3",
        "x1^3*x2^2 - x1^2*x2*x3^2 + x1*x3^4",
    ]


def test_ann_partial_generators_are_pinned():
    # Strings captured before catalecticant rows were built from F's terms.
    ctx = Context.of_dim(3)
    spec = GorensteinSpec(6, parse_polynomial(LADDER_P, ctx))
    assert [str(g) for g in ann_partial(antipodal(spec), ctx).generators] == [
        "x1^4 - x1^2*x2^2 + x2^4",
        "x3^5",
        "x1^3*x2*x3 - x1*x2^3*x3 - x1^2*x3^3 + x2^2*x3^3",
        "-x1^4*x2 + x1^2*x2^3",
        "x1^3*x2^2 - x1^2*x2*x3^2 + x1*x3^4",
    ]
    q = parse_polynomial("t1^2*t2^3*t3", ctx.dual())
    assert [str(g) for g in ann_partial(q, ctx).generators] == ["x3^2", "x1^3", "x2^4"]
    q = parse_polynomial("1/2*t1^3*t2 - 2/3*t1*t2^2*t3 + t3^4", ctx.dual())
    assert [str(g) for g in ann_partial(q, ctx).generators] == [
        "4*x1^2 + 9*x2*x3",
        "x1^2*x3",
        "x1*x3^2",
        "x2^3",
        "18*x1*x2^2 + x3^3",
    ]


def _build_specs():
    """Seeded specs in 2, 3 and 4 variables, plus the ladder p."""
    rng = random.Random(12)
    specs = []
    for d in (2, 3, 4):
        ctx = Context.of_dim(d)
        for _ in range(8):
            k = rng.randint(3, 6 - d // 2)
            pool = box_monomials_of_degree(ctx, rng.randint(d, d * (k - 1) - 2), k - 1)
            support = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
            coeffs = {ev: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
                      for ev in support}
            specs.append(GorensteinSpec(k, Polynomial(ctx, coeffs)))
    ctx3 = Context.of_dim(3)
    return specs + [GorensteinSpec(k, parse_polynomial(LADDER_P, ctx3)) for k in (5, 6)]


def _build_text(ideal, top):
    return [[str(g) for g in ideal.generators],
            [[sorted(ideal.slice(e)._rows[p].items()) for p in ideal.slice(e)._pivots]
             for e in range(top + 2)]]


# sha256 of the generator strings and integer slice rows of _build_specs(),
# captured when every degree reduced the lifts against the full kernel.
BUILD_DIGEST = "67f4707b0008a41465f2400853db160a4e6dbb087886f8fb4209936a61e97a93"


def test_each_build_path_keeps_generators_and_slices(monkeypatch):
    # Per kernel_fn call: (degree, number of columns, kernel dimension,
    # whether it is the degree's second call).
    builds = []

    def spy(ctx, kernel_fn, max_degree):
        calls = []

        def counted(e, columns):
            kernel = kernel_fn(e, columns)
            again = bool(calls and calls[-1][0] == e)
            calls.append((e, len(columns), len(kernel), again))
            return kernel

        ideal = _assemble_minimal(ctx, counted, max_degree)
        builds.append((ideal, calls))
        return ideal

    monkeypatch.setattr("apolar.graded_engine._assemble_minimal", spy)
    specs = _build_specs()
    colon = [_build_text(spec.colon_ideal(), spec.top_degree) for spec in specs]
    ann = [_build_text(ann_partial(antipodal(spec), spec.ctx), spec.top_degree)
           for spec in specs]
    for text in (colon, ann):
        assert hashlib.sha256(json.dumps(text).encode()).hexdigest() == BUILD_DIGEST
    paths = Counter()
    for ideal, calls in builds:
        gens = Counter(g.homogeneous_degree() for g in ideal.generators)
        read_again = {e for e, _, _, again in calls if again}
        for e, width, kernel_dim, again in calls:
            full = width == comb(e + ideal.ctx.dim - 1, e)
            if again:
                assert full and gens[e] >= 2
                paths["full kernel, two or more generators"] += 1
            elif full:  # no lifts: every kernel vector is a generator
                assert kernel_dim == gens[e] and e not in read_again
            else:  # the full kernel is read only when two or more generators are left
                assert (e in read_again) == (gens[e] >= 2)
                if kernel_dim == 0:
                    assert gens[e] == 0
                    paths["no new dimension"] += 1
                elif gens[e] == 1:
                    paths["one generator from the free columns"] += 1
                if kernel_dim > gens[e]:
                    paths["other lifts add dimensions"] += 1
    assert len(paths) == 4, paths


def test_reads_in_any_order_keep_generators_and_slices():
    # Slices read top-down, then equals pulling Ann(F) degree by degree, then
    # the generators: each build must still give what a plain read gives.
    colon, ann = [], []
    for spec in _build_specs():
        ideal = colon_power_ideal(spec.k, spec.p)
        for e in reversed(range(spec.top_degree + 2)):
            ideal.slice(e)
        other = ann_partial(antipodal(spec), spec.ctx)
        assert ideal.equals(other)
        colon.append(_build_text(ideal, spec.top_degree))
        ann.append(_build_text(other, spec.top_degree))
    for text in (colon, ann):
        assert hashlib.sha256(json.dumps(text).encode()).hexdigest() == BUILD_DIGEST


def _socle_ann(spec):
    q = Polynomial.monomial(ExponentVector(spec.dual_ctx, spec.socle_monomial.coords))
    return ann_partial(q, spec.ctx)


def test_equals_reads_no_slice_past_what_decides_it(monkeypatch):
    # A finished presentation is bounded by its largest generator degree, not
    # by its build's top: the colon ideal below, (x1^4, x2^5, x3^5, x4^5), has
    # a build top of 16, which the parsed initial ideal must not be sliced up to.
    made = []
    from_monomial = HomogeneousIdealPresentation.from_monomial_ideal
    monkeypatch.setattr(HomogeneousIdealPresentation, "from_monomial_ideal",
                        classmethod(lambda cls, ideal: made.append(from_monomial(ideal)) or made[-1]))
    spec = GorensteinSpec(5, parse_polynomial("x1", Context.of_dim(4)))
    result = monomial_iff_test(spec)
    assert result.is_monomial_ideal and result.ann_of_socle_equals_ideal
    (initial,) = made
    bound = max(spec.colon_ideal().max_generator_degree(), initial.max_generator_degree())
    assert bound < spec.top_degree + 1 and max(initial._slices) <= bound
    # An unequal Ann(t^a) is built only through the first degree that differs.
    unequal = 0
    for spec in _build_specs():
        colon, ann = spec.colon_ideal(), _socle_ann(spec)
        if colon.equals(ann):
            continue
        full = _socle_ann(spec)
        first = next(e for e in range(spec.top_degree + 2)
                     if colon.slice(e)._rows != full.slice(e)._rows)
        assert max(ann._slices) == first
        unequal += 1
    assert unequal


def test_a_degree_that_raises_is_built_again_by_the_next_read(monkeypatch):
    # Ann(t1^5 + t2^5) = (x*y, x^5 - y^5): degree 2 gains a generator.
    q = parse_polynomial("t1^5 + t2^5", CTX.dual("t"))
    fresh = ann_partial(q, CTX)
    failed = []

    def flaky(ctx, kernel_fn, max_degree):
        def once(e, columns):
            if e == 2 and not failed:
                failed.append(columns)
                raise _KernelReached
            return kernel_fn(e, columns)
        return _assemble_minimal(ctx, once, max_degree)

    monkeypatch.setattr("apolar.graded_engine._assemble_minimal", flaky)
    ideal = ann_partial(q, CTX)
    with pytest.raises(_KernelReached):
        ideal.slice(2)
    assert failed
    assert ideal.slice(3)._rows == fresh.slice(3)._rows
    assert [str(g) for g in ideal.generators] == [str(g) for g in fresh.generators]
    assert ideal.hilbert_function() == fresh.hilbert_function()


class _KernelReached(Exception):
    pass


def _kernel_reached(e, columns):
    raise _KernelReached


def test_size_guard_refuses_before_any_kernel():
    # The d=5, k=4 verify rung (top degree 11) builds up to degree 12, with
    # binomial(16, 4) = 1,820 columns; it must be admitted.  An admitted
    # build runs its first kernel when its first slice is read.
    with pytest.raises(_KernelReached):
        _assemble_minimal(Context.of_dim(5), _kernel_reached, 12).slice(0)
    # In 2 variables degree e has e + 1 columns.
    with pytest.raises(_KernelReached):
        _assemble_minimal(CTX, _kernel_reached, MAX_SLICE_COLUMNS - 1).slice(0)
    with pytest.raises(DomainError, match="above the limit"):
        _assemble_minimal(CTX, _kernel_reached, MAX_SLICE_COLUMNS)
    with pytest.raises(DomainError, match="above the limit"):
        colon_power_ideal(40, parse_polynomial("x1", Context.of_dim(9)))


def test_size_guard_refuses_a_slice_from_generators(monkeypatch):
    # Not artinian; binomial(17, 5) = 6,188 columns in degree 12.
    pres = as_pres("(x1^20)", Context.of_dim(6))
    with pytest.raises(DomainError, match="degree-12 slice in 6 variables has 6188"):
        pres.hilbert_function()
    assert pres.slice(11).hilbert_value == 4368
    # The refusal comes before the degree's monomials are listed.
    monkeypatch.setattr(
        "apolar.graded_engine.monomials_of_degree",
        lambda *args: pytest.fail("monomials listed before the size guard"),
    )
    with pytest.raises(DomainError, match="above the limit"):
        pres.slice(12)


def _slice_text(sl):
    return sl.reduced_rows, sl.pivot_monomials, sl.standard_monomials


@given(gorenstein_specs())
def test_slices_do_not_depend_on_call_order(spec):
    colon = spec.colon_ideal()
    top = spec.top_degree + 1
    others = (
        ann_partial(antipodal(spec), spec.ctx),
        HomogeneousIdealPresentation.from_monomial_ideal(colon.initial_monomials()),
    )
    for other in others:
        read_first = HomogeneousIdealPresentation(spec.ctx, colon.generators)
        compared_first = HomogeneousIdealPresentation(spec.ctx, colon.generators)
        before = [_slice_text(read_first.slice(e)) for e in range(top + 1)]
        verdict = compared_first.equals(other)
        assert read_first.equals(other) == verdict == colon.equals(other)
        after = [_slice_text(compared_first.slice(e)) for e in range(top + 1)]
        assert before == after == [_slice_text(colon.slice(e)) for e in range(top + 1)]


@given(gorenstein_specs())
def test_hilbert_function_does_not_depend_on_cutoff_or_order(spec):
    gens = spec.colon_ideal().generators
    values = HomogeneousIdealPresentation(spec.ctx, gens).hilbert_function()
    vanishing = len(values)
    plain_first = HomogeneousIdealPresentation(spec.ctx, gens)
    cut_first = HomogeneousIdealPresentation(spec.ctx, gens)
    assert plain_first.hilbert_function() == values
    assert plain_first.hilbert_function(vanishing) == values
    assert cut_first.hilbert_function(vanishing + 2) == values
    assert cut_first.hilbert_function() == values
    for ideal in (plain_first, cut_first, HomogeneousIdealPresentation(spec.ctx, gens)):
        with pytest.raises(NotArtinianError):
            ideal.hilbert_function(vanishing - 1)


@given(gorenstein_specs())
def test_reduced_rows_do_not_depend_on_what_was_read_first(spec):
    # Slices keep integer rows and make their Fraction rows on first read;
    # reading hilbert_value or comparing with equals first must not change them.
    degrees = range(spec.top_degree + 2)
    colon = spec.colon_ideal()
    gens = colon.generators
    for make in (lambda: HomogeneousIdealPresentation(spec.ctx, gens),
                 lambda: colon_power_ideal(spec.k, spec.p)):
        rows_first, counts_first = make(), make()
        before = [rows_first.slice(e).reduced_rows for e in degrees]
        hilbert = [counts_first.slice(e).hilbert_value for e in degrees]
        assert counts_first.equals(colon) and counts_first.equals(rows_first)
        assert hilbert == [len(rows_first.slice(e).standard_monomials) for e in degrees]
        after = [counts_first.slice(e).reduced_rows for e in degrees]
        assert before == after == [colon.slice(e).reduced_rows for e in degrees]


@given(gorenstein_specs(dims=(1, 2, 3, 4)))
def test_single_entry_rows_are_the_monomials_no_term_of_f_is_divisible_by(spec):
    # x^a kills F = antipodal(p) iff it divides no term of F, so the monomial
    # part of I = Ann(F) is inverse_ideal(supp F), and a monomial of I is a
    # unit row of its slice's RREF.
    f = antipodal(spec)
    support = Antichain(spec.ctx, tuple(ExponentVector(spec.ctx, ev.coords) for ev in f.support()))
    monomial_part = inverse_ideal(support)
    for ideal in (spec.colon_ideal(), ann_partial(f, spec.ctx)):
        for e in range(spec.top_degree + 2):
            sl = ideal.slice(e)
            units = {sl.monomial_basis[min(row)] for row in sl._rows.values() if len(row) == 1}
            assert units == {m for m in sl.monomial_basis if monomial_part.contains(m)}


@given(gorenstein_specs(dims=(1, 2, 3, 4)))
def test_every_stored_row_leads_at_its_pivot(spec):
    # _assemble_minimal reads a lift's lead off the pivot of the row it
    # shifts, never off the row: each stored row's lowest column is its key.
    colon = spec.colon_ideal()
    for ideal in (colon, ann_partial(antipodal(spec), spec.ctx),
                  HomogeneousIdealPresentation(spec.ctx, colon.generators)):
        for e in range(spec.top_degree + 2):
            assert all(min(row) == p for p, row in ideal.slice(e)._rows.items())


def _assert_rref_slices(ideal, top):
    """Every slice through degree top + 1 stores the integer RREF of its
    span: primitive rows, each positive at its pivot (its lowest column) and
    zero at every other pivot, equal to ``rref`` of its own rows made dense."""
    for e in range(top + 2):
        sl = ideal.slice(e)
        rows, width = sl._rows, len(sl.monomial_basis)
        for p, row in rows.items():
            assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1, (e, p, row)
            assert not any(c in rows for c in row if c != p), (e, p, row)
        assert rref([[row.get(c, 0) for c in range(width)] for row in rows.values()], width) == rows


@settings(max_examples=60)
@given(gorenstein_specs(dims=(1, 2, 3, 4)))
def test_build_slices_are_the_integer_rref_of_their_rows(spec):
    # A degree with lifts reads its slice off the kernel on its free columns,
    # listed highest first, and reduces each owner lift against the rows made.
    for ideal in (spec.colon_ideal(), ann_partial(antipodal(spec), spec.ctx)):
        _assert_rref_slices(ideal, spec.top_degree)


def test_a_lift_that_leads_at_a_unit_column_owns_no_lead():
    # (x1^3, x2^3) : (x1 + x2) = (x1^2 - x1*x2 + x2^2, x1^3).  In degree 4, x2
    # times the degree-3 row x1*x2^2 - x1^2*x2 leads at x1*x2^3, a unit column
    # (x1 times the unit row x2^3).  Off the unit columns it leads at
    # x1^2*x2^2 with entry -1, so owners chosen after dropping unit columns
    # made the slice's row there negative at its pivot.
    ctx = Context.of_dim(2)
    spec = GorensteinSpec(3, parse_polynomial("x1 + x2", ctx))
    for ideal in (spec.colon_ideal(), ann_partial(antipodal(spec), ctx)):
        assert [str(g) for g in ideal.generators] == ["x1^2 - x1*x2 + x2^2", "x1^3"]
        three, four = ideal.slice(3), ideal.slice(4)
        assert three._rows == {0: {0: 1}, 1: {1: 1, 2: -1}, 3: {3: 1}}
        x1, x2 = _shift_table(ctx, 4, 0), _shift_table(ctx, 4, 1)
        units = {s[q] for s in (x1, x2) for q in (0, 3)}
        assert x2[1] in units and x1[1] not in units
        assert {x2[c]: v for c, v in three._rows[1].items() if x2[c] not in units} == {2: -1}
        assert four._rows == {c: {c: 1} for c in range(5)}
        _assert_rref_slices(ideal, spec.top_degree)


def _dense_spec(d, k, degree, terms):
    """perfbench's ``_random_spec(random.Random(7), d, k, degree, terms)``: a
    degree-`degree` p with `terms` terms in the box [0, k-1]^d."""
    rng = random.Random(7)
    ctx = Context.of_dim(d)
    support = rng.sample(box_monomials_of_degree(ctx, degree, k - 1), terms)
    coeffs = {ev: Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 4))
              for ev in support}
    return GorensteinSpec(k, Polynomial(ctx, coeffs))


# sha256 of the generator strings and integer slice rows of the colon ideal,
# captured when each degree with lifts built its slice in a SpanBuilder.
DENSE_DIGESTS = {
    (4, 6, 10, 60): "c1b1fb054475a69feb0f5c0b00f9f6d2049f7d1f1ef1d5913c6a16b33cd0667b",
    (5, 4, 7, 40): "76e3d42bd0bf311b7384bdb34fb84cfbee32a7e6f0d0e3a60bf0f519ce4607f9",
}


def test_dense_p_keeps_generators_and_slices():
    # Dense p is where elimination binds: entries reach 166 bits in (4, 6, 10,
    # 60 terms) and 108 in (5, 4, 7, 40 terms).  Both fit under the guard.
    for args, digest in DENSE_DIGESTS.items():
        spec = _dense_spec(*args)
        assert verify_gorenstein_ann(spec)
        text = _build_text(spec.colon_ideal(), spec.top_degree)
        assert hashlib.sha256(json.dumps(text).encode()).hexdigest() == digest, args


def test_shift_tables_multiply_by_a_variable():
    ctx = Context.of_dim(3)
    for e in range(1, 5):
        basis, prev = monomials_of_degree(ctx, e), monomials_of_degree(ctx, e - 1)
        for i in range(3):
            table = _shift_table(ctx, e, i)
            assert [basis[c] for c in table] == [
                ExponentVector(ctx, tuple(a + (j == i) for j, a in enumerate(m.coords)))
                for m in prev
            ]



def _tuple_images(image, monomials):
    # The reference map: one row per monomial, {key: weight} as the image
    # gives it; the width is the number of distinct keys.
    rows = [dict(image(m.coords)) for m in monomials]
    return rows, len(set().union(*rows))


def _key(pairs, degree):
    # An exponent tuple u's key, code(u) + guard: the sum over i of
    # (u_i + 2^(b-1)) * 2^(b*i), with 2^(b-1) > max s_i + degree + 1.
    b = (max(max(s) for s, _ in pairs) + degree + 1).bit_length() + 1
    return lambda u: sum(c + (1 << b - 1) << b * i for i, c in enumerate(u))


def _contraction_image(pairs, degree, keep):
    # The contraction of sum_s w_s t^s on tuples: row m holds w over the
    # weights' gcd at the key of s - m, for each pair that keep(m, s) admits.
    key, g = _key(pairs, degree), gcd(*[w for _, w in pairs])

    def image(mc):
        return [(key(tuple(map(sub, s, mc))), w // g) for s, w in pairs if keep(mc, s)]
    return image


def _reflection(k, p):
    return [(tuple(k - 1 - c for c in s), a) for s, a in _numerators(p)[0]]


def _colon_image(k, p):
    # p's reflection, kept where m*x^s, s = (k-1)*1 - r, is in the box [0, k-1]^d.
    top = p.ctx.dim * (k - 1) - p.homogeneous_degree()
    return _contraction_image(_reflection(k, p), top,
                              lambda mc, r: max(m + k - 1 - c for m, c in zip(mc, r)) < k)


def _catalecticant_image(f):
    # m(d/dt) f in divided powers: the weights c*s!, kept where s >= m.
    weights = [(s, c * prod(map(factorial, s))) for s, c in _numerators(f)[0]]
    return _contraction_image(weights, f.homogeneous_degree(),
                              lambda mc, s: min(map(sub, s, mc)) >= 0)


def _field_width_specs():
    # Monomial p of degree 1-2 in d = 4-6 with k = 2-3: a monomial m's
    # exponents reach top + 1, far above the reflection's (at most k - 1), so
    # fields sized by the form's exponents alone borrow from the next
    # variable's.  Specs the size guard refuses are left out.
    specs = []
    for d in (4, 5, 6):
        ctx = Context.of_dim(d)
        for k in (2, 3):
            for n in (1, 2):
                if comb(d * (k - 1) - n + d, d - 1) <= MAX_SLICE_COLUMNS:
                    specs += [GorensteinSpec(k, Polynomial.monomial(m))
                              for m in box_monomials_of_degree(ctx, n, k - 1)]
    return specs


def test_packed_maps_match_tuple_arithmetic(monkeypatch):
    # Both builds' kernel maps, the colon map and the catalecticant of
    # antipodal(p), read in every degree up to top + 1, on all columns and on
    # every other one, equal the contraction made from exponent tuples: the
    # same rows, column keys and width.  The colon map is the contraction of
    # p's reflection, with its box test made on the products m*x^s; its key
    # of a product ascends as the product descends in LEX, so each row leads
    # at its LEX-largest product.
    rng, line = random.Random(29), Context.of_dim(1)
    builds = []  # (ideal, top degree, the reference image of a monomial)
    colons = []  # (k, p)
    for spec in _field_width_specs() + [random_spec(rng, dims=(1, 2, 3, 4)) for _ in range(12)]:
        f = antipodal(spec)
        colons.append((spec.k, spec.p))
        builds += [(colon_power_ideal(spec.k, spec.p), spec.top_degree, _colon_image(spec.k, spec.p)),
                   (ann_partial(f, spec.ctx), spec.top_degree, _catalecticant_image(f))]
    n = 700  # d = 1 at large n: Ann(t1^n), and (x1^(n+4)) : x1^3, of top degree n
    q = Polynomial.monomial(ExponentVector(line.dual(), (n,)))
    x3 = Polynomial.monomial(ExponentVector(line, (3,)))
    colons.append((n + 4, x3))
    builds += [(ann_partial(q), n, _catalecticant_image(q)),
               (colon_power_ideal(n + 4, x3), n, _colon_image(n + 4, x3))]
    for k, p in colons:
        key = _key(_reflection(k, p), p.ctx.dim * (k - 1) - p.homogeneous_degree())
        for e in range(p.ctx.dim * (k - 1) + 1):
            keys = [key([k - 1 - c for c in m.coords])
                    for m in monomials_of_degree(p.ctx, e) if max(m.coords) < k]
            assert all(a < b for a, b in zip(keys, keys[1:]))
    seen = []
    monkeypatch.setattr("apolar.graded_engine.left_kernel",
                        lambda rows, ncols: seen.append((rows, ncols)) or [])
    for ideal, top, image in builds:
        for e in range(top + 2):
            basis = monomials_of_degree(ideal.ctx, e)
            for columns in (range(len(basis)), range(1, len(basis), 2)):
                ideal._build.kernel_fn(e, columns)
                assert seen.pop() == _tuple_images(image, [basis[c] for c in columns])


@st.composite
def forms(draw):
    """A form in d = 1..4 t-variables of degree 0..7, with one to six terms
    of mixed signs and denominators."""
    ctx = Context.of_dim(draw(st.integers(1, 4)), "t")
    pool = monomials_of_degree(ctx, draw(st.integers(0, 7)))
    support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return Polynomial(ctx, {ev: draw(coeff) for ev in support})


@given(forms(), st.randoms(use_true_random=False))
def test_catalecticant_matches_the_falling_factorial_reference_property(f, rnd):
    # The divided-power catalecticant is the falling-factorial one with each
    # column scaled and a common factor taken out: in every degree, on all
    # columns and on a random subset, the same rank and left kernel.
    ctx = Context.of_dim(f.ctx.dim)
    cat = _catalecticant(ctx, f)
    for e in range(f.homogeneous_degree() + 1):
        basis = monomials_of_degree(ctx, e)
        subset = sorted(rnd.sample(range(len(basis)), rnd.randint(1, len(basis))))
        for columns in (range(len(basis)), subset):
            got = cat(e, columns)
            ref, width = reference_catalecticant(f, [basis[c] for c in columns])
            assert rank(got) == rank(ref)
            assert left_kernel(got, width) == left_kernel(ref, width)
