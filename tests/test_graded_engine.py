import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

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
    monomials_of_degree,
    parse_ideal,
    parse_polynomial,
    power_ideal,
    random_spec,
)
from apolar.exponents import box_monomials_of_degree
from apolar.graded_engine import MAX_SLICE_COLUMNS, GradedSlice, _assemble_minimal, _shift_table
from apolar.linalg import left_kernel
from apolar.oracle import brute_ann, brute_quotient_dim
from hypothesis import given
from support import gorenstein_specs

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
    assert pres.initial_monomials(4) is init
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

        def counted(columns):
            kernel = kernel_fn(columns)
            again = bool(columns and calls and calls[-1][0] == columns[0].degree)
            e = columns[0].degree if columns else calls[-1][0] + 1 if calls else 0
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


class _KernelReached(Exception):
    pass


def _kernel_reached(columns):
    raise _KernelReached


def test_size_guard_refuses_before_any_kernel():
    # The d=5, k=4 verify rung (top degree 11) builds up to degree 12, with
    # binomial(16, 4) = 1,820 columns; it must be admitted.
    with pytest.raises(_KernelReached):
        _assemble_minimal(Context.of_dim(5), _kernel_reached, 12)
    # In 2 variables degree e has e + 1 columns.
    with pytest.raises(_KernelReached):
        _assemble_minimal(CTX, _kernel_reached, MAX_SLICE_COLUMNS - 1)
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
