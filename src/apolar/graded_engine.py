"""Degree-by-degree linear algebra over Q for homogeneous artinian ideals.

Instead of a Groebner-basis engine, each graded slice of an ideal is a
Macaulay matrix: rows span the degree-e piece, columns are the degree-e
monomials in LEX-descending order, and row reduction makes the pivot of
every row its LEX-leading monomial.  That is enough to read off Hilbert
functions, socles, initial ideals, colon ideals against power ideals and
apolarity annihilators at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm

from .errors import AmbientMismatchError, DomainError, NotArtinianError
from .exponents import (
    Context,
    ExponentVector,
    box_monomials_of_degree,
    monomials_of_degree,
)
from .linalg import SpanBuilder, left_kernel, reduce_vector, rref
from .monomial_ideal import MonomialIdeal
from .polynomial import Polynomial

# The most columns, binomial(e + d - 1, d - 1) in degree e, that a slice may
# have, whether built from generators or by colon_power_ideal / ann_partial
# (up to their top degree); larger requests are refused before allocation.
MAX_SLICE_COLUMNS = 5000


def _check_slice_size(ctx: Context, e: int) -> None:
    """Refuse a degree-e slice with more than ``MAX_SLICE_COLUMNS`` columns."""
    columns = comb(e + ctx.dim - 1, ctx.dim - 1)
    if columns > MAX_SLICE_COLUMNS:
        raise DomainError(
            f"degree-{e} slice in {ctx.dim} variables has {columns} columns, "
            f"above the limit of {MAX_SLICE_COLUMNS}"
        )


class GradedSlice:
    """The degree-e piece of a homogeneous ideal, row reduced.

    ``monomial_basis`` lists the degree-e monomials LEX-descending; all row
    and coordinate vectors in this module follow that column order.
    ``pivot_monomials`` is the degree-e piece of the LEX initial ideal and
    ``standard_monomials`` its complement, a basis of (R/I)_e.
    """

    def __init__(self, degree: int, monomial_basis, reduced_rows, pivots):
        self.degree = degree
        self.monomial_basis: tuple[ExponentVector, ...] = tuple(monomial_basis)
        self.reduced_rows: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(r) for r in reduced_rows
        )
        pivot_set = set(pivots)
        self.pivot_monomials: frozenset[ExponentVector] = frozenset(
            self.monomial_basis[c] for c in pivots
        )
        self.standard_monomials: tuple[ExponentVector, ...] = tuple(
            ev for c, ev in enumerate(self.monomial_basis) if c not in pivot_set
        )
        self._col_index = {ev: i for i, ev in enumerate(self.monomial_basis)}
        self._std_index = {ev: i for i, ev in enumerate(self.standard_monomials)}
        self._row_of_pivot = {
            self.monomial_basis[c]: row for row, c in zip(self.reduced_rows, pivots)
        }

    @property
    def hilbert_value(self) -> int:
        return len(self.standard_monomials)

    def reduce_monomial(self, ev: ExponentVector) -> list[Fraction]:
        """Coordinates of the coset of a degree-e monomial over the standard
        monomials."""
        if ev in self._std_index:
            out = [Fraction(0)] * len(self.standard_monomials)
            out[self._std_index[ev]] = Fraction(1)
            return out
        row = self._row_of_pivot.get(ev)
        if row is None:
            raise DomainError("monomial is not of the slice's degree and context")
        return [-row[self._col_index[s]] for s in self.standard_monomials]

    def reduce_polynomial(self, poly: Polynomial) -> list[Fraction]:
        out = [Fraction(0)] * len(self.standard_monomials)
        for ev, c in poly.terms():
            if ev.degree != self.degree:
                raise DomainError("polynomial degree does not match the slice")
            for i, v in enumerate(self.reduce_monomial(ev)):
                out[i] += c * v
        return out


class HomogeneousIdealPresentation:
    """A homogeneous ideal given by generators, with cached graded slices."""

    def __init__(self, ctx: Context, generators):
        self.ctx = ctx
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise AmbientMismatchError("generator from a different context")
            if g.is_zero:
                continue
            g.homogeneous_degree()  # raises DomainError when inhomogeneous
            gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._slices: dict[int, GradedSlice] = {}

    @classmethod
    def from_monomial_ideal(cls, ideal: MonomialIdeal) -> "HomogeneousIdealPresentation":
        return cls(ideal.ctx, [Polynomial.monomial(g) for g in ideal.gens])

    def max_generator_degree(self) -> int:
        return max((g.homogeneous_degree() for g in self.generators), default=0)

    def slice(self, e: int) -> GradedSlice:
        if e < 0:
            raise DomainError("slice degree must be >= 0")
        if e in self._slices:
            return self._slices[e]
        _check_slice_size(self.ctx, e)
        basis = monomials_of_degree(self.ctx, e)
        col = {ev.coords: i for i, ev in enumerate(basis)}
        rows = []
        for g in self.generators:
            dg = g.homogeneous_degree()
            if dg > e:
                continue
            g_terms = _integer_terms(g)
            for m in monomials_of_degree(self.ctx, e - dg):
                row = [0] * len(basis)
                mc = m.coords
                for s, c in g_terms:
                    row[col[tuple(a + b for a, b in zip(mc, s))]] = c
                rows.append(row)
        sl = self._slices[e] = GradedSlice(e, basis, *rref(rows, len(basis)))
        return sl

    def hilbert_function(self, cutoff: int | None = None) -> list[int]:
        """Values of dim (R/I)_e from 0 until the first vanishing degree."""
        if cutoff is None:
            cutoff = sum(g.homogeneous_degree() for g in self.generators) + self.ctx.dim
        values = []
        for e in range(cutoff + 1):
            h = self.slice(e).hilbert_value
            if h == 0:
                return values
            values.append(h)
        raise NotArtinianError(
            f"no vanishing slice up to degree {cutoff}; ideal is not artinian"
        )

    def dimension(self, cutoff: int | None = None) -> int:
        return sum(self.hilbert_function(cutoff))

    def socle(self, cutoff: int | None = None) -> list["SocleClass"]:
        """Per-degree kernel of multiplication by the variables on R/I."""
        hilbert = self.hilbert_function(cutoff)
        d = self.ctx.dim
        classes: list[SocleClass] = []
        for e in range(len(hilbert)):
            std = self.slice(e).standard_monomials
            nxt = self.slice(e + 1)
            width = len(nxt.standard_monomials)
            rows = []
            for s in std:
                blocks: list[Fraction] = []
                for i in range(d):
                    shifted = ExponentVector(
                        self.ctx,
                        tuple(c + 1 if j == i else c for j, c in enumerate(s.coords)),
                    )
                    blocks.extend(nxt.reduce_monomial(shifted))
                rows.append(blocks)
            for vec in left_kernel(rows, d * width):
                free = next(v for v in reversed(vec) if v)
                classes.append(SocleClass(e, std, [Fraction(v, free) for v in vec]))
        return classes

    def socle_dimension(self, cutoff: int | None = None) -> int:
        return len(self.socle(cutoff))

    def initial_monomials(self, cutoff: int | None = None) -> MonomialIdeal:
        """The LEX initial ideal, assembled from slice pivots (artinian only)."""
        hilbert = self.hilbert_function(cutoff)
        pivots = []
        for e in range(len(hilbert) + 1):
            pivots.extend(self.slice(e).pivot_monomials)
        return MonomialIdeal.from_generators(self.ctx, pivots)

    def equals(self, other: "HomogeneousIdealPresentation") -> bool:
        """Slice-by-slice row space equality through the last generator degree."""
        if self.ctx != other.ctx:
            raise AmbientMismatchError("ideal comparison across contexts")
        top = max(self.max_generator_degree(), other.max_generator_degree())
        for e in range(top + 1):
            if self.slice(e).reduced_rows != other.slice(e).reduced_rows:
                return False
        return True

    def __str__(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


class SocleClass:
    """A socle basis element: coordinates over one degree's standard monomials."""

    def __init__(self, degree, basis_monomials, coords):
        self.degree = degree
        self.basis_monomials = tuple(basis_monomials)
        self.coords = tuple(Fraction(c) for c in coords)

    def polynomial(self) -> Polynomial:
        ctx = self.basis_monomials[0].ctx
        return Polynomial(
            ctx, {ev: c for ev, c in zip(self.basis_monomials, self.coords) if c}
        )

    def __str__(self) -> str:
        return str(self.polynomial())


def ideal_equals(a: HomogeneousIdealPresentation, b: HomogeneousIdealPresentation) -> bool:
    return a.equals(b)


def _vector_to_polynomial(ctx: Context, vec, basis) -> Polynomial:
    """Polynomial from a primitive integer vector (a ``reduce_vector``
    remainder), LEX-leading coefficient made positive (columns are
    LEX-descending, so the first nonzero entry is the leading one)."""
    if next(v for v in vec if v) < 0:
        vec = [-v for v in vec]
    return Polynomial(ctx, {ev: c for ev, c in zip(basis, vec) if c})


def _assemble_minimal(ctx: Context, kernel_fn, max_degree: int):
    """The ideal given by minimal generators collected from per-degree kernels.

    kernel_fn(e) must return a basis of the full degree-e piece of the ideal
    as coefficient vectors over the LEX-descending degree-e monomials.  In
    each degree the kernel is reduced against R_1 times the previous degree;
    the surviving independent vectors become new generators.  The span built
    in degree e is then all of I_e, so the presentation keeps it as its
    degree-e slice.  Raises ``DomainError`` before building anything when the
    degree-``max_degree`` slice has more than ``MAX_SLICE_COLUMNS`` columns.
    """
    _check_slice_size(ctx, max_degree)
    gens: list[Polynomial] = []
    slices: dict[int, GradedSlice] = {}
    prev_basis: tuple[ExponentVector, ...] = ()
    prev_rows: list[list[int]] = []
    for e in range(max_degree + 1):
        basis = monomials_of_degree(ctx, e)
        span = SpanBuilder(len(basis))
        if prev_rows:
            col = {ev.coords: i for i, ev in enumerate(basis)}
            for i in range(ctx.dim):
                # shift[j]: the column of x_i times the j-th degree-(e-1) monomial
                shift = [
                    col[tuple(a + (j == i) for j, a in enumerate(ev.coords))]
                    for ev in prev_basis
                ]
                for row in prev_rows:
                    lifted = [0] * len(basis)
                    for j, c in zip(shift, row):
                        lifted[j] = c
                    span.add(lifted)
        kernel = kernel_fn(e)
        for vec in kernel:
            if len(span.pivots) == len(kernel):
                break  # the span is already all of I_e
            rem = reduce_vector(vec, span.rows, span.pivots)
            if any(rem):
                gens.append(_vector_to_polynomial(ctx, rem, basis))
                span.add(rem)
        del kernel  # as large as the slice: free it before making the slice
        slices[e] = GradedSlice(e, basis, span.reduced, span.pivots)
        prev_basis, prev_rows = basis, span.rows
    ideal = HomogeneousIdealPresentation(ctx, gens)
    ideal._slices = slices
    return ideal


def power_ideal(ctx: Context, k: int) -> MonomialIdeal:
    """(x_1^k, ..., x_d^k)."""
    _reduced_mod_power(k)
    d = ctx.dim
    return MonomialIdeal.from_generators(
        ctx,
        [
            ExponentVector(ctx, tuple(k if j == i else 0 for j in range(d)))
            for i in range(d)
        ],
    )


def reduce_mod_power_ideal(p: Polynomial, k: int) -> Polynomial:
    """Drop the terms of p lying in (x_1^k, ..., x_d^k)."""
    return Polynomial(
        p.ctx,
        {ev: c for ev, c in p._terms.items() if all(a <= k - 1 for a in ev.coords)},
    )


def _reduced_mod_power(k: int, p: Polynomial | None = None) -> Polynomial | None:
    """Check k >= 1 and, if p is given, that p is nonzero and outside
    (x_1^k, ..., x_d^k); return p reduced modulo that ideal."""
    if k < 1:
        raise DomainError("power exponent k must be >= 1")
    if p is None:
        return None
    if p.homogeneous_degree() is None:
        raise DomainError("p must be nonzero")
    reduced = reduce_mod_power_ideal(p, k)
    if reduced.is_zero:
        raise DomainError("p lies in the power ideal (x_1^k, ..., x_d^k)")
    return reduced


def colon_power_ideal(k: int, p: Polynomial) -> HomogeneousIdealPresentation:
    """The quotient ideal ((x_1^k, ..., x_d^k) : p) for homogeneous p.

    Degree by degree, the kernel of multiplication by p into the monomial
    quotient R/(x_1^k, ..., x_d^k); minimal generators are extracted along
    the way.  The result is artinian Gorenstein.
    """
    p_red = _reduced_mod_power(k, p)
    ctx = p.ctx
    n = p_red.homogeneous_degree()
    top = ctx.dim * (k - 1) - n  # top degree of R/I
    p_terms = _integer_terms(p_red)

    def kernel_fn(e: int) -> list[list[int]]:
        cols = box_monomials_of_degree(ctx, e + n, k - 1)
        col = {ev.coords: i for i, ev in enumerate(cols)}
        rows = []
        for m in monomials_of_degree(ctx, e):
            row = [0] * len(cols)
            for s, a in p_terms:
                idx = col.get(tuple(x + y for x, y in zip(m.coords, s)))
                if idx is not None:
                    row[idx] = a
            rows.append(row)
        return left_kernel(rows, len(cols))

    return _assemble_minimal(ctx, kernel_fn, top + 1)


def ann_partial(
    q: Polynomial, operator_ctx: Context | None = None
) -> HomogeneousIdealPresentation:
    """The apolarity annihilator Ann(q) = {f : f(d/dt_1, ..., d/dt_d) q = 0}.

    Computed from the catalecticant maps R_e -> S_(deg q - e) given by the
    differential action, degree by degree up to deg q + 1.
    """
    m_deg = q.homogeneous_degree()
    if m_deg is None:
        raise DomainError("annihilator of the zero polynomial is undefined")
    ctx = operator_ctx or Context.of_dim(q.ctx.dim)
    if ctx.dim != q.ctx.dim:
        raise AmbientMismatchError("operator and target dimensions differ")

    def kernel_fn(e: int) -> list[list[int]]:
        return left_kernel(*_catalecticant(q, ctx, e))

    return _assemble_minimal(ctx, kernel_fn, m_deg + 1)


def _integer_terms(f: Polynomial) -> list[tuple[tuple[int, ...], int]]:
    """f's (exponent, coefficient) pairs, scaled to integers by the lcm of f's denominators."""
    mult = lcm(*[c.denominator for c in f._terms.values()])
    return [(ev.coords, c.numerator * (mult // c.denominator)) for ev, c in f._terms.items()]


def _catalecticant(f: Polynomial, ctx: Context, e: int) -> tuple[list[list[int]], int]:
    """The integer catalecticant Cat_e(f), the matrix of R_e -> S_(deg f - e),
    m -> m(d/dt) f, with f scaled by the lcm of its denominators; returns its
    rows and its number of columns.

    One row per degree-e monomial m of ``ctx`` and one column per
    degree-(deg f - e) monomial of f's context, both LEX-descending.  A term
    c*t^s of f with s >= m puts c * prod perm(s_i, m_i) in row m, column s - m.
    """
    top = f.homogeneous_degree()
    cols = monomials_of_degree(f.ctx, top - e) if e <= top else ()
    col = {ev.coords: i for i, ev in enumerate(cols)}
    terms = _integer_terms(f)
    rows = []
    for m in monomials_of_degree(ctx, e):
        mc = m.coords
        row = [0] * len(cols)
        for s, c in terms:
            u = tuple(a - b for a, b in zip(s, mc))
            if min(u) < 0:
                continue
            for a, b in zip(s, mc):
                c *= perm(a, b)
            row[col[u]] = c
        rows.append(row)
    return rows, len(cols)
