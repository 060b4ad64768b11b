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
from functools import cached_property, lru_cache
from math import comb, lcm, perm, prod
from operator import add, sub

from .errors import AmbientMismatchError, DomainError, NotArtinianError
from .exponents import CACHE_SIZE, Context, ExponentVector, monomials_of_degree
from .linalg import SpanBuilder, left_kernel, rref
from .monomial_ideal import MonomialIdeal
from .polynomial import Polynomial, _numerators

# The most columns, binomial(e + d - 1, d - 1) in degree e, that a slice may
# have, whether built from generators or by colon_power_ideal / ann_partial
# (up to their top degree); larger requests are refused before allocation.
MAX_SLICE_COLUMNS = 5000

_ZERO = Fraction(0)


def _check_slice_size(ctx: Context, e: int) -> None:
    """Refuse a degree-e slice with more than ``MAX_SLICE_COLUMNS`` columns."""
    columns = comb(e + ctx.dim - 1, ctx.dim - 1)
    if columns > MAX_SLICE_COLUMNS:
        raise DomainError(f"degree-{e} slice in {ctx.dim} variables has {columns} columns, "
                          f"above the limit of {MAX_SLICE_COLUMNS}")


class GradedSlice:
    """The degree-e piece of a homogeneous ideal, row reduced.

    ``monomial_basis`` lists the degree-e monomials LEX-descending; all row
    and coordinate vectors in this module follow that column order.  The
    slice is the only reader of its integer echelon rows, ``linalg``'s
    {pivot: primitive row} dict, whose pivots it sorts once, and makes the
    rest on first read: the Fraction RREF ``reduced_rows`` (in pivot order),
    ``pivot_monomials`` (the degree-e piece of the LEX initial ideal) and
    ``standard_monomials``.
    """

    def __init__(self, degree: int, monomial_basis, rows: dict[int, dict[int, int]]):
        self.degree = degree
        self.monomial_basis: tuple[ExponentVector, ...] = tuple(monomial_basis)
        self._rows, self._pivots = rows, sorted(rows)

    @property
    def hilbert_value(self) -> int:
        return len(self.monomial_basis) - len(self._pivots)

    @cached_property
    def reduced_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        out = []
        for p in self._pivots:
            row, dense = self._rows[p], [_ZERO] * len(self.monomial_basis)
            for c, v in row.items():
                dense[c] = Fraction(v, row[p])
            out.append(tuple(dense))
        return tuple(out)

    @cached_property
    def pivot_monomials(self) -> frozenset[ExponentVector]:
        return frozenset(self.monomial_basis[c] for c in self._pivots)

    @cached_property
    def _std_columns(self) -> list[int]:
        pivots = set(self._pivots)
        return [c for c in range(len(self.monomial_basis)) if c not in pivots]

    @cached_property
    def standard_monomials(self) -> tuple[ExponentVector, ...]:
        return tuple(self.monomial_basis[c] for c in self._std_columns)

    @cached_property
    def _cosets(self) -> dict[tuple[int, ...], tuple[dict[int, int], int]]:
        """Each monomial's integer RREF row and pivot entry, by exponent: its
        coset is -row[c]/a at each standard column c (x^c itself: -x^c over 1)."""
        out = {ev.coords: ({c: -1}, 1) for c, ev in enumerate(self.monomial_basis)}
        for p, row in self._rows.items():
            out[self.monomial_basis[p].coords] = row, row[p]
        return out

    def reduce_monomial(self, ev: ExponentVector) -> list[Fraction]:
        """Coordinates of a degree-e monomial's coset over the standard monomials."""
        if ev.ctx != self.monomial_basis[0].ctx or ev.coords not in self._cosets:
            raise DomainError("monomial is not of the slice's degree and context")
        row, a = self._cosets[ev.coords]
        return [Fraction(-row[c], a) if c in row else _ZERO for c in self._std_columns]


class _Multiples:
    """The rows m*g of degree e's Macaulay matrix (g a generator, m a monomial),
    each made dense when reached, as ``rref`` takes them.  They stay dense, with
    a ``len``, for ``perfbench``'s ``_count_rref``, which reads them densely,
    until slices stop being built by ``rref`` (ROADMAP item 1 part A)."""

    def __init__(self, ctx: Context, generators, e: int):
        self.col = {ev.coords: i for i, ev in enumerate(monomials_of_degree(ctx, e))}
        self.blocks = [(_numerators(g)[0], monomials_of_degree(ctx, e - g.homogeneous_degree()))
                       for g in generators if g.homogeneous_degree() <= e]

    def __len__(self) -> int:
        return sum(len(ms) for _, ms in self.blocks)

    def __iter__(self):
        for terms, ms in self.blocks:
            for m in ms:
                row = [0] * len(self.col)
                for s, c in terms:
                    row[self.col[tuple(map(add, m.coords, s))]] = c
                yield row


class HomogeneousIdealPresentation:
    """A homogeneous ideal given by generators, with cached graded slices."""

    def __init__(self, ctx: Context, generators):
        self.ctx = ctx
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise AmbientMismatchError("generator from a different context")
            if not g.is_zero:
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
        rows = rref(_Multiples(self.ctx, self.generators, e), len(basis))
        self._slices[e] = GradedSlice(e, basis, rows)
        return self._slices[e]

    def hilbert_function(self, cutoff: int | None = None) -> list[int]:
        """Values of dim (R/I)_e from 0 until the first vanishing degree."""
        if cutoff is None:
            cutoff = sum(g.homogeneous_degree() for g in self.generators) + self.ctx.dim
        if cutoff < 0:
            raise DomainError("cutoff must be >= 0")
        values = []
        for e in range(cutoff + 1):
            h = self.slice(e).hilbert_value
            if h == 0:
                return values
            values.append(h)
        raise NotArtinianError(f"no vanishing slice up to degree {cutoff}; the ideal is not "
                               f"artinian, or its quotient ends above degree {cutoff}")

    def dimension(self, cutoff: int | None = None) -> int:
        return sum(self.hilbert_function(cutoff))

    def socle(self, cutoff: int | None = None) -> list["SocleClass"]:
        """Per-degree kernel of multiplication by the variables on R/I, only
        in degrees where docle(in_<(I)) has a point, read off the slices as a
        standard s with every x_u*s a pivot one degree up: graded Betti
        numbers only grow under Groebner degeneration (Herzog-Hibi, Monomial
        Ideals, GTM 260, Thm 3.3.4), and a monomial ideal's socle monomials
        outside it are its docle, so dim socle(R/I)_e is at most the number
        of degree-e docle points.  Row s holds, in block u, the integer coset
        of x_u*s in degree e+1 times lambda_s, the lcm of the blocks' pivot
        entries: a kernel vector of these rows with entry s times lambda_s
        is the unscaled one times a positive constant, which dividing by its
        last nonzero, at its largest index, removes."""
        classes: list[SocleClass] = []
        for e in range(len(self.hilbert_function(cutoff))):
            sl, nxt = self.slice(e), self.slice(e + 1)  # both built by hilbert_function
            shifts = [_shift_table(self.ctx, e + 1, u) for u in range(self.ctx.dim)]
            images = [[shift[c] for shift in shifts] for c in sl._std_columns]  # x_u*s
            if not any(all(j in nxt._rows for j in img) for img in images):
                continue  # no docle point of in_<(I) in degree e
            at = {c: j for j, c in enumerate(nxt._std_columns)}
            rows, scales = [], []
            for img in images:
                blocks = [nxt._cosets[nxt.monomial_basis[j].coords] for j in img]
                scales.append(lcm(*[a for _, a in blocks]))
                rows.append({u * len(at) + at[c]: -v * (scales[-1] // a)
                             for u, (r, a) in enumerate(blocks) for c, v in r.items() if c in at})
            for vec in left_kernel(rows, self.ctx.dim * len(at)):
                last = max(vec)
                free = vec[last] * scales[last]
                classes.append(SocleClass(e, sl.standard_monomials, [
                    Fraction(vec.get(j, 0) * scale, free) for j, scale in enumerate(scales)]))
        return classes

    def socle_dimension(self, cutoff: int | None = None) -> int:
        return len(self.socle(cutoff))

    def initial_monomials(self, cutoff: int | None = None) -> MonomialIdeal:
        """The LEX initial ideal (artinian only), generated by the slice
        pivots that are no variable times a pivot of the degree below."""
        gens, prev = [], []
        for e in range(len(self.hilbert_function(cutoff)) + 1):
            sl = self.slice(e)
            shifts = (_shift_table(self.ctx, e, i) for i in range(self.ctx.dim))
            lifted = {s[p] for s in shifts for p in prev}
            gens += [sl.monomial_basis[c] for c in sl._pivots if c not in lifted]
            prev = sl._pivots
        return MonomialIdeal.from_generators(self.ctx, gens)

    def equals(self, other: "HomogeneousIdealPresentation") -> bool:
        """Slice-by-slice row space equality through the last generator degree,
        compared on the slices' integer echelon rows."""
        if self.ctx != other.ctx:
            raise AmbientMismatchError("ideal comparison across contexts")
        top = max(self.max_generator_degree(), other.max_generator_degree())
        for e in range(top + 1):
            if self.slice(e)._rows != other.slice(e)._rows:
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
        return Polynomial(ctx, {ev: c for ev, c in zip(self.basis_monomials, self.coords) if c})

    def __str__(self) -> str:
        return str(self.polynomial())


def ideal_equals(a: HomogeneousIdealPresentation, b: HomogeneousIdealPresentation) -> bool:
    return a.equals(b)


@lru_cache(maxsize=CACHE_SIZE)
def _shift_table(ctx: Context, e: int, i: int) -> tuple[int, ...]:
    """The column of x_i * m among the degree-e monomials, for each degree-(e-1)
    monomial m, both LEX-descending: m -> x_i * m keeps the order and maps
    onto the monomials divisible by x_i, so it lists their columns."""
    return tuple(c for c, ev in enumerate(monomials_of_degree(ctx, e)) if ev.coords[i])


def _assemble_minimal(ctx: Context, kernel_fn, max_degree: int):
    """The ideal given by minimal generators, built degree by degree.

    kernel_fn(columns) is a basis of I_e's vectors on some degree-e monomials
    (LEX-descending), keyed by position.  x_i keeps the LEX order, so lifting
    the previous degree's rows shifts their pivots: lifts with distinct leads
    span L', and I_e is L' plus the kernel on the columns S it leaves free.
    A lift of a unit row (a monomial of I) is a unit row, so those enter the
    span in one step; only the other lifts are eliminated.  Pivots are
    carried forward: each degree hands the next its unit rows' pivots and its
    other rows with their pivots, in pivot order.  A stored row leads at its
    pivot (``SpanBuilder`` keys a row by its lowest column and back-elimination
    only changes higher ones), so x_i's lift of row p leads at s[p], s the
    shift table, and no row is scanned for its lead.  A lift that is
    not a unit row but leads where a unit lift does is one of the other
    lifts, which are added up to dim I_e; one dimension left is a generator
    read off the kernel on S, two or more are read off the full kernel in
    order, each the echelon row the span stores for it.  The span, now I_e,
    is the degree-e slice.  Generators do not depend on the order lifts
    enter: before any is read the span is R_1*I_(e-1), whose echelon rows
    are unique, and S and the full-kernel condition depend only on the
    leads.  Raises ``DomainError`` first if degree ``max_degree`` has over
    ``MAX_SLICE_COLUMNS`` monomials.
    """
    _check_slice_size(ctx, max_degree)
    gens, slices = [], {}
    unit_pivots, pairs = [], []  # degree e-1's unit rows' pivots, other (pivot, row)s
    for e in range(max_degree + 1):
        basis = monomials_of_degree(ctx, e)
        span, shifts = SpanBuilder(), [_shift_table(ctx, e, i) for i in range(ctx.dim)]
        units = {s[p] for s in shifts for p in unit_pivots}
        span.add_units(units)
        leads = [s[p] for s in shifts for p, _ in pairs]  # lift n = i*len(pairs) + r

        def lift(n):  # x_i times row r of degree e - 1, made only when it is added
            s, row = shifts[n // len(pairs)], pairs[n % len(pairs)][1]
            return {s[j]: c for j, c in row.items()}

        owner = {lead: n for n, lead in enumerate(leads) if lead not in units}  # one lift per lead
        for lead in sorted(owner, reverse=True):  # leads descending: no back-elimination
            span.add(lift(owner[lead]))
        free = [c for c in range(len(basis)) if c not in owner and c not in units]
        kernel = [{free[j]: x for j, x in v.items()} for v in kernel_fn([basis[c] for c in free])]
        dim = len(span.rows) + len(kernel)
        for n, lead in enumerate(leads):
            if len(span.rows) == dim:
                break  # the span is already all of I_e
            if owner.get(lead) != n:
                span.add(lift(n))
        if (unit_pivots or pairs) and dim - len(span.rows) > 1:
            kernel = kernel_fn(basis)
        for vec in kernel:
            if len(span.rows) == dim:
                break
            row = span.add(vec)
            if row:  # a generator, positive at its LEX-leading (lowest) column
                gens.append(Polynomial(ctx, {basis[c]: v for c, v in row.items()}))
        del kernel  # as large as the slice: free it before making the slice
        slices[e] = GradedSlice(e, basis, span.rows)
        unit_pivots = [p for p in slices[e]._pivots if len(span.rows[p]) == 1]
        pairs = [(p, span.rows[p]) for p in slices[e]._pivots if len(span.rows[p]) > 1]
    ideal = HomogeneousIdealPresentation(ctx, gens)
    ideal._slices = slices
    return ideal


def power_ideal(ctx: Context, k: int) -> MonomialIdeal:
    """(x_1^k, ..., x_d^k)."""
    _reduced_mod_power(k)
    powers = [tuple(k * (j == i) for j in range(ctx.dim)) for i in range(ctx.dim)]
    return MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, c) for c in powers])


def reduce_mod_power_ideal(p: Polynomial, k: int) -> Polynomial:
    """Drop the terms of p lying in (x_1^k, ..., x_d^k); p itself if none does."""
    kept = {ev: c for ev, c in p.terms() if max(ev.coords) < k}
    return p if len(kept) == len(p.support()) else Polynomial(p.ctx, kept)


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
    ctx, p_terms = p.ctx, _numerators(p_red)[0]
    top = ctx.dim * (k - 1) - p_red.homogeneous_degree()  # top degree of R/I

    def image(mc):  # the terms of m*p inside the box [0, k-1]^d
        return [(t, a) for s, a in p_terms if max(t := tuple(map(add, mc, s))) < k]

    return _assemble_minimal(ctx, lambda cols: left_kernel(*_images(cols, image)), top + 1)


def ann_partial(q: Polynomial, operator_ctx: Context | None = None) -> HomogeneousIdealPresentation:
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

    terms = _numerators(q)[0]
    return _assemble_minimal(ctx, lambda cols: left_kernel(*_catalecticant(terms, cols)), m_deg + 1)


def _images(monomials, image) -> tuple[list[dict[int, int]], int]:
    """A linear map on the span of some degree-e monomials, image(m) the
    (exponent, coefficient) terms of the image of a monomial's coordinates,
    as one sparse row per monomial, in the given order (``left_kernel``'s
    rows), with a column per exponent hit, and their width."""
    at: dict[tuple[int, ...], int] = {}
    rows = [{at.setdefault(t, len(at)): c for t, c in image(m.coords)} for m in monomials]
    return rows, len(at)


def _catalecticant(terms, monomials) -> tuple[list[dict[int, int]], int]:
    """The integer catalecticant Cat_e(f), the matrix of R_e -> S_(deg f - e),
    m -> m(d/dt) f, for f given by the terms of ``_numerators(f)`` (f times
    the lcm of its denominators, computed once per build), on the given
    degree-e monomials (all of R_e's, or some), as ``_images``: one row per
    monomial m, in the given order.  A term c*t^s of f with s >= m puts
    c * prod perm(s_i, m_i) in row m, at the column of s - m.
    """

    def image(mc):
        for s, c in terms:
            u = tuple(map(sub, s, mc))
            if min(u) >= 0:
                yield u, c * prod(map(perm, s, mc))

    return _images(monomials, image)
