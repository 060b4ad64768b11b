"""Degree-by-degree linear algebra over Q for homogeneous artinian ideals.

Instead of a Groebner-basis engine, each graded slice of an ideal is a
Macaulay matrix: rows span the degree-e piece, columns are the degree-e
monomials in LEX-descending order, and row reduction makes the pivot of
every row its LEX-leading monomial.  That is enough to read off Hilbert
functions, socles, initial ideals, colon ideals against power ideals and
apolarity annihilators at desk scale.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, inf, lcm
from operator import add

from .errors import AmbientMismatchError, DomainError, NotArtinianError
from .exponents import CACHE_SIZE, Context, ExponentVector, monomials_of_degree
from .linalg import SpanBuilder, left_kernel, new_leads, reduce_vector, rref
from .monomial_ideal import MonomialIdeal
from .polynomial import Polynomial, _divided, _numerators

# The most columns, binomial(e + d - 1, d - 1) in degree e, that a slice may
# have, whether built from generators or by colon_power_ideal / ann_partial
# (up to their top degree); larger requests are refused before allocation.
MAX_SLICE_COLUMNS = 5000


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
    ``pivot_monomials`` (the degree-e piece of the LEX initial ideal),
    ``standard_monomials`` and ``denominator``, the one scale of its ``coset``s.
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
            row, dense = self._rows[p], [Fraction(0)] * len(self.monomial_basis)
            for c, v in row.items():
                dense[c] = Fraction(v, row[p])
            out.append(tuple(dense))
        return tuple(out)

    @cached_property
    def pivot_monomials(self) -> frozenset[ExponentVector]:
        return frozenset(self.monomial_basis[c] for c in self._pivots)

    @cached_property
    def _std_columns(self) -> dict[int, int]:
        std = [c for c in range(len(self.monomial_basis)) if c not in self._rows]
        return {c: i for i, c in enumerate(std)}

    @cached_property
    def _columns(self) -> dict[ExponentVector, int]:
        return {ev: c for c, ev in enumerate(self.monomial_basis)}

    @property
    def standard_columns(self):  # the positions of standard_monomials, ascending
        return self._std_columns.keys()

    @cached_property
    def standard_monomials(self) -> tuple[ExponentVector, ...]:
        return tuple(self.monomial_basis[c] for c in self._std_columns)

    @cached_property
    def denominator(self) -> int:
        """The lcm L of the echelon rows' pivot entries: every coset
        coordinate of every monomial of the slice is an integer over L."""
        return lcm(*[row[p] for p, row in self._rows.items()])

    def coset(self, c: int) -> dict[int, int]:
        """The class of the column-c monomial, {standard position: int} over
        ``denominator`` L: L at its own position if c is standard, else -v*(L/a)
        at each entry v off c of the echelon row led by a at c, 0 at other pivots."""
        std, row = self._std_columns, self._rows.get(c)
        if row is None:
            return {std[c]: self.denominator}
        scale = self.denominator // row[c]
        return {std[j]: -v * scale for j, v in row.items() if j != c}

    def reduce_monomial(self, ev: ExponentVector) -> list[Fraction]:
        """Coordinates of a degree-e monomial's coset over the standard monomials."""
        if ev not in self._columns:
            raise DomainError("monomial is not of the slice's degree and context")
        coset = self.coset(self._columns[ev])
        return [Fraction(coset.get(i, 0), self.denominator) for i in range(self.hilbert_value)]


class _Multiples:
    """The rows m*g of degree e's Macaulay matrix (g a generator, m a monomial),
    each made dense when reached, as ``rref`` takes them.  They stay dense, with
    a ``len``, for ``perfbench``'s ``_count_rref``, which reads them densely,
    until slices stop being built by ``rref`` (ROADMAP item 1 part A)."""

    def __init__(self, ctx: Context, generators, degrees, e: int):
        self.col = {ev.coords: i for i, ev in enumerate(monomials_of_degree(ctx, e))}
        self.blocks = [(_numerators(g)[0], monomials_of_degree(ctx, e - n))
                       for g, n in zip(generators, degrees) if n <= e]

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
    """A homogeneous ideal given by generators, with cached graded slices.
    ``_assemble_minimal``'s build runs through a slice's degree when that
    slice is first read, and to its end when every generator is needed."""

    def __init__(self, ctx: Context, generators):
        self.ctx = ctx
        gens, degrees = [], []
        for g in generators:
            if g.ctx != ctx:
                raise AmbientMismatchError("generator from a different context")
            if not g.is_zero:
                degrees.append(g.homogeneous_degree())  # raises DomainError when inhomogeneous
                gens.append(g)
        self._gens: tuple[Polynomial, ...] = tuple(gens)
        self._degrees: tuple[int, ...] = tuple(degrees)
        self._slices: dict[int, GradedSlice] = {}
        self._build: _Build | None = None

    @classmethod
    def from_monomial_ideal(cls, ideal: MonomialIdeal) -> "HomogeneousIdealPresentation":
        return cls(ideal.ctx, [Polynomial.monomial(g) for g in ideal.gens])

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        self._pull()
        return self._gens

    def max_generator_degree(self) -> int:
        self._pull()
        return max(self._degrees, default=0)

    def _pull(self, e: float = inf) -> None:
        """Run the unfinished build through degree e (all by default); a degree
        is kept only once complete, so one that raises is run again on read."""
        while self._build and self._build.next <= e:
            b = self._build  # the slice below is None at degree 0
            gens, sl = _minimal_degree(self.ctx, b.kernel_fn, b.next, self._slices.get(b.next - 1))
            self._gens += gens
            self._degrees += (b.next,) * len(gens)
            self._slices[b.next] = sl
            self._build = _Build(b.kernel_fn, b.top, b.next + 1) if b.next < b.top else None

    def slice(self, e: int) -> GradedSlice:
        if e < 0:
            raise DomainError("slice degree must be >= 0")
        if e not in self._slices:
            _check_slice_size(self.ctx, e)
            self._pull(e)
        if e in self._slices:
            return self._slices[e]
        basis = monomials_of_degree(self.ctx, e)  # no build, or e above its top
        rows = rref(_Multiples(self.ctx, self._gens, self._degrees, e), len(basis))
        self._slices[e] = GradedSlice(e, basis, rows)
        return self._slices[e]

    def hilbert_function(self, cutoff: int | None = None) -> list[int]:
        """Values of dim (R/I)_e from 0 until the first vanishing degree."""
        if cutoff is None:
            self._pull()  # the default cutoff reads every generator degree
            cutoff = sum(self._degrees) + self.ctx.dim
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
        of degree-e docle points.  Row s holds, in block u, the integer
        ``coset`` of x_u*s in degree e+1, all over that slice's one
        ``denominator``, so the kernel is the unscaled one; each class is its
        vector divided by its last nonzero, at its largest index."""
        classes: list[SocleClass] = []
        for e in range(len(self.hilbert_function(cutoff))):
            sl, nxt = self.slice(e), self.slice(e + 1)  # both built by hilbert_function
            shifts = [_shift_table(self.ctx, e + 1, u) for u in range(self.ctx.dim)]
            if not any(all(shift[c] in nxt._rows for shift in shifts) for c in sl._std_columns):
                continue  # no docle point of in_<(I) in degree e
            images = [[shift[c] for shift in shifts] for c in sl._std_columns]  # x_u*s
            h = nxt.hilbert_value
            rows = [{u * h + i: v for u, j in enumerate(img) for i, v in nxt.coset(j).items()}
                    for img in images]
            for vec in left_kernel(rows, self.ctx.dim * h):
                free = vec[max(vec)]
                classes.append(SocleClass(e, sl.standard_monomials, [
                    Fraction(vec.get(j, 0), free) for j in range(len(images))]))
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
        """Slice-by-slice equality of the integer echelon rows, upward: False
        at the first degree that differs, True past both sides' generator
        degree bounds (an unfinished build's top degree, else the largest
        generator degree), so neither build is finished to learn its bound."""
        if self.ctx != other.ctx:
            raise AmbientMismatchError("ideal comparison across contexts")
        top = max(x._build.top if x._build else x.max_generator_degree() for x in (self, other))
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


def _pack(coords, b: int) -> int:
    """The packed code sum_i c_i * 2^(b*i) of an exponent vector, in b-bit
    fields: while no field leaves [0, 2^b), adding or subtracting codes adds
    or subtracts exponents, and a field's top bit compares it with 2^(b-1)."""
    return sum(c << b * i for i, c in enumerate(coords))


@lru_cache(maxsize=CACHE_SIZE)
def _codes(ctx: Context, e: int, b: int) -> tuple[int, ...]:
    """The ``_pack`` code of each degree-e monomial, LEX-descending."""
    return tuple(_pack(ev.coords, b) for ev in monomials_of_degree(ctx, e))


# An unfinished _assemble_minimal build: the degree it runs next.  Its state
# is its slices: each degree lifts the rows of the slice stored below it.
_Build = namedtuple("_Build", "kernel_fn top next")


def _assemble_minimal(ctx: Context, kernel_fn, max_degree: int):
    """The ideal given by minimal generators, one ``_minimal_degree`` step per
    degree up to ``max_degree``, each run when a slice first needs it.

    kernel_fn(e, columns) is a basis of I_e's vectors on the degree-e monomials
    at the given positions (LEX-descending), in the given order, as
    ``left_kernel`` returns it, keyed by index into ``columns``.  x_i keeps
    the LEX order, so lifting the slice below shifts its pivots: a stored
    row leads at its pivot, so x_i's lift of row p leads at s[p], s the
    shift table, and no row is scanned for its lead.  Each degree reads its
    lifts from the degree-(e-1) slice the build stored, its unit rows and
    its other rows in pivot order; the build keeps no rows of its own.
    Raises ``DomainError`` at the call, before any kernel runs, if degree
    ``max_degree`` has over ``MAX_SLICE_COLUMNS`` monomials.
    """
    _check_slice_size(ctx, max_degree)
    ideal = HomogeneousIdealPresentation(ctx, ())
    ideal._build = _Build(kernel_fn, max_degree, 0)
    return ideal


def _minimal_degree(ctx: Context, kernel_fn, e: int, below: GradedSlice | None):
    """Degree e of ``_assemble_minimal``'s build, lifted from ``below``, the
    degree-(e-1) slice (None at degree 0): the new generators and the slice.

    Unit lifts are the rows {u: 1}; the other lifts drop the unit columns.
    Each lead that is no unit column has one owner lift, by its lead before
    any column is dropped.  The kernel on the other, free, columns listed
    highest first is the rest of the slice's RREF (``left_kernel`` read in
    reverse).  The generators are what I_e adds to R_1*I_(e-1): the kernel
    pivots that the other lifts, ranked lead-only over the owner lifts,
    miss.  With at most one, each owner lift reduced against the rows made
    before it, in descending lead order, is its RREF row, and the one
    pivot's row is the generator.  Two or more, or a degree with no lifts,
    take ``_span_read`` of the full kernel over the lifts.
    """
    basis = monomials_of_degree(ctx, e)
    if below is None or not below._rows:  # no lifts: every kernel vector is a generator
        rows, found = _span_read(kernel_fn(e, range(len(basis))), (), (), inf)
    else:
        rows, found = _lifted_slice(ctx, kernel_fn, e, len(basis), below)
    gens = tuple([Polynomial._from_ints(ctx, [(basis[c].coords, v) for c, v in row.items()], 1)
                  for row in found])
    return gens, GradedSlice(e, basis, rows)


def _lifted_slice(ctx: Context, kernel_fn, e: int, width: int, below: GradedSlice):
    """``_minimal_degree``'s slice rows of a degree with lifts, and the
    rows of its generators."""
    shifts = [_shift_table(ctx, e, i) for i in range(ctx.dim)]
    unit_pivots = [p for p in below._pivots if len(below._rows[p]) == 1]
    pivots = [p for p in below._pivots if len(below._rows[p]) > 1]
    units = {s[p] for s in shifts for p in unit_pivots}
    leads = [s[p] for s in shifts for p in pivots]  # lift n = i*len(pivots) + r

    def lift(n):  # x_i times row r of degree e - 1 off the unit columns, made when used
        s, row = shifts[n // len(pivots)], below._rows[pivots[n % len(pivots)]]
        return {c: v for j, v in row.items() if (c := s[j]) not in units}

    owner = {lead: n for n, lead in enumerate(leads) if lead not in units}  # one lift per lead
    free = [c for c in reversed(range(width)) if c not in owner and c not in units]
    rows = {}  # the slice's RREF rows: the kernel on the free columns, then the owners
    for v in kernel_fn(e, free):
        rows[free[max(v)]] = {free[j]: x for j, x in v.items()}
    owned = {lead: lift(owner[lead]) for lead in sorted(owner, reverse=True)}
    left = list(rows)  # the kernel pivots, less those the other lifts reach
    if left:
        others = (lift(n) for n, lead in enumerate(leads) if owner.get(lead) != n)
        ranked = new_leads(others, owned, len(left))
        left = [q for q in left if q not in ranked]
    if len(left) > 1:
        return _span_read(kernel_fn(e, range(width)), units, (*owned.values(), *ranked.values()),
                          len(left))
    for lead, row in owned.items():
        rows[lead] = reduce_vector(row, rows)
    for u in units:
        rows[u] = {u: 1}
    return rows, [rows[q] for q in left]


def _span_read(kernel, units, seeds, n):
    """The kernel vectors read in order into a ``SpanBuilder`` seeded with the
    unit rows at ``units`` and then the ``seeds``, until n of them are new to
    it: the span's rows, which end as the slice, and the echelon rows it
    stored for the new vectors, positive at their LEX-leading (lowest)
    column, which are the generators."""
    span = SpanBuilder()
    span.add_units(units)
    for row in seeds:
        span.add(row)
    found = []
    for vec in kernel:
        if len(found) == n:
            break
        row = span.add(vec)
        if row:
            found.append(row)
    return span.rows, found


def power_ideal(ctx: Context, k: int) -> MonomialIdeal:
    """(x_1^k, ..., x_d^k)."""
    _reduced_mod_power(k)
    powers = [tuple(k * (j == i) for j in range(ctx.dim)) for i in range(ctx.dim)]
    return MonomialIdeal.from_generators(ctx, [ExponentVector(ctx, c) for c in powers])


def reduce_mod_power_ideal(p: Polynomial, k: int) -> Polynomial:
    """Drop the terms of p lying in (x_1^k, ..., x_d^k), read off p's integer
    form; p itself if none does."""
    pairs, den = _numerators(p)
    kept = [(s, c) for s, c in pairs if max(s) < k]
    return p if len(kept) == len(pairs) else Polynomial._from_ints(p.ctx, kept, den)


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
    the way, as slices are read.  The result is artinian Gorenstein.
    m*x^s is in the box [0, k-1]^d iff m <= (k-1)*1 - s, so the map is the
    ``_contraction`` of p's reflection sum_s a_s t^((k-1)*1 - s) (Macaulay
    duality; hence the colon ideal is Ann(antipodal(p))).  Its key for m*x^s
    is a constant minus code(m*x^s), which orders as LEX does, reversed, so
    each row leads at its LEX-largest product in the box.
    """
    p_red = _reduced_mod_power(k, p)
    ctx = p.ctx
    top = ctx.dim * (k - 1) - p_red.homogeneous_degree()  # top degree of R/I
    reflected = [(tuple(k - 1 - c for c in s), a) for s, a in _numerators(p_red)[0]]
    return _assemble_minimal(ctx, _kernel_of(_contraction(ctx, reflected, top)), top + 1)


def ann_partial(q: Polynomial, operator_ctx: Context | None = None) -> HomogeneousIdealPresentation:
    """The apolarity annihilator Ann(q) = {f : f(d/dt_1, ..., d/dt_d) q = 0}.

    From the catalecticant maps R_e -> S_(deg q - e) of the differential
    action, each degree up to deg q + 1 built when a slice first needs it.
    """
    m_deg = q.homogeneous_degree()
    if m_deg is None:
        raise DomainError("annihilator of the zero polynomial is undefined")
    ctx = operator_ctx or Context.of_dim(q.ctx.dim)
    if ctx.dim != q.ctx.dim:
        raise AmbientMismatchError("operator and target dimensions differ")
    return _assemble_minimal(ctx, _kernel_of(_catalecticant(ctx, q)), m_deg + 1)


def _catalecticant(ctx: Context, f: Polynomial):
    """The integer catalecticant of f, the ``_contraction`` of ``_divided(f)``:
    the matrix of R_e -> S_(deg f - e), m -> m(d/dt) f, with column u scaled
    by u!.  A term c*t^s with s >= m puts c*s!/u! at u = s - m, so the scaled
    matrix holds w_s there, a positive column scaling, which keeps the rank
    and the left kernel."""
    return _contraction(ctx, _divided(f), f.homogeneous_degree())


def _contraction(ctx: Context, pairs, degree: int):
    """The contraction map of sum_s w_s t^s, ``pairs`` (s, w), made once:
    (e, columns) -> one sparse row per degree-e monomial m of ``ctx`` at the
    given positions (all of R_e's, or some), in the given order, holding w/g
    at the key code(s - m) + guard for each pair with s >= m, g the gcd of
    the w (a common factor, which keeps the rank and the left kernel).  Keys
    are ``_pack`` codes in b-bit fields, sized with 2^(b-1) > max s_i +
    degree + 1 so that no field borrows in any degree up to degree + 1, and
    ``guard`` is their top bits: s >= m iff
    ((code(s) | guard) - code(m)) & guard == guard, and that difference is
    the key.
    """
    g = gcd(*[w for _, w in pairs])
    b = (max(max(s) for s, _ in pairs) + degree + 1).bit_length() + 1
    guard = _pack((1 << b - 1,) * ctx.dim, b)
    packed = [(_pack(s, b) | guard, w // g) for s, w in pairs]

    def rows(e, columns):
        codes = _codes(ctx, e, b)
        return [{u: w for p, w in packed if (u := p - codes[j]) & guard == guard} for j in columns]
    return rows


def _kernel_of(contraction):
    """A build's kernel_fn: the left kernel of the contraction map's rows."""
    def kernel(e, columns):
        rows = contraction(e, columns)
        width = len(set().union(*rows))  # read only by perfbench's _count_left_kernel
        return left_kernel(rows, width)
    return kernel
