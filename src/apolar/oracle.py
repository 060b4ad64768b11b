"""Deliberately naive reference implementations.

Everything here recomputes results of the main modules by full enumeration
and plain dense Gaussian elimination over Fraction, with no shortcuts and
no shared machinery, so that agreement is meaningful.  Guarded for small
instances only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, NotArtinianError
from .exponents import Context, ExponentVector, leq, monomials_of_degree
from .monomial_ideal import Antichain, MonomialIdeal
from .polynomial import Polynomial, diff_action

# The most points, prod(b_i + 1), of a box that brute_docle scans.
MAX_BOX_POINTS = 1_000_000
# The most cells, rows x columns, of one degree's dense matrix in brute_ann
# or in the ideal rows that the other rank counts eliminate.
MAX_ORACLE_CELLS = 250_000


def _check_cells(e: int, rows: int, cols: int) -> None:
    """Refuse a degree-e dense matrix over MAX_ORACLE_CELLS before it is built."""
    if rows * cols > MAX_ORACLE_CELLS:
        raise DomainError(f"degree-{e} oracle matrix has {rows} x {cols} cells, "
                          f"above the limit of {MAX_ORACLE_CELLS}")


def _monomial_count(ctx: Context, e: int) -> int:
    """The number of degree-e monomials, without listing them."""
    return math.comb(e + ctx.dim - 1, e) if e >= 0 else 0


def brute_docle(ideal: MonomialIdeal, box: ExponentVector) -> Antichain:
    """Scan every point below box for the docle conditions, literally."""
    ctx = ideal.ctx
    for g in ideal.gens:
        if not leq(g, box):
            raise DomainError(f"box {box} does not dominate generator {g}")
    points = math.prod(b + 1 for b in box.coords)
    if points > MAX_BOX_POINTS:
        raise DomainError(
            f"box {box} has {points} points, above the limit of {MAX_BOX_POINTS}"
        )
    found = []
    ranges = [range(b + 1) for b in box.coords]
    for coords in itertools.product(*ranges):
        m = ExponentVector(ctx, coords)
        if ideal.contains(m):
            continue
        bumped = [
            ExponentVector(ctx, tuple(c + 1 if j == i else c for j, c in enumerate(coords)))
            for i in range(ctx.dim)
        ]
        if all(ideal.contains(b) for b in bumped):
            found.append(m)
    return Antichain(ctx, tuple(found))


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Plain Gaussian elimination over Fraction; returns nonzero echelon rows."""
    work = [list(map(Fraction, r)) for r in rows]
    ncols = len(work[0]) if work else 0
    lead = 0
    for c in range(ncols):
        src = None
        for i in range(lead, len(work)):
            if work[i][c] != 0:
                src = i
                break
        if src is None:
            continue
        work[lead], work[src] = work[src], work[lead]
        piv = work[lead][c]
        work[lead] = [x / piv for x in work[lead]]
        for i in range(len(work)):
            if i != lead and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[lead])]
        lead += 1
        if lead == len(work):
            break
    return [r for r in work if any(r)]


def _kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Vectors c with sum_i c_i row_i = 0, by eliminating the transpose."""
    nrows = len(rows)
    if nrows == 0:
        return []
    transpose = [[rows[i][c] for i in range(nrows)] for c in range(ncols)]
    ech = _echelon(transpose)
    pivots = []
    for r in ech:
        pivots.append(next(i for i, x in enumerate(r) if x != 0))
    basis = []
    for free in range(nrows):
        if free in pivots:
            continue
        vec = [Fraction(0)] * nrows
        vec[free] = Fraction(1)
        for r, p in zip(ech, pivots):
            vec[p] = -r[free]
        basis.append(vec)
    return basis


def brute_ann(q: Polynomial, max_deg: int, operator_ctx: Context | None = None) -> dict[int, list[Polynomial]]:
    """Kernel bases of the differentiation maps, one degree at a time,
    recomputed by applying the action to every basis monomial."""
    top = q.homogeneous_degree()
    if top is None:
        raise DomainError("annihilator of the zero polynomial is undefined")
    if max_deg < top + 1:
        raise DomainError("max_deg must be at least deg(q) + 1")
    ctx = operator_ctx or Context.of_dim(q.ctx.dim)
    kernels: dict[int, list[Polynomial]] = {}
    for e in range(max_deg + 1):
        n = _monomial_count(ctx, e)  # the kernel basis is n x n
        _check_cells(e, n, max(n, _monomial_count(ctx, top - e)))
        basis = monomials_of_degree(ctx, e)
        images = [diff_action(Polynomial.monomial(m), q) for m in basis]
        support = sorted({ev for img in images for ev in img.support()}, key=lambda ev: ev.coords)
        rows = [[img.coeff(ev) for ev in support] for img in images]
        vectors = _kernel(rows, len(support)) if support else [
            [Fraction(1) if i == j else Fraction(0) for j in range(len(basis))]
            for i in range(len(basis))
        ]
        kernels[e] = [Polynomial(ctx, {m: c for m, c in zip(basis, vec) if c}) for vec in vectors]
    return kernels


def _ideal_rows(gens, ctx: Context, e: int) -> list[list[Fraction]]:
    """Coefficient rows of every monomial multiple of a generator in degree e,
    over the degree-e monomials in ``monomials_of_degree`` order."""
    degrees = [g.homogeneous_degree() for g in gens]
    _check_cells(e, sum(_monomial_count(ctx, e - dg) for dg in degrees), _monomial_count(ctx, e))
    basis = monomials_of_degree(ctx, e)
    rows = []
    for g, dg in zip(gens, degrees):
        if dg > e:
            continue
        for m in monomials_of_degree(ctx, e - dg):
            prod = Polynomial.monomial(m) * g
            rows.append([prod.coeff(ev) for ev in basis])
    return rows


def brute_quotient_dim(generators, cutoff: int | None = None) -> int:
    """dim_K R/I by per-degree rank counting over a spanning set, up to
    ``cutoff`` (by default the sum of the generator degrees plus d)."""
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise NotArtinianError("the zero ideal has an infinite-dimensional quotient")
    ctx = gens[0].ctx
    if cutoff is None:
        cutoff = sum(g.homogeneous_degree() for g in gens) + ctx.dim
    if cutoff < 0:
        raise DomainError("cutoff must be >= 0")
    total = 0
    for e in range(cutoff + 1):
        standard = len(monomials_of_degree(ctx, e)) - len(_echelon(_ideal_rows(gens, ctx, e)))
        if standard == 0:
            return total
        total += standard
    raise NotArtinianError(f"quotient still nonzero at degree {cutoff}")


def brute_socle(generators, cutoff: int) -> dict[int, list[Polynomial]]:
    """A basis of the socle (I : m)_e / I_e for each degree e with (R/I)_e
    nonzero; its length is the socle dimension in degree e.

    The f in R_e with x_u f in I_(e+1) for every u are the kernel of
    f -> (x_u f reduced by the echelon rows of I_(e+1))_u; that kernel,
    reduced by the echelon rows of I_e, spans the socle in normal forms.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise NotArtinianError("the zero ideal has an infinite-dimensional quotient")
    ctx = gens[0].ctx

    def normal_form(vec, ech):
        for r in ech:
            c = vec[next(i for i, x in enumerate(r) if x)]
            vec = [x - c * y for x, y in zip(vec, r)]
        return vec

    socle: dict[int, list[Polynomial]] = {}
    ech = _echelon(_ideal_rows(gens, ctx, 0))
    for e in range(cutoff + 1):
        basis, upper = monomials_of_degree(ctx, e), monomials_of_degree(ctx, e + 1)
        if len(ech) == len(basis):
            return socle
        nxt = _echelon(_ideal_rows(gens, ctx, e + 1))
        coset = {m.coords: normal_form([Fraction(int(n == m)) for n in upper], nxt) for m in upper}
        rows = [
            [x for u in range(ctx.dim)
             for x in coset[tuple(c + (j == u) for j, c in enumerate(m.coords))]]
            for m in basis
        ]
        kernel = [normal_form(v, ech) for v in _kernel(rows, len(rows[0]))]
        socle[e] = [Polynomial(ctx, {m: c for m, c in zip(basis, r) if c}) for r in _echelon(kernel)]
        ech = nxt
    raise NotArtinianError(f"quotient still nonzero at degree {cutoff}")


def brute_series_check(spec, coeffs) -> bool:
    """``series_annihilator_check`` by the literal construction, for a plain
    coefficient tuple a_0, ..., a_M (M the top degree of R/I; zeros allowed).

    f(s) = sum_n a_n s^n with s = t_1 xbar_1 + ... + t_d xbar_d has t^j
    coefficient F[j] = a_n multinomial(n, j) xbar^j, n = |j|, a coset of R/I.
    Row m of degree e is x^m(d/dt) f(s): a block per t^u (|u| <= M - e)
    holding falling(u + m, m) F[u + m].  Its left kernel must be I_e, a_M s^M
    must be nonzero and s^(M+1) zero.
    """
    ctx, top = spec.ctx, spec.top_degree
    if len(coeffs) < top + 1:
        raise DomainError(f"need series coefficients a_0..a_{top}")
    gens = spec.colon_ideal().generators
    ideal_rref = [_echelon(_ideal_rows(gens, ctx, n)) for n in range(top + 2)]
    F = {}
    for n in range(top + 1):
        basis = monomials_of_degree(ctx, n)
        pivot_row = {next(i for i, x in enumerate(r) if x): r for r in ideal_rref[n]}
        free = [c for c in range(len(basis)) if c not in pivot_row]
        for c, j in enumerate(basis):
            coset = ([-pivot_row[c][f] for f in free] if c in pivot_row
                     else [Fraction(int(f == c)) for f in free])
            w = Fraction(coeffs[n]) * math.factorial(n)
            w /= math.prod(map(math.factorial, j.coords))
            F[j.coords] = [w * v for v in coset]
    if not any(any(F[j.coords]) for j in monomials_of_degree(ctx, top)):
        return False
    if len(ideal_rref[top + 1]) < len(monomials_of_degree(ctx, top + 1)):
        return False
    for e in range(top + 1):
        rows = []
        for m in monomials_of_degree(ctx, e):
            row = []
            for n in range(e, top + 1):
                for u in monomials_of_degree(ctx, n - e):
                    j = tuple(uc + mc for uc, mc in zip(u.coords, m.coords))
                    fall = math.prod(map(math.perm, j, m.coords))
                    row.extend(fall * v for v in F[j])
            rows.append(row)
        if _echelon(_kernel(rows, len(rows[0]))) != ideal_rref[e]:
            return False
    return True
