"""Exact rational row reduction with an integer core.

There is one elimination loop, ``SpanBuilder.add``; ``rref``, ``rank``,
``nullspace`` and ``left_kernel`` run on it.  Rows enter as rationals or
integers and are scaled to primitive integer vectors.  Elimination is
fraction-free (Bareiss, Math. Comp. 22, 1968): clearing column p of a row r
against an echelon row with pivot a there replaces r by
(a/g)*r - (r[p]/g)*row with g = gcd(a, r[p]), then divides r by its content.
Integer echelon rows are kept zero in every other row's pivot column, so
each is its RREF row times the pivot; ``rref`` is the echelon form of the
span of its rows, which is unique, normalized to unit pivots.  Kernel
vectors are integer vectors read off the integer rows.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm


def _primitive(ints: list[int]) -> list[int]:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _intify(row) -> list[int]:
    """Scale a row of ints and Fractions to a primitive integer row (content 1)."""
    try:
        return _primitive(list(row))  # gcd refuses a Fraction
    except TypeError:
        mult = lcm(*[x.denominator for x in row])
        return _primitive([x.numerator * (mult // x.denominator) for x in row])


def _eliminate(vec: list[int], row: list[int], p: int) -> list[int]:
    """The primitive row (a/g)*vec - (b/g)*row, which is zero in column p
    (a = row[p], b = vec[p], g = gcd(a, b))."""
    g = gcd(row[p], vec[p])
    a, b = row[p] // g, vec[p] // g
    return _primitive([a * x - b * y for x, y in zip(vec, row)])


def _span(rows, ncols: int) -> "SpanBuilder":
    """A ``SpanBuilder`` fed the nonzero rows one at a time; once the span has
    full rank every later row reduces to zero, so the rest are skipped."""
    span = SpanBuilder(ncols)
    for row in rows:
        if len(span.pivots) == ncols:
            break
        if any(row):
            span.add(row)
    return span


def rref(rows, ncols: int) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form over Q: the RREF of the span of ``rows``.

    Returns the nonzero rows as tuples (each with pivot 1, zeros above and
    below every pivot) and the list of pivot column indices, in order.
    """
    span = _span(rows, ncols)
    return span.reduced, span.pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols: int) -> list[list[int]]:
    """Basis of {x : A x = 0}, one primitive integer vector per free column f,
    in column order: a positive multiple of f's RREF basis vector (1 at f,
    minus the RREF's column f at the pivots), so its last nonzero is at f."""
    span = _span(rows, ncols)
    pivot_set = set(span.pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = [(p, row[free], row[p]) for row, p in zip(span.rows, span.pivots) if row[free]]
        mult = lcm(*[a for _, _, a in hits])
        vec = [0] * ncols
        vec[free] = mult
        for p, b, a in hits:
            vec[p] = -b * (mult // a)
        basis.append(_primitive(vec))
    return basis


def left_kernel(rows, ncols: int) -> list[list[int]]:
    """Basis of {c : sum_i c_i row_i = 0}, as ``nullspace`` of the transpose."""
    return nullspace(list(zip(*rows)), len(rows))


def reduce_vector(vec, rows, pivots) -> list[int]:
    """Remainder of vec modulo the span of integer echelon rows
    (``SpanBuilder.rows``, each zero in the other rows' pivot columns), as a
    primitive integer vector; it is unique up to a nonzero scalar."""
    out = _intify(vec)
    for row, p in zip(rows, pivots):
        if out[p]:
            out = _eliminate(out, row, p)
    return out


class SpanBuilder:
    """Incrementally maintained integer echelon form of a growing set of
    rows; ``add`` is the module's one elimination loop.

    ``rows`` are primitive integer rows, ordered by their pivot columns
    ``pivots``, each zero in every other row's pivot column: the RREF rows up
    to their pivot scalars.  ``reduced`` is the RREF itself.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec) -> bool:
        """Add a vector to the span; returns True if it was independent."""
        rem = reduce_vector(vec, self.rows, self.pivots)
        lead = next((i for i, x in enumerate(rem) if x), None)
        if lead is None:
            return False
        for k, row in enumerate(self.rows):
            if row[lead]:
                self.rows[k] = _eliminate(row, rem, lead)
        at = bisect(self.pivots, lead)
        self.rows.insert(at, rem)
        self.pivots.insert(at, lead)
        return True

    @property
    def reduced(self) -> list[tuple[Fraction, ...]]:
        """The RREF of the span: the integer rows divided by their pivots."""
        zero = Fraction(0)
        return [tuple([Fraction(v, r[p]) if v else zero for v in r])
                for r, p in zip(self.rows, self.pivots)]
