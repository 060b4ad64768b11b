"""Exact rational row reduction on sparse primitive integer rows.

The one place that shapes an integer row: a dict {column: nonzero int},
primitive, positive at its lead once a span stores it.  ``_intify`` makes one
from a dense row or a dict of ints or Fractions, keeping a dict's zeros, so
dict rows fed to elimination hold nonzeros only, except where they enter
``rref`` or ``left_kernel``, which drop zeros.
``SpanBuilder.add``, the one elimination loop under ``rref``, ``rank``,
``_nullspace`` and ``left_kernel``, returns the row it stores; kernel vectors
come back in the same form.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): clearing
column p of r against an echelon row with pivot a there replaces r by
(a/g)*r - (r[p]/g)*row, g = gcd(a, r[p]), then divides by the content; it
touches only the two rows' nonzeros.  Echelon rows have positive pivots and
are zero in every other pivot column: each is its RREF row times a positive
integer, unique for the span.  ``rref`` makes its Fraction rows when read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

_ZERO = Fraction(0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _intify(row) -> dict[int, int]:
    """A dense row, or a dict of its nonzeros, of ints and Fractions as a
    primitive sparse integer row."""
    if not isinstance(row, dict):
        row = {c: row[c] for c in compress(count(), row)}
    try:
        return _primitive(row)  # gcd refuses a Fraction
    except TypeError:
        mult = lcm(*[x.denominator for x in row.values()])
        return _primitive({c: x.numerator * (mult // x.denominator) for c, x in row.items()})


def _eliminate(vec: dict[int, int], row: dict[int, int], p: int) -> dict[int, int]:
    """The primitive row (a/g)*vec - (b/g)*row, which is zero in column p
    (a = row[p], b = vec[p], g = gcd(a, b))."""
    g = gcd(row[p], vec[p])
    a, b = row[p] // g, vec[p] // g
    out = {c: a * v for c, v in vec.items()}
    for c, v in row.items():
        out[c] = out.get(c, 0) - b * v
    return _primitive({c: v for c, v in out.items() if v})


def _span(rows, ncols: int) -> SpanBuilder:
    """A ``SpanBuilder`` fed the nonzero rows one at a time, up to full rank."""
    span = SpanBuilder(ncols)
    for row in map(_intify, rows):
        if len(span.rows) == ncols:
            break
        if row:
            span.add(row)
    return span


def rref(rows, ncols: int) -> tuple[ReducedRows, list[int]]:
    """The RREF over Q of the span of ``rows`` (dict rows' zeros dropped): its
    nonzero rows (pivot 1, zeros above and below every pivot) and pivot columns."""
    rows = ({c: v for c, v in r.items() if v} if isinstance(r, dict) else r for r in rows)
    reduced = _span(rows, ncols).reduced
    return reduced, reduced.pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def _nullspace(rows, ncols: int) -> list[dict[int, int]]:
    """Basis of {x : A x = 0} (rows dense, or dicts of their nonzeros only),
    one sparse primitive integer vector per free column f, in column order: a
    positive multiple of f's RREF basis vector (1 at f, minus the RREF's
    column f at the pivots)."""
    span = _span(rows, ncols)
    hits = {f: [] for f in range(ncols) if f not in span.rows}  # (pivot, entry, pivot entry)
    for p, row in span.rows.items():
        for c, b in row.items():
            if c != p:
                hits[c].append((p, b, row[p]))
    basis = []
    for free, col in hits.items():
        mult = lcm(*[a for _, _, a in col])
        basis.append(_primitive({free: mult, **{p: -b * (mult // a) for p, b, a in col}}))
    return basis


def left_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """Basis of {c : sum_i c_i row_i = 0}, as ``_nullspace`` of the transpose,
    which is made from the {column: value} rows' nonzeros."""
    transpose = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v:
                transpose[c][i] = v
    return _nullspace(transpose, len(rows))


def reduce_vector(vec, rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """Remainder of vec (dense, or a dict of its nonzeros only) modulo the
    span of ``SpanBuilder.rows``: a primitive sparse integer row, a positive
    multiple of vec minus a combination of the rows, zero at every pivot.
    Clearing a pivot column leaves the other pivot columns as they were, so
    only those in vec's support are cleared."""
    out = _intify(vec)
    for p in [c for c in out if c in rows]:
        out = _eliminate(out, rows[p], p)
    return out


class SpanBuilder:
    """Incrementally maintained integer echelon form of a growing set of rows.

    ``rows`` maps each pivot column to its echelon row: primitive, sparse,
    positive at its pivot and zero in every other pivot column.  ``_seen``
    holds every column any row has had a nonzero in; a new pivot outside it
    needs no back-elimination.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self._seen: set[int] = set()

    @property
    def pivots(self) -> list[int]:
        return sorted(self.rows)

    @property
    def reduced(self) -> ReducedRows:
        return ReducedRows([self.rows[p] for p in self.pivots], self.ncols)

    def add(self, vec) -> dict[int, int] | None:
        """Add a vector (dense, or a dict of its nonzeros only) to the span.
        Returns the echelon row stored for it, primitive and positive at its
        lead, or None when vec is dependent."""
        rem = reduce_vector(vec, self.rows)
        if not rem:
            return None
        lead = min(rem)
        if rem[lead] < 0:
            rem = {c: -v for c, v in rem.items()}
        if lead in self._seen:
            for p, row in self.rows.items():
                if lead in row:
                    self.rows[p] = _eliminate(row, rem, lead)
        self._seen.update(rem)
        self.rows[lead] = rem
        return rem


class ReducedRows:
    """The RREF rows of a span as a sequence, each a tuple of Fractions made
    from its integer echelon row when read.  The integer ``rows`` (in pivot order)
    are unique for the span, so equality needs no Fraction."""

    def __init__(self, rows: list[dict[int, int]], ncols: int):
        self.rows, self.ncols = rows, ncols
        self.pivots = [min(row) for row in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        row, out = self.rows[i], [_ZERO] * self.ncols
        for c, v in row.items():
            out[c] = Fraction(v, row[self.pivots[i]])
        return tuple(out)

    def __eq__(self, other) -> bool:
        same_shape = isinstance(other, ReducedRows) and self.ncols == other.ncols
        return same_shape and self.rows == other.rows
