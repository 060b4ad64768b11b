"""Exact rational row reduction on sparse primitive integer rows.

The one place that shapes an integer row: a dict {column: nonzero int},
primitive, positive at its lead once a span stores it.  ``_intify`` makes one
from a dense row or a dict of ints or Fractions, keeping a dict's zeros, so
dict rows fed to elimination hold nonzeros only, except where they enter
``rref``, ``rank`` or ``left_kernel``, which drop zeros.
``SpanBuilder.rows``, {pivot column: row}, is the one echelon format: the
full integer RREF, which ``rref`` returns for a slice to store.  ``rank``
and ``left_kernel`` read only the leads or the dependent rows, so
``_lead_echelon`` reduces each row only at its lead, with no
back-substitution.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): clearing
column p of r against an echelon row with pivot a there replaces r by
(a/g)*r - (r[p]/g)*row, g = gcd(a, r[p]), touching only the two rows'
nonzeros (against a unit row it drops r[p]).  Each step scales r by a
positive factor, so ``reduce_vector`` divides by the content once, at the
end.  Echelon rows have positive pivots and are zero in every other pivot
column: each is its RREF row times a positive integer, unique for the span.
Fractions may come in; none is made here.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _cleared(row) -> tuple[dict[int, int], int]:
    """A dense row (its nonzeros), or a dict, of ints and Fractions, times the
    lcm m of its denominators, as a dict of ints, and m."""
    if not isinstance(row, dict):
        row = {c: row[c] for c in compress(count(), row)}
    try:
        gcd(*row.values())  # refuses a Fraction
        return row, 1
    except TypeError:
        mult = lcm(*[x.denominator for x in row.values()])
        return {c: x.numerator * (mult // x.denominator) for c, x in row.items()}, mult


def _intify(row) -> dict[int, int]:
    """A dense row, or a dict of its nonzeros, of ints and Fractions as a
    primitive sparse integer row."""
    return _primitive(_cleared(row)[0])


def _difference(vec: dict[int, int], row: dict[int, int], a: int, b: int) -> dict[int, int]:
    """The nonzeros of a*vec - b*row."""
    out = {c: a * v for c, v in vec.items()}
    for c, v in row.items():
        out[c] = out.get(c, 0) - b * v
    return {c: v for c, v in out.items() if v}


def _eliminate(vec: dict[int, int], row: dict[int, int], p: int) -> dict[int, int]:
    """The row (a/g)*vec - (b/g)*row, which is zero in column p (a = row[p],
    b = vec[p], g = gcd(a, b)), not made primitive; vec without p when row
    is the unit row {p: 1}."""
    if len(row) == 1:
        out = vec.copy()
        del out[p]
        return out
    g = gcd(row[p], vec[p])
    return _difference(vec, row, row[p] // g, vec[p] // g)


def rref(rows, ncols: int) -> dict[int, dict[int, int]]:
    """The integer RREF of the span of ``rows`` (dense, or dicts whose zeros
    are dropped) in ``ncols`` columns, as ``SpanBuilder.rows``: {pivot column:
    primitive integer row, positive at the pivot, zero in every other pivot
    column}, each row its RREF row over Q times a positive integer."""
    span = SpanBuilder()
    for row in rows:
        if len(span.rows) == ncols:
            break
        if isinstance(row, dict):
            row = {c: v for c, v in row.items() if v}
        if row:
            span.add(row)
    return span.rows


def _lead_echelon(rows, combine: bool) -> tuple[int, list[dict[int, int]]]:
    """Lead-only elimination of the rows in order (dense, or dicts whose zeros
    are dropped): each is reduced at its lead against the stored row there
    until its lead is new (it is stored) or it vanishes.  Returns the rank
    and, when ``combine``, each vanished row i's combination, carried from
    {i: m} (m clears i's denominators) by positive steps and made primitive:
    supported on i and the stored rows before it, it is the RREF kernel
    vector of the transpose at free column i.
    """
    stored: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            row = {c: v for c, v in row.items() if v}
        vec, mult = _cleared(row)
        comb = {i: mult} if combine else {}
        while vec:
            lead = min(vec)
            if lead not in stored:
                stored[lead] = vec, comb
                break
            srow, scomb = stored[lead]
            g = gcd(srow[lead], vec[lead]) * (1 if srow[lead] > 0 else -1)
            a, b = srow[lead] // g, vec[lead] // g
            vec, comb = _difference(vec, srow, a, b), _difference(comb, scomb, a, b)
            if a > 1 and vec:  # the joint content of row and combination
                g = gcd(*vec.values(), *comb.values())
                if g > 1:
                    vec = {c: v // g for c, v in vec.items()}
                    comb = {c: v // g for c, v in comb.items()}
        if combine and not vec:
            kernel.append(_primitive(comb))
    return len(stored), kernel


def rank(rows, ncols: int) -> int:
    """The rank over Q of ``rows`` (dense, or dicts whose zeros are dropped)."""
    return _lead_echelon(rows, False)[0]


def left_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """Basis of {c : sum_i c_i row_i = 0} for {column: value} rows (zeros
    dropped): per row i dependent on the rows before it, in order, a sparse
    primitive integer vector positive at i, the transpose's RREF kernel basis."""
    return _lead_echelon(rows, True)[1]


def reduce_vector(vec, rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """Remainder of vec (dense, or a dict of its nonzeros only) modulo the
    span of ``SpanBuilder.rows``: a primitive sparse integer row, a positive
    multiple of vec minus a combination of the rows, zero at every pivot.
    Clearing a pivot column leaves the other pivot columns as they were, so
    only those in vec's support are cleared; the content is taken once, at
    the end."""
    out = _intify(vec)
    for p in [c for c in out if c in rows]:
        out = _eliminate(out, rows[p], p)
    return _primitive(out)


class SpanBuilder:
    """Incrementally maintained integer echelon form of a growing set of rows.

    ``rows`` maps each pivot column to its echelon row: primitive, sparse,
    positive at its pivot and zero in every other pivot column.  ``_seen``
    holds every column any row has had a nonzero in; a new pivot outside it
    needs no back-elimination.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self._seen: set[int] = set()

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
                    self.rows[p] = _primitive(_eliminate(row, rem, lead))
        self._seen.update(rem)
        self.rows[lead] = rem
        return rem

    def add_units(self, columns) -> None:
        """Add the unit rows {c: 1}, c in columns, as ``add`` would one by one:
        one at a column no stored row touches is stored as it is."""
        for c in columns:
            if c in self._seen:
                self.add({c: 1})
            else:
                self.rows[c] = {c: 1}
                self._seen.add(c)
