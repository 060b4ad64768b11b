"""Exact rational row reduction on sparse primitive integer rows.

Every row entering elimination has one shape: a dict {column: nonzero int}.
``rank``, ``left_kernel``, ``reduce_vector`` and ``SpanBuilder.add`` take
such rows as given, with no conversion and no zero filter, and change none
they are handed.  ``rref`` takes dense integer rows, as a slice's Macaulay
matrix yields them, and keeps each row's nonzeros.  ``_intify`` is the one
entry for Fractions: it makes a primitive integer row of a dict of ints and
Fractions, zeros kept.  A span stores its rows primitive, positive at the
lead.  ``SpanBuilder.rows``, {pivot column: row}, is the one echelon format:
the full integer RREF, which ``rref`` returns for a slice to store.
``rank`` and ``left_kernel`` read only the leads or the dependent rows, so
``_lead_echelon`` reduces each row only at its lead, with no
back-substitution.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): clearing
column p of r against an echelon row with pivot a there replaces r by
(a/g)*r - (r[p]/g)*row, g = gcd(a, r[p]), touching only the two rows'
nonzeros (against a unit row it drops r[p]).  Each step scales r by a
positive factor, so ``reduce_vector`` divides by the content once, at the
end.  Echelon rows have positive pivots and are zero in every other pivot
column: each is its RREF row times a positive integer, unique for the span.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _intify(row: dict) -> dict[int, int]:
    """A dict of ints and Fractions, zeros kept, times the lcm of its
    denominators, as a primitive integer row with the same keys."""
    mult = lcm(*[x.denominator for x in row.values()])
    return _primitive({c: x.numerator * (mult // x.denominator) for c, x in row.items()})


def _difference(vec: dict[int, int], row: dict[int, int], a: int, b: int) -> dict[int, int]:
    """The nonzeros of a*vec - b*row (both nonzeros only, b != 0), made in one
    pass: an entry that cancels is removed as it is reached."""
    out = vec.copy() if a == 1 else {c: a * v for c, v in vec.items()}
    for c, v in row.items():
        x = out.get(c, 0) - b * v
        if x:
            out[c] = x
        else:
            del out[c]
    return out


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
    """The integer RREF of the span of dense integer ``rows`` in ``ncols``
    columns, as ``SpanBuilder.rows``: {pivot column: primitive integer row,
    positive at the pivot, zero in every other pivot column}, each row its
    RREF row over Q times a positive integer."""
    span = SpanBuilder()
    for row in rows:
        if len(span.rows) == ncols:
            break
        row = {c: v for c, v in enumerate(row) if v}
        if row:
            span.add(row)
    return span.rows


def _lead_echelon(rows, combine: bool) -> tuple[int, list[dict[int, int]]]:
    """Lead-only elimination of the rows in order: each is reduced at its
    lead against the stored row there until its lead is new (it is stored)
    or it vanishes.  Returns the rank and, when ``combine``, each vanished
    row i's combination, carried from {i: 1} by positive steps and made
    primitive: supported on i and the stored rows before it, it is the RREF
    kernel vector of the transpose at free column i.
    """
    stored: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for i, vec in enumerate(rows):
        comb = {i: 1} if combine else {}
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
    """The rank over Q of ``rows``, {column: nonzero int} dicts."""
    return _lead_echelon(rows, False)[0]


def left_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """Basis of {c : sum_i c_i row_i = 0} for {column: nonzero int} rows: per
    row i dependent on the rows before it, in order, a sparse primitive
    integer vector positive at i, the transpose's RREF kernel basis."""
    return _lead_echelon(rows, True)[1]


def reduce_vector(vec, rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """Remainder of vec, a {column: nonzero int} dict, modulo the span of
    ``SpanBuilder.rows``: a primitive sparse integer row, a positive multiple
    of vec minus a combination of the rows, zero at every pivot.  Clearing a
    pivot column leaves the other pivot columns as they were, so only those
    in vec's support are cleared; the content is taken once, at the end."""
    for p in [c for c in vec if c in rows]:
        vec = _eliminate(vec, rows[p], p)
    return _primitive(vec)


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
        """Add a vector, a {column: nonzero int} dict, to the span.  Returns
        the echelon row stored for it, primitive and positive at its lead, or
        None when vec is dependent."""
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
