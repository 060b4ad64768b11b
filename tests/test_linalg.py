import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, strategies as st

from apolar.linalg import (
    SpanBuilder,
    _intify,
    left_kernel,
    rank,
    reduce_vector,
    rref,
)


def densified(vec, n):
    """A sparse {index: value} kernel vector as a list of length n."""
    return [vec.get(i, 0) for i in range(n)]


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for dense rows: the left kernel of the
    columns, as {row index: value} rows."""
    return left_kernel([{i: row[c] for i, row in enumerate(rows)} for c in range(ncols)], len(rows))


def fraction_rref(rows, ncols):
    """``rref``'s integer echelon rows as Fraction RREF rows (pivot 1), in
    pivot order, and the pivot columns."""
    echelon = rref(rows, ncols)
    pivots = sorted(echelon)
    out = []
    for p in pivots:
        row = [Fraction(0)] * ncols
        for c, v in echelon[p].items():
            row[c] = Fraction(v, echelon[p][p])
        out.append(row)
    return out, pivots


def naive_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction, used as a reference."""
    work = [[Fraction(x) for x in r] for r in rows]
    lead = 0
    pivots = []
    for c in range(ncols):
        src = next((i for i in range(lead, len(work)) if work[i][c] != 0), None)
        if src is None:
            continue
        work[lead], work[src] = work[src], work[lead]
        piv = work[lead][c]
        work[lead] = [x / piv for x in work[lead]]
        for i in range(len(work)):
            if i != lead and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[lead])]
        pivots.append(c)
        lead += 1
        if lead == len(work):
            break
    return [r for r in work if any(r)], pivots


def rand_matrix(rng, nrows, ncols, frac=False):
    def entry():
        if frac and rng.random() < 0.4:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Fraction(rng.randint(-5, 5))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def test_rref_matches_naive_reference():
    rng = random.Random(51)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols, frac=True)
        got_rows, got_pivots = fraction_rref(m, ncols)
        want_rows, want_pivots = naive_rref(m, ncols)
        assert got_pivots == want_pivots
        assert [list(r) for r in got_rows] == want_rows


def test_rref_is_canonical_for_row_space():
    rng = random.Random(52)
    for _ in range(100):
        m = rand_matrix(rng, 4, 5)
        shuffled = m[:]
        rng.shuffle(shuffled)
        mixed = [[0] * 5] + shuffled + [
            [a + b for a, b in zip(shuffled[0], shuffled[-1])],
            [Fraction(0)] * 5,
        ]
        assert rref(m, 5) == rref(mixed, 5)
        assert rref([dict(enumerate(row)) for row in mixed], 5) == rref(m, 5)
    # rref drops the zeros of dict rows, so a zero is never taken as a pivot.
    assert rref([{0: 0, 1: 1}], 2) == rref([[0, 1]], 2)
    assert fraction_rref([{0: 0, 1: 1}], 2)[1] == [1]
    assert rank([{0: 0, 1: 1}], 2) == 1


def test_nullspace_property():
    rng = random.Random(53)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols, frac=True)
        basis = [densified(v, ncols) for v in nullspace(m, ncols)]
        assert len(basis) == ncols - rank(m, ncols)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_left_kernel_property():
    # The kernel kills the rows, and {column: value} rows of the nonzeros
    # give the same kernel as rows of every entry; zero rows (empty dicts)
    # and Fraction entries included.
    rng = random.Random(54)
    for n in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        m = rand_matrix(rng, nrows, ncols, frac=n % 2 == 1)
        if rng.random() < 0.3:
            m.insert(rng.randint(0, nrows), [Fraction(0)] * ncols)
            nrows += 1
        sparse = left_kernel([{c: x for c, x in enumerate(row) if x} for row in m], ncols)
        assert left_kernel([dict(enumerate(row)) for row in m], ncols) == sparse
        kernel = [densified(v, nrows) for v in sparse]
        for c in kernel:
            combo = [
                sum(c[i] * m[i][j] for i in range(nrows)) for j in range(ncols)
            ]
            assert not any(combo)
    assert [densified(v, 3) for v in left_kernel([{}, {1: 2}, {}], 3)] == [[1, 0, 0], [0, 0, 1]]


def test_reduce_vector_and_membership():
    # add returns the echelon row it stored, positive at its lead, or None.
    span = SpanBuilder()
    assert span.add([1, 0, 2]) == {0: 1, 2: 2}
    stored = span.add({1: -2, 2: Fraction(-6)})
    assert stored == {1: 1, 2: 3} and span.rows[1] is stored
    assert span.add([2, 1, 7]) is None
    assert not reduce_vector([1, 1, 5], span.rows)
    assert reduce_vector([0, 0, 1], span.rows)
    assert reduce_vector([1, 1, 6], span.rows) == {2: 1}
    halves = [Fraction(1, 2), Fraction(1, 2), Fraction(3)]
    assert reduce_vector(halves, span.rows) == {2: 1}
    assert span.add([0, 0, -5]) == {2: 1}
    assert span.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def test_span_builder_matches_rref():
    rng = random.Random(55)
    for _ in range(100):
        ncols = rng.randint(1, 6)
        vecs = rand_matrix(rng, rng.randint(1, 6), ncols, frac=True)
        builder = SpanBuilder()
        for v in vecs:
            builder.add(v)
        assert builder.rows == rref(vecs, ncols)
        for v in vecs:
            assert not reduce_vector(v, builder.rows)


@st.composite
def rational_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


def _assert_integer_rref_kernel(matrix, ncols, kernel):
    """Each kernel vector is a sparse {index: int} vector killing the matrix,
    one per free column of the RREF, and is that column's RREF basis vector
    times its (positive) entry at the free column."""
    reduced, pivots = fraction_rref(matrix, ncols)
    free_columns = [c for c in range(ncols) if c not in pivots]
    assert len(kernel) == len(free_columns) == ncols - len(pivots)
    for vec, free in zip(kernel, free_columns):
        assert type(vec) is dict and all(type(x) is int for x in vec.values())
        vec = densified(vec, ncols)
        for row in matrix:
            assert sum(a * b for a, b in zip(row, vec)) == 0
        want = [Fraction(int(c == free)) for c in range(ncols)]
        for row, p in zip(reduced, pivots):
            want[p] = -row[free]
        assert vec[free] > 0
        assert [Fraction(x, vec[free]) for x in vec] == want


@given(rational_matrices())
def test_kernels_are_integer_multiples_of_rref_basis_vectors(matrix):
    rows, ncols = matrix
    _assert_integer_rref_kernel(rows, ncols, nullspace(rows, ncols))
    transpose = [[row[c] for row in rows] for c in range(ncols)]
    sparse = [dict(enumerate(row)) for row in rows]
    _assert_integer_rref_kernel(transpose, len(rows), left_kernel(sparse, ncols))


@st.composite
def sparse_rational_matrices(draw):
    """Up to 12 rows and 40 columns at 5-30 % density, zero rows included,
    with Fraction entries."""
    ncols = draw(st.integers(1, 40))
    per_row = max(1, round(ncols * draw(st.integers(5, 30)) / 100))
    entry = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [Fraction(0)] * ncols
        if draw(st.integers(0, 4)):  # one row in five stays zero
            for c in draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=per_row)):
                row[c] = draw(entry)
        rows.append(row)
    return rows, ncols


def _primitive_positive_multiple(vec):
    """The primitive integer vector that is a positive multiple of vec."""
    mult = lcm(*[Fraction(x).denominator for x in vec])
    ints = [int(x * mult) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


@given(sparse_rational_matrices(), st.data())
def test_sparse_matrices_match_the_dense_reference(matrix, data):
    rows, ncols = matrix
    want_rows, want_pivots = naive_rref(rows, ncols)
    got_rows, got_pivots = fraction_rref(rows, ncols)
    assert got_pivots == want_pivots
    assert [list(r) for r in got_rows] == want_rows
    assert rank(rows, ncols) == len(got_pivots)
    free_columns = [c for c in range(ncols) if c not in want_pivots]
    kernel = [densified(v, ncols) for v in nullspace(rows, ncols)]
    assert len(kernel) == len(free_columns)
    for vec, free in zip(kernel, free_columns):
        want = [Fraction(int(c == free)) for c in range(ncols)]
        for row, p in zip(want_rows, want_pivots):
            want[p] = -row[free]
        assert vec[free] > 0 and [Fraction(x, vec[free]) for x in vec] == want
    span = SpanBuilder()
    for row in rows:
        span.add(row)
    assert list(span.rows.values()) == [_intify(r) for r in span.rows.values()]
    assert all(span.rows[p][p] > 0 for p in span.rows)
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    dense = [Fraction(x) for x in vec]
    for row, p in zip(want_rows, want_pivots):
        dense = [x - dense[p] * y for x, y in zip(dense, row)]
    rem = reduce_vector(vec, span.rows)
    assert not any(c in rem for c in want_pivots)
    assert [rem.get(c, 0) for c in range(ncols)] == _primitive_positive_multiple(dense)


@st.composite
def integer_span_rows(draw):
    """Sparse integer rows whose leads carry entries 2..7, so the spans they
    make mostly have pivot entries above 1, and their width."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        lead = draw(st.integers(0, ncols - 1))
        row = {lead: draw(st.integers(2, 7))}
        for c in draw(st.sets(st.integers(lead, ncols - 1), max_size=4)) - {lead}:
            row[c] = draw(st.integers(-9, 9).filter(bool))
        rows.append(row)
    return rows, ncols


def _stepwise_primitive_reduce(vec, rows):
    """The remainder with the content divided out after every step."""
    def primitive(row):
        g = gcd(*row.values())
        return {c: v // g for c, v in row.items()} if g > 1 else row

    out = primitive(vec)
    for p in [c for c in out if c in rows]:
        g = gcd(rows[p][p], out[p])
        a, b = rows[p][p] // g, out[p] // g
        out = {c: a * out.get(c, 0) - b * rows[p].get(c, 0) for c in out.keys() | rows[p].keys()}
        out = primitive({c: v for c, v in out.items() if v})
    return out


@given(integer_span_rows(), st.data())
def test_content_taken_at_the_end_matches_the_stepwise_primitive_reduction(matrix, data):
    rows, ncols = matrix
    span = SpanBuilder()
    for row in rows:
        span.add(row)
    assume(any(row[p] > 1 for p, row in span.rows.items()))
    entry = st.integers(-9, 9).filter(bool)
    entries = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    for vec in data.draw(st.lists(entries, min_size=1, max_size=4)):
        assert reduce_vector(vec, span.rows) == _stepwise_primitive_reduce(vec, span.rows)


@given(integer_span_rows(), st.data())
def test_seeding_unit_rows_matches_adding_them_one_by_one(matrix, data):
    rows, ncols = matrix
    units = data.draw(st.lists(st.integers(0, ncols - 1), max_size=ncols))
    # Units into an empty span, as the build seeds them, and after other rows.
    for before, after in (([], rows), (rows, [])):
        seeded, one_by_one = SpanBuilder(), SpanBuilder()
        for row in before:
            seeded.add(row)
        seeded.add_units(units)
        for row in after:
            seeded.add(row)
        for vec in before + [{c: 1} for c in units] + after:
            one_by_one.add(vec)
        assert seeded.rows == one_by_one.rows
