import copy
import random
from collections import Counter
from fractions import Fraction
from math import gcd, inf
from unittest.mock import patch

from hypothesis import assume, given, strategies as st

from apolar import (
    Context,
    ann_partial,
    antipodal,
    gorenstein,
    graded_engine,
    linalg,
    monomial_iff_test,
    pairing_is_nondegenerate,
    parse_ideal,
    random_spec,
    verify_gorenstein_ann,
)
from apolar.linalg import (
    SpanBuilder,
    _difference,
    _primitive,
    left_kernel,
    new_leads,
    rank,
    reduce_vector,
    rref,
)
from support import cleared


def densified(vec, n):
    """A sparse {index: value} kernel vector as a list of length n."""
    return [vec.get(i, 0) for i in range(n)]


def integer_rows(rows, ncols):
    """Dense rows of ints and Fractions, each cleared to a primitive integer
    row (its multiple by a positive scale), as dense rows."""
    return [densified(cleared(row), ncols) for row in rows]


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for dense rows: the left kernel of the columns
    of the cleared rows (scaling a row keeps the kernel), as {row index:
    value} rows."""
    ints = integer_rows(rows, ncols)
    return left_kernel([{i: row[c] for i, row in enumerate(ints) if row[c]} for c in range(ncols)],
                       len(rows))


def fraction_rref(rows, ncols):
    """``rref``'s integer echelon rows, of the cleared rows (the same row
    space), as Fraction RREF rows (pivot 1), in pivot order, and the pivot
    columns."""
    echelon = rref(integer_rows(rows, ncols), ncols)
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
        assert rref(integer_rows(m, 5), 5) == rref(integer_rows(mixed, 5), 5)
    # rref keeps a dense row's nonzeros, so a zero is never taken as a pivot.
    assert fraction_rref([[0, 1]], 2)[1] == [1]


def test_nullspace_property():
    rng = random.Random(53)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols, frac=True)
        basis = [densified(v, ncols) for v in nullspace(m, ncols)]
        assert len(basis) == ncols - rank([cleared(row) for row in m])
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_left_kernel_property():
    # The kernel kills the rows; zero rows (empty dicts) included, and rows
    # with Fraction entries cleared first (the kernel is of the cleared rows,
    # since scaling a row scales its kernel coordinate).
    rng = random.Random(54)
    for n in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        m = rand_matrix(rng, nrows, ncols, frac=n % 2 == 1)
        if rng.random() < 0.3:
            m.insert(rng.randint(0, nrows), [Fraction(0)] * ncols)
            nrows += 1
        sparse = left_kernel([cleared(row) for row in m], ncols)
        m = integer_rows(m, ncols)
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
    assert span.add({0: 1, 2: 2}) == {0: 1, 2: 2}
    stored = span.add({1: -2, 2: -6})
    assert stored == {1: 1, 2: 3} and span.rows[1] is stored
    assert span.add({0: 2, 1: 1, 2: 7}) is None
    assert not reduce_vector({0: 1, 1: 1, 2: 5}, span.rows)
    assert reduce_vector({2: 1}, span.rows)
    assert reduce_vector({0: 1, 1: 1, 2: 6}, span.rows) == {2: 1}
    halves = [Fraction(1, 2), Fraction(1, 2), Fraction(3)]
    assert reduce_vector(cleared(halves), span.rows) == {2: 1}
    assert span.add({2: -5}) == {2: 1}
    assert span.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def test_span_builder_matches_rref():
    rng = random.Random(55)
    for _ in range(100):
        ncols = rng.randint(1, 6)
        vecs = rand_matrix(rng, rng.randint(1, 6), ncols, frac=True)
        builder = SpanBuilder()
        for v in vecs:
            builder.add(cleared(v))
        assert builder.rows == rref(integer_rows(vecs, ncols), ncols)
        for v in vecs:
            assert not reduce_vector(cleared(v), builder.rows)


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
    # The left kernel is of the cleared rows, so the reference transposes them.
    transpose = [[row[c] for row in integer_rows(rows, ncols)] for c in range(ncols)]
    sparse = [cleared(row) for row in rows]
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


@given(sparse_rational_matrices(), st.data())
def test_sparse_matrices_match_the_dense_reference(matrix, data):
    rows, ncols = matrix
    want_rows, want_pivots = naive_rref(rows, ncols)
    got_rows, got_pivots = fraction_rref(rows, ncols)
    assert got_pivots == want_pivots
    assert [list(r) for r in got_rows] == want_rows
    assert rank([cleared(row) for row in rows]) == len(got_pivots)
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
        span.add(cleared(row))
    assert list(span.rows.values()) == [_primitive(r) for r in span.rows.values()]
    assert all(span.rows[p][p] > 0 for p in span.rows)
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    dense = [Fraction(x) for x in vec]
    for row, p in zip(want_rows, want_pivots):
        dense = [x - dense[p] * y for x, y in zip(dense, row)]
    rem = reduce_vector({c: x for c, x in enumerate(vec) if x}, span.rows)
    assert not any(c in rem for c in want_pivots)
    assert rem == cleared(dense)


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


@given(st.one_of(rational_matrices(), sparse_rational_matrices()))
def test_left_kernel_of_reversed_rows_is_the_rref_of_the_kernel(matrix):
    # The build reads a slice's rows off the kernel on its free columns listed
    # highest first: each vector, its keys mapped back, leads at its own row
    # and is zero at the others', so the vectors are the kernel's integer RREF.
    rows, ncols = matrix
    sparse = [cleared(row) for row in rows]
    n = len(sparse)
    backward = {}
    for vec in left_kernel(sparse[::-1], ncols):
        row = {n - 1 - i: x for i, x in vec.items()}
        backward[min(row)] = row
    forward = [densified(vec, n) for vec in left_kernel(sparse, ncols)]
    assert backward == rref(forward, n)


@given(integer_span_rows(), st.data())
def test_new_leads_are_the_pivots_the_rows_add(matrix, data):
    rows, ncols = matrix
    cut = data.draw(st.integers(0, len(rows)))
    span = SpanBuilder()
    for row in rows[:cut]:
        span.add(row)
    echelon = dict(span.rows)
    new = new_leads(rows[cut:], echelon, inf)
    assert echelon == span.rows  # not changed
    assert all(min(row) == lead and lead not in echelon for lead, row in new.items())
    whole = SpanBuilder()
    for row in rows:
        whole.add(row)
    assert echelon.keys() | new.keys() == whole.rows.keys()
    assert not any(reduce_vector(row, whole.rows) for row in new.values())
    assert len(new) == rank(rows) - rank(rows[:cut])
    most = data.draw(st.integers(0, len(new)))
    assert list(new_leads(iter(rows[cut:]), echelon, most).items()) == list(new.items())[:most]


def _lead_only_steps(rows, echelon=None, most=inf) -> int:
    """The elimination steps of a lead-only echelon of the rows, in order,
    over ``echelon`` ({lead: row}), counted over Q: a row whose lead is
    stored is reduced there, one step, until its lead is new or it vanishes,
    and no row is read once ``most`` new leads are stored.  Every integer
    step scales the row by a positive factor, which changes no support, so
    ``linalg`` takes the same steps."""
    stored = dict(echelon or {})
    steps = new = 0
    for vec in rows:
        if new == most:
            break
        while vec:
            lead = min(vec)
            if lead not in stored:
                stored[lead], new = vec, new + 1
                break
            srow = stored[lead]
            f = Fraction(vec[lead], srow[lead])
            vec = {c: x for c in vec.keys() | srow.keys() if (x := vec.get(c, 0) - f * srow.get(c, 0))}
            steps += 1
    return steps


@given(integer_span_rows(), st.data())
def test_ranks_take_one_difference_per_step_and_kernels_two(matrix, data):
    # rank and new_leads read only the leads, so they carry no combination:
    # one _difference per elimination step; left_kernel takes a second for
    # the combination it returns.
    rows, ncols = matrix
    cut = data.draw(st.integers(0, len(rows)))
    most = data.draw(st.integers(0, len(rows)))
    span = SpanBuilder()
    for row in rows[:cut]:
        span.add(row)
    with patch.object(linalg, "_difference", wraps=_difference) as spy:
        rank(rows)
        assert spy.call_count == _lead_only_steps(rows)
        spy.reset_mock()
        left_kernel(rows, ncols)
        assert spy.call_count == 2 * _lead_only_steps(rows)
        spy.reset_mock()
        new_leads(rows[cut:], span.rows, most)
        assert spy.call_count == _lead_only_steps(rows[cut:], span.rows, most)


sparse_int_rows = st.dictionaries(st.integers(0, 20), st.integers(-9, 9).filter(bool), max_size=8)


@given(sparse_int_rows, sparse_int_rows, st.integers(1, 5), st.integers(-5, 5).filter(bool))
def test_difference_is_the_nonzeros_of_the_combination(vec, row, a, b):
    want = {c: a * vec.get(c, 0) - b * row.get(c, 0) for c in vec.keys() | row.keys()}
    assert _difference(vec, row, a, b) == {c: v for c, v in want.items() if v}
    assert _difference(vec, vec, 1, 1) == {}


@given(sparse_rational_matrices())
def test_stored_rows_and_kernel_vectors_hold_no_zero(matrix):
    rows, ncols = matrix
    span = SpanBuilder()
    for row in rows:
        span.add(cleared(row))
    kernel = left_kernel([cleared(row) for row in rows], ncols)
    assert all(all(vec.values()) for vec in [*span.rows.values(), *kernel])


def test_every_row_reaching_linalg_is_a_dict_of_nonzero_ints(monkeypatch):
    # rank, left_kernel, new_leads, reduce_vector and SpanBuilder.add take rows as given,
    # with no zero filter, so a zero would be stored as a pivot.  Every row the
    # package hands them is {column: nonzero int}, and no call changes one.
    calls = Counter()

    def checking(name, fn, rows_of):
        def wrapper(*args):
            rows = rows_of(args)
            for row in rows:
                assert type(row) is dict, (name, row)
                assert all(type(c) is int and type(v) is int and v
                           for c, v in row.items()), (name, row)
            before = copy.deepcopy(rows)
            out = fn(*args)
            assert rows_of(args) == before, name
            calls[name] += 1
            return out
        return wrapper

    def first_arg(args):
        return args[0]

    for module in (linalg, gorenstein):
        monkeypatch.setattr(module, "rank", checking("rank", linalg.rank, first_arg))
    for module in (linalg, graded_engine):
        monkeypatch.setattr(module, "left_kernel",
                            checking("left_kernel", linalg.left_kernel, first_arg))
    for module in (linalg, graded_engine):
        monkeypatch.setattr(module, "reduce_vector", checking(
            "reduce_vector", linalg.reduce_vector, lambda args: [args[0], *args[1].values()]))
    ranked = checking("new_leads", linalg.new_leads, lambda args: [*args[0], *args[1].values()])
    monkeypatch.setattr(graded_engine, "new_leads", lambda rows, *rest: ranked(list(rows), *rest))
    monkeypatch.setattr(SpanBuilder, "add", checking("add", SpanBuilder.add, lambda args: [args[1]]))

    rng = random.Random(61)
    for _ in range(12):
        spec = random_spec(rng, dims=(1, 2, 3), max_k=4)
        spec.colon_ideal().socle()
        assert verify_gorenstein_ann(spec)
        for i in range(spec.top_degree + 1):
            pairing_is_nondegenerate(spec, i)
        monomial_iff_test(spec)
        ann_partial(antipodal(spec), spec.ctx).hilbert_function()
    parse_ideal("(x^3, y^3, 3*x^2*y - 2*x*y^2)", Context(("x", "y"))).socle()  # from generators
    names = ("rank", "left_kernel", "new_leads", "reduce_vector", "add")
    assert all(calls[name] for name in names), calls
