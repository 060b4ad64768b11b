"""Shared random generators for the property tests (seeded, deterministic)."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf, lcm, perm, prod
from operator import ge, le, sub

from hypothesis import strategies as st

from apolar import (
    Antichain,
    Context,
    ExponentVector,
    GorensteinSpec,
    MonomialIdeal,
    Polynomial,
)
from apolar.exponents import box_monomials_of_degree, leq


def cleared(row) -> dict[int, int]:
    """A dense row, or a dict, of ints and Fractions in the one row shape
    ``linalg`` takes: its nonzeros times the lcm of their denominators,
    divided by their content, a primitive positive multiple of the row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    nonzero = {c: Fraction(x) for c, x in items if x}
    mult = lcm(*[x.denominator for x in nonzero.values()])
    ints = {c: int(x * mult) for c, x in nonzero.items()}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def maxima(ctx, points) -> Antichain:
    """The antichain of componentwise-maximal elements of a finite set."""
    pts = list(set(points))
    keep = [p for p in pts if not any(q != p and leq(p, q) for q in pts)]
    return Antichain(ctx, tuple(keep))


def reference_fold(codes, pivots) -> list[tuple]:
    """The split fold of ``monomial_ideal._fold_splits`` in its plainest form:
    each pivot's splits at coordinate i are made as one set, and each is
    tested against all of them and against every kept code c with c_i = g_i.
    ``_fold_splits``' docstring gives the algebra; the property tests compare
    the two folds as sets."""
    for g in sorted(pivots):
        stay, cut = [], []
        for a in codes:
            (stay if any(map(ge, g, a)) else cut).append(a)
        codes = list(stay)
        for i, x in enumerate(g):
            if not 0 < abs(x) < inf:
                continue
            # g_j < a_j for every cut a, so a code split at i can lie below
            # only another split at i or a kept code c with c_i = g_i; it
            # equals no kept code, as that code would lie below a.
            split = {a[:i] + (x,) + a[i + 1:] for a in cut}
            above = [c for c in stay if c[i] == x] + list(split)
            codes += [
                b for b in split
                if not any(b != c and all(map(le, b, c)) for c in above)
            ]
    return codes


def reference_catalecticant(f, monomials) -> tuple[list[dict[int, int]], int]:
    """The catalecticant of ``graded_engine._catalecticant`` in its plainest
    form, with no column scaling: f times the lcm of its denominators, each
    term c*t^s with s >= m putting c * prod s_i!/(s_i - m_i)! in row m at the
    column of the tuple s - m, columns numbered by first appearance.  The
    property tests compare ranks and left kernels, which a column scaling
    keeps."""
    den = lcm(*[c.denominator for _, c in f.terms()])
    terms = [(s.coords, int(c * den)) for s, c in f.terms()]
    at = {}
    rows = [{at.setdefault(u, len(at)): c * prod(map(perm, s, m.coords))
             for s, c in terms if min(u := tuple(map(sub, s, m.coords))) >= 0}
            for m in monomials]
    return rows, len(at)


def literal_action(op, target, with_coeffs):
    """The action expanded term by term in Fraction arithmetic."""
    acc = {}
    for p, a in op.terms():
        for q, b in target.terms():
            if all(x <= y for x, y in zip(p.coords, q.coords)):
                c = a * b
                if with_coeffs:
                    for x, y in zip(p.coords, q.coords):
                        c *= Fraction(factorial(y), factorial(y - x))
                rest = ExponentVector(target.ctx, tuple(y - x for x, y in zip(p.coords, q.coords)))
                acc[rest] = acc.get(rest, Fraction(0)) + c
    return Polynomial(target.ctx, acc)


def reference_antipodal(spec) -> Polynomial:
    """The antipodal polynomial of ``gorenstein.antipodal`` in its plainest
    form: each term a*x^s of ``p.terms()`` becomes a * M!/prod c_i! * t^c,
    c = (k-1)*(1,...,1) - s and M the top degree, in Fraction arithmetic."""
    terms = {}
    for ev, a in spec.p.terms():
        c = tuple(spec.k - 1 - x for x in ev.coords)
        weight = Fraction(factorial(spec.top_degree), prod(map(factorial, c)))
        terms[ExponentVector(spec.dual_ctx, c)] = a * weight
    return Polynomial(spec.dual_ctx, terms)


def rand_point(rng, ctx, max_coord):
    return ExponentVector(ctx, tuple(rng.randint(0, max_coord) for _ in range(ctx.dim)))


def rand_antichain(rng, d, max_coord=8, max_pts=6) -> Antichain:
    ctx = Context.of_dim(d)
    pts = [rand_point(rng, ctx, max_coord) for _ in range(rng.randint(1, max_pts))]
    return maxima(ctx, pts)


def rand_zero_dim_ideal(rng, d, max_coord=8) -> MonomialIdeal:
    """A proper zero-dimensional monomial ideal: pure powers plus noise."""
    ctx = Context.of_dim(d)
    while True:
        gens = [
            ExponentVector(
                ctx,
                tuple(rng.randint(1, max_coord) if j == i else 0 for j in range(d)),
            )
            for i in range(d)
        ]
        for _ in range(rng.randint(0, 2 * d)):
            gens.append(rand_point(rng, ctx, max_coord))
        ideal = MonomialIdeal.from_generators(ctx, gens)
        if not ideal.is_unit:
            return ideal


def rand_proper_ideal(rng, d, max_coord=6, max_gens=5) -> MonomialIdeal:
    """A proper nonzero monomial ideal, not necessarily zero-dimensional."""
    ctx = Context.of_dim(d)
    while True:
        gens = [rand_point(rng, ctx, max_coord) for _ in range(rng.randint(1, max_gens))]
        ideal = MonomialIdeal.from_generators(ctx, gens)
        if not ideal.is_unit and not ideal.is_zero:
            return ideal


@st.composite
def gorenstein_specs(draw, dims=(1, 2, 3), max_k=4):
    """A spec (d, k, p) with p of up to four terms inside the box [0, k-1]^d
    and small nonzero rational coefficients, so GorensteinSpec accepts it."""
    d = draw(st.sampled_from(dims))
    k = draw(st.integers(1, max_k))
    ctx = Context.of_dim(d)
    pool = box_monomials_of_degree(ctx, draw(st.integers(0, d * (k - 1))), k - 1)
    support = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    numerator = st.integers(-6, 6).filter(bool)
    coeff = st.builds(Fraction, numerator, st.integers(1, 4))
    return GorensteinSpec(k, Polynomial(ctx, {ev: draw(coeff) for ev in support}))
