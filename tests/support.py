"""Shared random generators for the property tests (seeded, deterministic)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hypothesis import strategies as st

from apolar import (
    Antichain,
    Context,
    ExponentVector,
    GorensteinSpec,
    MonomialIdeal,
    Polynomial,
)
from apolar.exponents import box_monomials_of_degree


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


def rand_point(rng, ctx, max_coord):
    return ExponentVector(ctx, tuple(rng.randint(0, max_coord) for _ in range(ctx.dim)))


def rand_antichain(rng, d, max_coord=8, max_pts=6) -> Antichain:
    ctx = Context.of_dim(d)
    pts = [rand_point(rng, ctx, max_coord) for _ in range(rng.randint(1, max_pts))]
    return Antichain.maxima(ctx, pts)


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
