"""Output parity: one seeded digest over the engine's canonical text.

The items are the colon ideal and ``ann_partial(antipodal(spec))`` of
``random_spec``s in d = 1..3, and random homogeneous presentations (pure
powers plus rational cubics, so socle classes and reduced rows carry
fractions).  For each ideal: generator text, every ``reduced_rows`` through
one degree past the last nonzero quotient degree, socle text and the LEX
initial ideal.  ``PARITY_DIGEST`` was computed on the
rational-kernel engine; a change anywhere in these outputs changes it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from apolar import (
    Context,
    ExponentVector,
    HomogeneousIdealPresentation,
    Polynomial,
    ann_partial,
    antipodal,
    monomials_of_degree,
    random_spec,
)

PARITY_DIGEST = "5e8ae5b337ce3788889b515792ca1e929dcd45d1427b1ce4740aa33b3bb5e956"
SEED = 20231018
SPECS = 40
PRESENTATIONS = 80


def _ideal_items(ideal) -> list:
    hilbert = ideal.hilbert_function()
    return [
        [str(g) for g in ideal.generators],
        [[[str(x) for x in row] for row in ideal.slice(e).reduced_rows]
         for e in range(len(hilbert) + 1)],
        [f"degree {c.degree}: {c}" for c in ideal.socle()],
        str(ideal.initial_monomials()),
    ]


def _random_presentation(rng: random.Random) -> HomogeneousIdealPresentation:
    """x_i^3 or x_i^4 for each i, plus d - 1 or fewer cubics with two or three
    rational terms of exponent at most 2, so many socle classes are not
    monomials."""
    d = rng.choice((2, 3))
    ctx = Context.of_dim(d)
    gens = [
        Polynomial.monomial(
            ExponentVector(ctx, tuple(rng.randint(3, 4) if j == i else 0 for j in range(d)))
        )
        for i in range(d)
    ]
    pool = [ev for ev in monomials_of_degree(ctx, 3) if max(ev.coords) < 3]
    for _ in range(rng.randint(1, d - 1)):
        gens.append(Polynomial(ctx, {
            ev: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for ev in rng.sample(pool, min(len(pool), rng.randint(2, 3)))
        }))
    return HomogeneousIdealPresentation(ctx, gens)


def parity_items() -> list:
    rng = random.Random(SEED)
    items = []
    for _ in range(SPECS):
        spec = random_spec(rng, dims=(1, 2, 3))
        items.append(str(spec))
        items.append(_ideal_items(spec.colon_ideal()))
        items.append(_ideal_items(ann_partial(antipodal(spec), spec.ctx)))
    for _ in range(PRESENTATIONS):
        pres = _random_presentation(rng)
        items.append(str(pres))
        items.append(_ideal_items(pres))
    return items


def parity_digest() -> str:
    blob = json.dumps(parity_items(), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_outputs_match_the_parity_digest():
    assert parity_digest() == PARITY_DIGEST
