"""The benchmark's workloads: seeded input generators, the timed op, the
output check and the canonical outputs that feed the reference digest.

Each workload draws its ops from one size class, so per-op times form a
single cluster and the median and tail percentile do not sit on a seam
between classes.  Inputs are pure functions of (workload, seed, index):
``input_for`` builds fresh objects on every call, so no op can reuse a
presentation or slice cached by an earlier one.

apolar functions are looked up on the package at call time
(``apolar.docle(...)``), never bound at import, so the tracer's wrappers
are seen when they are installed and nothing is patched when they are not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import apolar
from apolar.exponents import box_monomials_of_degree

# Inputs 0..REFERENCE_OPS-1 of this seed are the warm-up of every run; their
# canonical outputs must hash to REFERENCE_DIGESTS whatever --seed is.
REFERENCE_SEED = 0
REFERENCE_OPS = 3
REFERENCE_DIGESTS = {
    "gorenstein-verify": "fa44ed7bc0c29016912ab846dc2d5b3dd5945b4ab8fac9daa9fb1882abe6ea5f",
    "gorenstein-structure": "7af128526ff64d7a13dd7c407924c4b2e3ead6760ec31b8a188cf5222f68c272",
    "monomial-lattice": "0c1319d7a498df9012e17ece222b3f75edcc26068e21fcfbb87c656c028b2c05",
}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    canonical: Callable[[Any, Any], Any]


def input_for(workload: Workload, seed: int, index: int):
    return workload.make(random.Random(f"{workload.name}/{seed}/{index}"), index)


def digest(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --- Gorenstein specs -------------------------------------------------------


def _random_spec(rng: random.Random, d: int, k: int, degree: int, terms: int):
    """A degree-`degree` p with `terms` terms inside the box [0, k-1]^d and
    small nonzero rational coefficients, so GorensteinSpec never rejects it."""
    ctx = apolar.Context.of_dim(d)
    support = rng.sample(box_monomials_of_degree(ctx, degree, k - 1), terms)
    coeffs = {
        ev: Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 4))
        for ev in support
    }
    return apolar.GorensteinSpec(k, apolar.Polynomial(ctx, coeffs))


def _rows_text(ideal, top: int):
    return [
        [[str(x) for x in row] for row in ideal.slice(e).reduced_rows]
        for e in range(top + 1)
    ]


def _verify_op(spec):
    return apolar.verify_gorenstein_ann(spec)


def _verify_canonical(spec, result):
    ideal = spec.colon_ideal()  # cached by the op
    return {
        "result": result,
        "generators": [str(g) for g in ideal.generators],
        "reduced_rows": _rows_text(ideal, ideal.max_generator_degree()),
    }


def _structure_op(spec):
    ideal = spec.colon_ideal()
    top = spec.top_degree
    return {
        "hilbert": ideal.hilbert_function(),
        "socle": ideal.socle(),
        "dual_socle": apolar.dual_socle_poly(spec),
        "pairings": [apolar.pairing_is_nondegenerate(spec, i) for i in range(top + 1)],
        "iff": apolar.monomial_iff_test(spec),
        "series": apolar.series_annihilator_check(spec, apolar.SeriesSpec.exponential(top)),
    }


def _structure_check(spec, r) -> bool:
    h = r["hilbert"]
    return (
        h == h[::-1]
        and len(r["socle"]) == 1
        and r["socle"][0].degree == spec.top_degree
        and r["dual_socle"] == apolar.antipodal(spec)
        and all(r["pairings"])
        and r["iff"].agree
        and r["series"] is True
    )


def _structure_canonical(spec, r):
    ideal = spec.colon_ideal()
    return {
        "generators": [str(g) for g in ideal.generators],
        "hilbert": r["hilbert"],
        "socle": [str(c) for c in r["socle"]],
        "dual_socle": str(r["dual_socle"]),
        "pairings": r["pairings"],
        "iff": [r["iff"].is_monomial_ideal, r["iff"].ann_of_socle_equals_ideal],
        "series": r["series"],
        "reduced_rows": _rows_text(ideal, spec.top_degree + 1),
    }


# --- Monomial staircases ----------------------------------------------------


def _staircase(rng: random.Random, index: int, d: int = 3, degree: int = 30, gens: int = 15):
    """`gens` minimal generators of total degree degree±2.  Every third ideal
    also carries the d pure powers, so is zero-dimensional; its ops take
    about 1.35x as long.  A fixed share, rather than a random one, keeps the
    median inside the larger class and the 90th percentile inside the
    smaller one in every run."""
    minimal: list[tuple[int, ...]] = []
    if index % 3 == 0:
        for i in range(d):
            power = degree + rng.randint(-2, 2)
            minimal.append(tuple(power if j == i else 0 for j in range(d)))
    while len(minimal) < gens:
        total = degree + rng.randint(-2, 2)
        cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
        point = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
        if any(all(x <= y for x, y in zip(g, point)) for g in minimal):
            continue
        minimal = [g for g in minimal if not all(x <= y for x, y in zip(point, g))]
        minimal.append(point)
    ctx = apolar.Context.of_dim(d)
    return apolar.MonomialIdeal.from_generators(
        ctx, [apolar.ExponentVector(ctx, g) for g in minimal]
    )


def _lattice_op(ideal):
    points = apolar.docle(ideal)
    closed = apolar.closure(ideal)
    j, h = apolar.decompose(ideal)
    return {
        "docle": points,
        "closure": closed,
        "j": j,
        "h": h,
        "sq_leq": apolar.sq_leq(ideal, closed),
        "inverse_is_closure": apolar.inverse_ideal(points) == closed,
        "intersection_is_ideal": apolar.intersect(j, h) == ideal,
    }


def _lattice_check(ideal, r) -> bool:
    return (
        len(r["docle"]) > 0
        and r["sq_leq"] is True
        and r["inverse_is_closure"] is True
        and r["intersection_is_ideal"] is True
    )


def _lattice_canonical(ideal, r):
    return {
        "ideal": str(ideal),
        "docle": [str(p) for p in r["docle"]],
        "closure": str(r["closure"]),
        "j": str(r["j"]),
        "h": str(r["h"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gorenstein-verify",
            make=lambda rng, index: _random_spec(rng, d=3, k=5, degree=6, terms=4),
            op=_verify_op,
            check=lambda spec, result: result is True,
            canonical=_verify_canonical,
        ),
        Workload(
            "gorenstein-structure",
            make=lambda rng, index: _random_spec(rng, d=2, k=12, degree=11, terms=4),
            op=_structure_op,
            check=_structure_check,
            canonical=_structure_canonical,
        ),
        Workload(
            "monomial-lattice",
            make=_staircase,
            op=_lattice_op,
            check=_lattice_check,
            canonical=_lattice_canonical,
        ),
    )
}
