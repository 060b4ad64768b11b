"""The unique J-cap-H decomposition of a monomial ideal.

Every monomial ideal with a nonempty docle splits uniquely as J cap H with
J saturated (empty docle) and H zero-dimensional carrying the same docle.
"""

import random

from apolar import (
    Context,
    ExponentVector,
    MonomialIdeal,
    decompose,
    docle,
    intersect,
    inverse_ideal,
    parse_ideal,
    saturate,
)

ctx = Context.of_dim(2)

emmy = parse_ideal("(x1^2, x1*x2)", ctx)
print("I =", emmy)
print("docle(I) =", docle(emmy))
print("saturation (I : m^infinity) =", saturate(emmy))

j, h = decompose(emmy)
print("J =", j, "   H =", h)
print("J cap H =", intersect(j, h))
print("docle(H) == docle(I):", docle(h) == docle(emmy))
print("docle(J) empty:", not docle(j).elems)


def random_proper_ideal(rng, d=2, max_coord=5, max_gens=4):
    c = Context.of_dim(d)
    while True:
        gens = [
            ExponentVector(c, tuple(rng.randint(0, max_coord) for _ in range(d)))
            for _ in range(rng.randint(1, max_gens))
        ]
        ideal = MonomialIdeal.from_generators(c, gens)
        if not ideal.is_unit and not ideal.is_zero:
            return ideal


# The two factors are forced: J is the saturation, H the inverse ideal of
# the docle.  Random ideals decompose and recompose exactly.
rng = random.Random(2026)
shown = 0
while shown < 3:
    i = random_proper_ideal(rng)
    if not docle(i).elems:
        continue
    shown += 1
    j, h = decompose(i)
    print(f"\nrandom ideal {i}")
    print("  J =", j)
    print("  H =", h)
    print("  docle:", docle(i), " recompose ok:", intersect(j, h) == i)
    print("  H == inverse_ideal(docle):", h == inverse_ideal(docle(i)))
