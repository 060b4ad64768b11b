"""Power-series freedom of the dual generator.

The dual polynomial recovering a Gorenstein colon ideal can be replaced by
f(s), s = t1 xbar1 + ... + td xbard, for any truncated power series f with
nonzero coefficients; the annihilator comes out the same degree by degree.
The reason: a degree-e operator g(d/dt) sends f(s) to f^(e)(s) * gbar, and
f^(e)(s) is a unit (constant term a_e e!, s nilpotent), so only the power
boundaries s^M != 0 and s^(M+1) = 0 (M the top degree) are left to check.
"""

import random
from fractions import Fraction

from apolar import (
    Context,
    GorensteinSpec,
    SeriesSpec,
    parse_polynomial,
    random_spec,
    series_annihilator_check,
)

ctx = Context(("x", "y"))
spec = GorensteinSpec(4, parse_polynomial("x*y^2 + x^2*y + x^3", ctx))
top = spec.top_degree
print("spec:", spec, " top degree M =", top)

# The classical choices: exp(z) and 1/(1-z), truncated at M.
for name, series in [
    ("exp", SeriesSpec.exponential(top)),
    ("geometric", SeriesSpec.geometric(top)),
]:
    print(f"f = {name}: annihilator equals the ideal:",
          series_annihilator_check(spec, series))

# Any coefficients work as long as none vanish.
rng = random.Random(7)
wild = SeriesSpec(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 5))
                        for _ in range(top + 1)))
print("f with random nonzero coefficients", wild.coeffs, ":",
      series_annihilator_check(spec, wild))

# The same holds across random ambient data.
for _ in range(3):
    s = random_spec(rng, dims=(2,), max_k=3)
    series = SeriesSpec(tuple(Fraction(rng.randint(1, 5))
                              for _ in range(s.top_degree + 1)))
    print(f"random spec {s}: {series_annihilator_check(s, series)}")
