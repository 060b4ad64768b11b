"""The Gorenstein pipeline for homogeneous zero-dimensional colon ideals
((x_1^k, ..., x_d^k) : p).

Provides the antipodal polynomial (the multinomial-weighted reflection of p
through (k-1)*(1,...,1)), the dual socle polynomial computed through quotient
reductions, the annihilator identity check, the monomial if-and-only-if
test, and the power-series freedom check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add

from .errors import DomainError
from .exponents import Context, ExponentVector, lex_key, monomials_of_degree
from .graded_engine import (
    HomogeneousIdealPresentation,
    _catalecticant,
    _reduced_mod_power,
    ann_partial,
    colon_power_ideal,
)
from .linalg import _intify, rank
from .polynomial import Polynomial, _numerators, diff_action


def multinomial(total: int, parts) -> int:
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != total:
        raise DomainError(f"invalid multinomial arguments {total}; {parts}")
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


class GorensteinSpec:
    """Ambient data (d, k, p) of a colon ideal ((x_1^k, ..., x_d^k) : p).

    p is stored reduced modulo the power ideal: support exponents with a
    coordinate >= k vanish in the quotient and are dropped on construction.
    """

    def __init__(self, k: int, p: Polynomial):
        reduced = _reduced_mod_power(k, p)
        self.ctx = p.ctx
        self.k = k
        self.p = reduced
        self.p_degree: int = reduced.homogeneous_degree()
        self.d = self.ctx.dim
        self.top_degree: int = self.d * (k - 1) - self.p_degree
        self.leading_exponent: ExponentVector = max(reduced.support(), key=lex_key)
        self.dual_ctx = self.ctx.dual("t")

    @property
    def socle_monomial(self) -> ExponentVector:
        """x^((k-1)*(1,...,1) - mu), mu the LEX-largest exponent of p."""
        return ExponentVector(self.ctx, tuple(self.k - 1 - c for c in self.leading_exponent.coords))

    @cached_property
    def _colon(self) -> HomogeneousIdealPresentation:
        return colon_power_ideal(self.k, self.p)

    def colon_ideal(self) -> HomogeneousIdealPresentation:
        return self._colon

    @cached_property
    def _phi(self) -> dict[tuple[int, ...], int]:
        """The socle functional, one primitive integer row with zeros kept:
        phi(x^j), for each degree-M exponent j (M the top degree), is one fixed
        positive multiple of x^j's coordinate on the socle monomial, read from
        the colon ideal's own top slice as Fractions (``_intify`` is ``linalg``'s
        one Fraction entry).  It gives the dual generator and pairings."""
        sl = self._colon.slice(self.top_degree)
        if sl.standard_monomials != (self.socle_monomial,):
            raise DomainError("top graded piece is not spanned by the socle monomial")
        return _intify({j.coords: sl.reduce_monomial(j)[0] for j in sl.monomial_basis})

    def __repr__(self) -> str:
        return f"GorensteinSpec(d={self.d}, k={self.k}, p={self.p})"


def antipodal(spec: GorensteinSpec) -> Polynomial:
    """The antipodal polynomial: support reflected through (k-1)*(1,...,1),
    each coefficient scaled by the multinomial coefficient of the reflection."""
    terms = {}
    for ev, a in spec.p.terms():
        comp = tuple(spec.k - 1 - c for c in ev.coords)
        weight = multinomial(spec.top_degree, comp)
        terms[ExponentVector(spec.dual_ctx, comp)] = a * weight
    return Polynomial(spec.dual_ctx, terms)


def dual_socle_poly(spec: GorensteinSpec) -> Polynomial:
    """(t_1 xbar_1 + ... + t_d xbar_d)^M read off against the socle monomial.

    Expanded by the multinomial theorem, each x^j weighted by the socle
    functional phi(x^j); the result is normalized so its LEX-largest term
    agrees with the antipodal polynomial exactly, which cancels phi's scale.
    """
    raw_poly = Polynomial(spec.dual_ctx, {
        ExponentVector(spec.dual_ctx, j): multinomial(spec.top_degree, j) * c
        for j, c in spec._phi.items() if c
    })
    lead = max(raw_poly.support(), key=lex_key)
    reference = antipodal(spec).coeff(lead)
    if reference == 0:
        raise DomainError("dual socle polynomial support differs from antipodal")
    return raw_poly.scale(reference / raw_poly.coeff(lead))


def verify_gorenstein_ann(spec: GorensteinSpec) -> bool:
    """((x_1^k, ..., x_d^k) : p) == Ann(antipodal(p)), by an inverse-system
    certificate; Ann(antipodal(p)) is never built.

    With I the colon ideal, F = antipodal(p) and M = deg F (Macaulay duality;
    Iarrobino-Kanev, LNM 1721, ch. 1-2), three exact checks decide I = Ann(F):

    1. every generator g of I has g(d/dt) F = 0.  Ann(F) is an ideal, so
       I is contained in Ann(F);
    2. I_(M+1) = R_(M+1), as Ann(F) holds every form of degree > M;
    3. for e <= M, the catalecticant Cat_e(F): R_e -> S_(M-e) has rank
       dim (R/Ann F)_e, which is at most h_I(e) by step 1, with equality iff
       I_e = Ann(F)_e.  Cat_e and Cat_(M-e) differ by a nonzero column
       scaling and a transpose (entry (m, u) is c_(m+u) (m+u)!/u!), so their
       ranks agree and only e <= M/2 is checked: h_I(M-e) > h_I(e) is
       rejected, else the rows of Cat_e at I_e's h_I(e) standard monomials
       must be independent, giving rank h_I(e) >= h_I(M-e).  If I_e =
       Ann(F)_e, no dependency among them exists: it would be a form of I_e
       with no pivot in its support.
    """
    return _is_annihilator_of(spec.colon_ideal(), antipodal(spec))


def _is_annihilator_of(ideal: HomogeneousIdealPresentation, f: Polynomial) -> bool:
    """I == Ann(f) for a homogeneous ideal I and a nonzero form f, by the
    three checks of ``verify_gorenstein_ann``."""
    if not all(diff_action(g, f).is_zero for g in ideal.generators):
        return False
    top, terms = f.homogeneous_degree(), _numerators(f)[0]
    if ideal.slice(top + 1).hilbert_value:
        return False
    for e in range(top // 2 + 1):
        standard = ideal.slice(e).standard_monomials
        if (ideal.slice(top - e).hilbert_value > len(standard)
                or rank(*_catalecticant(terms, standard)) < len(standard)):
            return False
    return True


@dataclass(frozen=True)
class MonomialIffResult:
    is_monomial_ideal: bool
    socle_monomial: ExponentVector
    ann_of_socle_equals_ideal: bool

    @property
    def agree(self) -> bool:
        return self.is_monomial_ideal == self.ann_of_socle_equals_ideal


def monomial_iff_test(spec: GorensteinSpec) -> MonomialIffResult:
    """The ideal equals the annihilator of its socle monomial iff it is a
    monomial ideal; both sides are computed independently."""
    ideal = spec.colon_ideal()
    initial = ideal.initial_monomials()
    is_monomial = ideal.equals(
        HomogeneousIdealPresentation.from_monomial_ideal(initial)
    )
    q = Polynomial.monomial(
        ExponentVector(spec.dual_ctx, spec.socle_monomial.coords)
    )
    ann_equal = ideal.equals(ann_partial(q, spec.ctx))
    return MonomialIffResult(is_monomial, spec.socle_monomial, ann_equal)


@dataclass(frozen=True)
class SeriesSpec:
    """Truncated coefficients a_0, ..., a_M of a formal power series, all
    required nonzero."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(Fraction(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coerced)
        if any(c == 0 for c in coerced):
            raise DomainError("series coefficients must all be nonzero")

    @classmethod
    def exponential(cls, top: int) -> "SeriesSpec":
        return cls(tuple(Fraction(1, math.factorial(n)) for n in range(top + 1)))

    @classmethod
    def geometric(cls, top: int) -> "SeriesSpec":
        return cls((Fraction(1),) * (top + 1))


def series_annihilator_check(spec: GorensteinSpec, series: SeriesSpec) -> bool:
    """Verify I = {g : g(d/dt) f(s) = 0}, s = t_1 xbar_1 + ... + t_d xbar_d,
    for f = a_0 + a_1 z + ... + a_M z^M, M the top quotient degree (longer
    coefficient lists are truncated).

    Lemma: for g of degree e <= M, g(d/dt) f(s) = f^(e)(s) gbar, since
    d/dt_i f(s) = f'(s) xbar_i.  f^(e)(s) has constant term a_e e! != 0 and s
    is nilpotent in (R/I)[t], so it is a unit: the annihilator's degree-e
    piece is I_e for every series with nonzero coefficients.  Left are the
    power boundaries s^M != 0 and s^(M+1) = 0, i.e. (R/I)_M != 0 and
    (R/I)_(M+1) = 0.  ``oracle.brute_series_check`` is the literal expansion.
    """
    ideal = spec.colon_ideal()
    top = spec.top_degree
    if len(series.coeffs) < top + 1:
        raise DomainError(f"need series coefficients a_0..a_{top}")
    if not ideal.slice(top).standard_monomials:
        return False
    return not ideal.slice(top + 1).standard_monomials


def _pairing(spec: GorensteinSpec, i: int) -> tuple[list[dict[int, int]], int]:
    """Row r holds phi(r*c) at column c, phi's zeros skipped, over the
    degree-i and degree-(M-i) standard monomials, phi the integer
    ``spec._phi``: ``rank``'s sparse rows, and the number of columns."""
    if not 0 <= i <= spec.top_degree:
        raise DomainError("pairing degree out of range")
    ideal, phi = spec.colon_ideal(), spec._phi
    cols = [c.coords for c in ideal.slice(spec.top_degree - i).standard_monomials]
    rows = [{j: v for j, c in enumerate(cols) if (v := phi[tuple(map(add, r.coords, c))])}
            for r in ideal.slice(i).standard_monomials]
    return rows, len(cols)


def pairing_matrix(spec: GorensteinSpec, i: int) -> list[list[Fraction]]:
    """Matrix of the multiplication pairing (R/I)_i x (R/I)_(M-i) -> (R/I)_M
    in the standard monomial bases: entry (r, c) is the coordinate of r*c's
    class on the socle monomial, phi(r*c) / phi(socle monomial)."""
    rows, ncols = _pairing(spec, i)
    scale = spec._phi[spec.socle_monomial.coords]
    return [[Fraction(row.get(c, 0), scale) for c in range(ncols)] for row in rows]


def pairing_is_nondegenerate(spec: GorensteinSpec, i: int) -> bool:
    """Full rank of the pairing matrix, ranked on its integer multiple."""
    # spec._phi checks (R/I)_M != 0, so neither basis is empty
    rows, ncols = _pairing(spec, i)
    return rank(rows, ncols) == min(len(rows), ncols)


def random_spec(rng, dims=(2, 3), max_k: int = 4, max_support: int = 4) -> GorensteinSpec:
    """A random ambient spec: search tooling for experiments and tests."""
    d = rng.choice(list(dims))
    k = rng.randint(1, max_k)
    ctx = Context.of_dim(d)
    n = rng.randint(0, d * (k - 1))
    pool = [ev for ev in monomials_of_degree(ctx, n) if all(c <= k - 1 for c in ev.coords)]
    terms = {ev: Fraction(rng.randint(1, 6) * rng.choice([1, -1]), rng.randint(1, 4))
             for ev in rng.sample(pool, rng.randint(1, min(max_support, len(pool))))}
    return GorensteinSpec(k, Polynomial(ctx, terms))
