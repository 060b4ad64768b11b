"""Monomial ideals as upsets of N_0^d, in pure integer combinatorics.

The operations here never touch coefficients: docle, inverse ideal,
saturation, the closure operator and the unique J-cap-H decomposition are
all computed on generator antichains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import AmbientMismatchError, DomainError
from .exponents import Context, ExponentVector, leq, lex_key, zero_vector


@dataclass(frozen=True)
class Antichain:
    """A finite set of pairwise incomparable exponent vectors, LEX-sorted."""

    ctx: Context
    elems: tuple[ExponentVector, ...]

    def __post_init__(self):
        for e in self.elems:
            if e.ctx != self.ctx:
                raise AmbientMismatchError("antichain element from a different context")
        sorted_elems = tuple(sorted(set(self.elems), key=lex_key))
        object.__setattr__(self, "elems", sorted_elems)
        for a, b in itertools.combinations(sorted_elems, 2):
            if leq(a, b) or leq(b, a):
                raise DomainError(f"comparable pair in antichain: {a}, {b}")

    @classmethod
    def maxima(cls, ctx: Context, points) -> "Antichain":
        """The antichain of componentwise-maximal elements of a finite set."""
        pts = list(set(points))
        keep = [p for p in pts if not any(q != p and leq(p, q) for q in pts)]
        return cls(ctx, tuple(keep))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elems) + "}"


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its unique minimal generator antichain.

    Equality is structural equality of the canonical generator tuple;
    ``whole_poset`` is a display-only marker set by ``closure`` when the
    closed object is the full monoid, and is ignored by comparisons.
    """

    ctx: Context
    gens: tuple[ExponentVector, ...]
    whole_poset: bool = field(default=False, compare=False)

    @classmethod
    def from_generators(cls, ctx: Context, raw, whole_poset: bool = False) -> "MonomialIdeal":
        gens = list(set(raw))
        for g in gens:
            if g.ctx != ctx:
                raise AmbientMismatchError("generator from a different context")
        minimal = [
            g for g in gens
            if not any(h != g and leq(h, g) for h in gens)
        ]
        minimal.sort(key=lex_key)
        return cls(ctx, tuple(minimal), whole_poset)

    @classmethod
    def zero(cls, ctx: Context) -> "MonomialIdeal":
        return cls(ctx, ())

    @classmethod
    def unit(cls, ctx: Context, whole_poset: bool = False) -> "MonomialIdeal":
        return cls(ctx, (zero_vector(ctx),), whole_poset)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree == 0

    @property
    def is_zero_dimensional(self) -> bool:
        """True iff every variable occurs as a pure power generator."""
        d = self.ctx.dim
        if self.is_unit:
            return True
        covered = set()
        for g in self.gens:
            support = [i for i, c in enumerate(g.coords) if c > 0]
            if len(support) == 1:
                covered.add(support[0])
        return len(covered) == d

    def contains(self, m: ExponentVector) -> bool:
        if m.ctx != self.ctx:
            raise AmbientMismatchError("membership test across contexts")
        return any(leq(g, m) for g in self.gens)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def is_subideal(inner: MonomialIdeal, outer: MonomialIdeal) -> bool:
    """inner is contained in outer (every generator of inner lies in outer)."""
    if inner.ctx != outer.ctx:
        raise AmbientMismatchError("containment test across contexts")
    return all(outer.contains(g) for g in inner.gens)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection, via componentwise max (lcm) of generator pairs."""
    if a.ctx != b.ctx:
        raise AmbientMismatchError("intersection across contexts")
    lcms = [
        ExponentVector(a.ctx, tuple(max(x, y) for x, y in zip(g.coords, h.coords)))
        for g in a.gens
        for h in b.gens
    ]
    return MonomialIdeal.from_generators(a.ctx, lcms)


def _membership_grid(ideal: MonomialIdeal, box: tuple[int, ...]):
    """Flat boolean table of upset membership over prod([0, box_i])."""
    d = ideal.ctx.dim
    sizes = [b + 1 for b in box]
    strides = [0] * d
    acc = 1
    for i in range(d - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]
    table = [False] * acc
    gen_idx = set()
    for g in ideal.gens:
        if all(c <= b for c, b in zip(g.coords, box)):
            gen_idx.add(sum(c * s for c, s in zip(g.coords, strides)))
    for idx, coords in enumerate(itertools.product(*(range(s) for s in sizes))):
        if idx in gen_idx:
            table[idx] = True
            continue
        for i in range(d):
            if coords[i] and table[idx - strides[i]]:
                table[idx] = True
                break
    return table, strides


def _docle_or_empty(ideal: MonomialIdeal) -> Antichain:
    """The docle as an antichain; empty for the zero and unit ideals."""
    if ideal.is_zero or ideal.is_unit:
        return Antichain(ideal.ctx, ())
    d = ideal.ctx.dim
    # Candidate grid: each coordinate of a docle point is g_i - 1 for some
    # generator g with g_i >= 1.
    candidates = []
    for i in range(d):
        vals = sorted({g.coords[i] - 1 for g in ideal.gens if g.coords[i] >= 1})
        if not vals:
            return Antichain(ideal.ctx, ())
        candidates.append(vals)
    box = tuple(max(g.coords[i] for g in ideal.gens) for i in range(d))
    table, strides = _membership_grid(ideal, box)
    found = []
    for coords in itertools.product(*candidates):
        idx = sum(c * s for c, s in zip(coords, strides))
        if table[idx]:
            continue
        if all(table[idx + strides[i]] for i in range(d)):
            found.append(ExponentVector(ideal.ctx, coords))
    return Antichain(ideal.ctx, tuple(found))


def docle(ideal: MonomialIdeal) -> Antichain:
    """Maximal monomials outside the ideal: the monomials of Soc(I) \\ I."""
    if ideal.is_unit:
        raise DomainError("docle of the unit ideal is undefined")
    if ideal.is_zero:
        raise DomainError("docle of the zero ideal is undefined")
    return _docle_or_empty(ideal)


def inverse_ideal(antichain: Antichain) -> MonomialIdeal:
    """The unique zero-dimensional monomial ideal with the given docle.

    Computed as the intersection over points s of the irreducible ideals
    (x1^(s1+1), ..., xd^(sd+1)).
    """
    if not antichain.elems:
        raise DomainError("inverse ideal of an empty antichain is undefined")
    ctx = antichain.ctx
    d = ctx.dim
    result = None
    for s in antichain.elems:
        irred = MonomialIdeal.from_generators(
            ctx,
            [
                ExponentVector(ctx, tuple(s.coords[i] + 1 if i == j else 0 for i in range(d)))
                for j in range(d)
            ],
        )
        result = irred if result is None else intersect(result, irred)
    return result


def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """(I : x_var) for a 0-based variable index."""
    d = ideal.ctx.dim
    if not 0 <= var < d:
        raise DomainError(f"variable index {var} out of range for dim {d}")
    shifted = [
        ExponentVector(
            ideal.ctx,
            tuple(c - 1 if i == var and c >= 1 else c for i, c in enumerate(g.coords)),
        )
        for g in ideal.gens
    ]
    return MonomialIdeal.from_generators(ideal.ctx, shifted)


def colon_var_saturate(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """(I : x_var^infinity): the var coordinate of every generator is zeroed."""
    d = ideal.ctx.dim
    if not 0 <= var < d:
        raise DomainError(f"variable index {var} out of range for dim {d}")
    zeroed = [
        ExponentVector(
            ideal.ctx,
            tuple(0 if i == var else c for i, c in enumerate(g.coords)),
        )
        for g in ideal.gens
    ]
    return MonomialIdeal.from_generators(ideal.ctx, zeroed)


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """(I : m^infinity), the intersection of the (I : x_i^infinity)."""
    if ideal.is_unit:
        raise DomainError("saturation of the unit ideal is undefined")
    if ideal.is_zero:
        raise DomainError("saturation of the zero ideal is undefined")
    result = colon_var_saturate(ideal, 0)
    for i in range(1, ideal.ctx.dim):
        result = intersect(result, colon_var_saturate(ideal, i))
    return result


def decompose(ideal: MonomialIdeal) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The unique pair (J, H) with I = J cap H, H zero-dimensional,
    docle(H) = docle(I) and docle(J) empty."""
    m = docle(ideal)
    if not m.elems:
        raise DomainError("decompose requires a nonempty docle")
    j = saturate(ideal)
    h = inverse_ideal(m)
    if intersect(j, h) != ideal:
        raise RuntimeError("decompose postcondition failed: J cap H != I")
    if not h.is_zero_dimensional:
        raise RuntimeError("decompose postcondition failed: H is not zero-dimensional")
    if _docle_or_empty(h) != m:
        raise RuntimeError("decompose postcondition failed: docle(H) != docle(I)")
    if _docle_or_empty(j).elems:
        raise RuntimeError("decompose postcondition failed: docle(J) is not empty")
    return j, h


def closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """The closure I(G \\ D(docle(I))); the whole monoid when the docle is empty.

    The whole-monoid case is returned as the unit ideal with the
    ``whole_poset`` marker set.
    """
    m = _docle_or_empty(ideal)
    if not m.elems:
        return MonomialIdeal.unit(ideal.ctx, whole_poset=True)
    return inverse_ideal(m)


def sq_leq(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """The order: a <= b iff a is a subideal of b and docle(b) <= docle(a)."""
    if a.ctx != b.ctx:
        raise AmbientMismatchError("square-order comparison across contexts")
    if not is_subideal(a, b):
        return False
    doc_a = set(_docle_or_empty(a).elems)
    doc_b = set(_docle_or_empty(b).elems)
    return doc_b <= doc_a
