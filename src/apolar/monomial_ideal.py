"""Monomial ideals as upsets of N_0^d, in pure integer combinatorics.

The operations here never touch coefficients: docle, inverse ideal,
saturation, the closure operator and the unique J-cap-H decomposition are
all computed on generator antichains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import inf
from operator import ge, le, neg

from .errors import AmbientMismatchError, DomainError
from .exponents import Context, ExponentVector, lex_key, zero_vector


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
        for a, b in itertools.combinations([e.coords for e in sorted_elems], 2):
            # LEX order puts a proper divisor first, so only a | b can hold.
            if all(map(le, a, b)):
                raise DomainError("comparable pair in antichain: "
                                  f"{ExponentVector(self.ctx, a)}, {ExponentVector(self.ctx, b)}")

    @classmethod
    def _trusted(cls, ctx: Context, elems) -> "Antichain":
        """An antichain of distinct, pairwise incomparable ``ctx`` vectors,
        such as an irredundant fold's output: LEX-sorted, with no check."""
        out = object.__new__(cls)
        object.__setattr__(out, "ctx", ctx)
        object.__setattr__(out, "elems", tuple(sorted(elems, key=lex_key)))
        return out

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elems) + "}"

    @cached_property
    def _inverse_ideal(self) -> "MonomialIdeal":
        """``inverse_ideal(self)``, folded once per antichain."""
        codes = [tuple(c + 1 for c in s.coords) for s in self.elems]
        return _intersection(MonomialIdeal.unit(self.ctx), codes)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its unique minimal generator antichain.

    Equality is structural equality of the canonical generator tuple.
    """

    ctx: Context
    gens: tuple[ExponentVector, ...]

    @classmethod
    def from_generators(cls, ctx: Context, raw) -> "MonomialIdeal":
        by_coords = {}
        for g in raw:
            if g.ctx != ctx:
                raise AmbientMismatchError("generator from a different context")
            by_coords[g.coords] = g
        minimal = [by_coords[c] for c in _minimal(by_coords)]
        return cls(ctx, tuple(sorted(minimal, key=lex_key)))

    @classmethod
    def zero(cls, ctx: Context) -> "MonomialIdeal":
        return cls(ctx, ())

    @classmethod
    def unit(cls, ctx: Context) -> "MonomialIdeal":
        return cls(ctx, (zero_vector(ctx),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree == 0

    @property
    def whole_poset(self) -> bool:
        """Whether the ideal is the full monoid, as ``closure`` marks it: the
        unit ideal, which ``closure`` returns exactly when the docle is empty
        (the inverse ideal of a nonempty antichain is never the unit ideal)."""
        return self.is_unit

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
        return _in_upset((g.coords for g in self.gens), m.coords)

    @cached_property
    def _components(self) -> tuple[tuple, ...]:
        """The codes of the irredundant irreducible components, folded once per ideal."""
        return tuple(_fold_splits([(inf,) * self.ctx.dim], [g.coords for g in self.gens]))

    @cached_property
    def _docle(self) -> Antichain:
        """The docle: the codes with every a_i finite, shifted by -1.  The
        fold's codes are irredundant, so they form an antichain as they are."""
        return Antichain._trusted(self.ctx, tuple(
            ExponentVector(self.ctx, tuple(x - 1 for x in a))
            for a in self._components if inf not in a
        ))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def is_subideal(inner: MonomialIdeal, outer: MonomialIdeal) -> bool:
    """inner is contained in outer (every generator of inner lies in outer)."""
    if inner.ctx != outer.ctx:
        raise AmbientMismatchError("containment test across contexts")
    gens = [g.coords for g in outer.gens]
    return all(_in_upset(gens, g.coords) for g in inner.gens)


def _in_upset(gens, c: tuple) -> bool:
    """Some generator, given by its coordinates, divides the monomial with coordinates c."""
    return any(all(map(le, g, c)) for g in gens)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection: the ideal with more generators cut by the irreducible
    components of the other, through ``_intersection``."""
    if a.ctx != b.ctx:
        raise AmbientMismatchError("intersection across contexts")
    if len(a.gens) < len(b.gens):
        a, b = b, a
    return _intersection(a, b._components)


def _minimal(points) -> list[tuple]:
    """The componentwise-minimal tuples of a finite set of coordinate tuples.

    A proper divisor has a smaller degree, so in degree order each tuple need
    only be checked against the minimal ones of lower degrees.
    """
    minimal = []
    for _, same_degree in itertools.groupby(sorted(set(points), key=sum), key=sum):
        minimal += [c for c in same_degree if not any(all(map(le, h, c)) for h in minimal)]
    return minimal


def _fold_splits(codes, pivots) -> list[tuple]:
    """Fold the split step over ``pivots``, starting from an antichain of codes.

    A code a stands for the irreducible ideal m^a = (x_i^a_i : a_i finite),
    +inf coding an absent variable, and a list of codes for their
    intersection.  Adding a generator x^g leaves m^a alone if it already
    holds x^g (some g_i >= a_i); otherwise m^a + (x^g) is the intersection of
    the m^a with a_i replaced by g_i, one for each finite nonzero g_i (a zero
    or infinite g_i is an absent variable and splits nothing).  A code below
    another is redundant and dropped, so the result is the irredundant
    irreducible decomposition (Miller-Sturmfels, Combinatorial Commutative
    Algebra, ch. 5; Roune, JSC 44, 2009).  That decomposition is unique, so
    the pivot order is free; they are taken sorted.  ``_intersection`` folds
    the same step with every coordinate negated.

    A pivot that cuts no code changes nothing and is skipped.  Each split is
    tested against the other cut codes' splits only when more than one code
    is cut, and against the kept codes only once it survives that test.

    Sorted pivots never lower g_0, and a cut needs g_0 < a_0, so a code with
    a_0 < g_0 is cut by no later pivot.  Every later split b has b_0 >= g_0 >
    a_0, so none lies below it: it is retired, to be tested no more.
    """
    retired = []
    for g in sorted(pivots):
        stay, cut = [], []
        for a in codes:
            (retired if a[0] < g[0] else stay if any(map(ge, g, a)) else cut).append(a)
        codes = list(stay)
        if not cut:
            continue
        for i, x in enumerate(g):
            if not 0 < abs(x) < inf:
                continue
            # g_j < a_j for every cut a, so a code split at i can lie below
            # only another split at i or a kept code c with c_i = g_i; it
            # equals no kept code, as that code would lie below a.  Of equal
            # splits the first is kept.
            splits = [a[:i] + (x,) + a[i + 1:] for a in cut]
            level = None
            for n, b in enumerate(splits):
                if len(splits) > 1 and (
                    any(all(map(le, b, c)) for c in splits[:n])
                    or any(b != c and all(map(le, b, c)) for c in splits[n + 1:])
                ):
                    continue
                if level is None:
                    level = [c for c in stay if c[i] == x]
                if not level or not any(all(map(le, b, c)) for c in level):
                    codes.append(b)
    return codes + retired


def _intersection(ideal: MonomialIdeal, codes) -> MonomialIdeal:
    """``ideal`` cap the m^a over the codes a: the split fold run with every
    coordinate negated, from the negated generators of ``ideal``.  There the
    codes stand for the ideal their negations generate, and a pivot -a cuts
    it down to its intersection with m^a; negated back, they are its minimal
    generators."""
    negated = _fold_splits([tuple(map(neg, g.coords)) for g in ideal.gens],
                           [tuple(map(neg, a)) for a in codes])
    gens = [ExponentVector(ideal.ctx, tuple(map(neg, c))) for c in negated]
    return MonomialIdeal(ideal.ctx, tuple(sorted(gens, key=lex_key)))


def docle(ideal: MonomialIdeal) -> Antichain:
    """Maximal monomials outside the ideal: the monomials of Soc(I) \\ I."""
    if ideal.is_unit:
        raise DomainError("docle of the unit ideal is undefined")
    if ideal.is_zero:
        raise DomainError("docle of the zero ideal is undefined")
    return ideal._docle


def inverse_ideal(antichain: Antichain) -> MonomialIdeal:
    """The unique zero-dimensional monomial ideal with the given docle.

    This is the intersection over points s of the irreducible ideals
    m^(s+1) = (x1^(s1+1), ..., xd^(sd+1)).  The result is stored on the
    antichain; its own docle is not, so checking it against the antichain
    folds it afresh.
    """
    if not antichain.elems:
        raise DomainError("inverse ideal of an empty antichain is undefined")
    return antichain._inverse_ideal


def _map_var(ideal: MonomialIdeal, var: int, f) -> MonomialIdeal:
    """The ideal generated by the generators with coordinate var replaced by f of it."""
    d = ideal.ctx.dim
    if not 0 <= var < d:
        raise DomainError(f"variable index {var} out of range for dim {d}")
    mapped = [ExponentVector(ideal.ctx, g.coords[:var] + (f(g.coords[var]),) + g.coords[var + 1:])
              for g in ideal.gens]
    return MonomialIdeal.from_generators(ideal.ctx, mapped)


def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """(I : x_var) for a 0-based variable index."""
    return _map_var(ideal, var, lambda c: max(c - 1, 0))


def colon_var_saturate(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """(I : x_var^infinity): the var coordinate of every generator is zeroed."""
    return _map_var(ideal, var, lambda c: 0)


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """(I : m^infinity): the intersection of the components m^a with an
    infinite a_i, as the m-primary ones become the unit ideal."""
    if ideal.is_unit:
        raise DomainError("saturation of the unit ideal is undefined")
    if ideal.is_zero:
        raise DomainError("saturation of the zero ideal is undefined")
    return _intersection(MonomialIdeal.unit(ideal.ctx), [a for a in ideal._components if inf in a])


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
    if h._docle != m:
        raise RuntimeError("decompose postcondition failed: docle(H) != docle(I)")
    if j._docle.elems:
        raise RuntimeError("decompose postcondition failed: docle(J) is not empty")
    return j, h


def closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """The closure I(G \\ D(docle(I))); the whole monoid, the unit ideal,
    when the docle is empty."""
    m = ideal._docle
    if not m.elems:
        return MonomialIdeal.unit(ideal.ctx)
    return inverse_ideal(m)


def sq_leq(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """The order: a <= b iff a is a subideal of b and docle(b) <= docle(a)."""
    if a.ctx != b.ctx:
        raise AmbientMismatchError("square-order comparison across contexts")
    if not is_subideal(a, b):
        return False
    return set(b._docle.elems) <= set(a._docle.elems)
