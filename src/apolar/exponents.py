"""Exponent vectors of a fixed ambient dimension and the two orders on them.

A monomial x1^a1*...*xd^ad is identified with its exponent vector
(a1, ..., ad).  Two orders matter: the componentwise partial order ``leq``
(divisibility of monomials) and the total order ``lex_cmp`` determined by
x1 < x2 < ... < xd, which compares the *last* coordinate first.

``Context`` and ``ExponentVector`` are frozen, slotted value types.  Their
``__init__`` stores tuples and checks every input (string names, distinct
and at least one; as many coordinates as names, none negative);
``monomials_of_degree`` alone skips it.  Equality tries identity first.  A
context hashes its names and a vector its coordinates alone: vectors over
different names may share a hash but never compare equal, and a set of
vectors iterates in one order whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientMismatchError, DomainError

# Entries kept by each monomial-list cache below, least recently used dropped
# first; a Gorenstein computation touches a few dozen, so a long-lived
# process stays bounded without re-listing anything a computation reuses.
CACHE_SIZE = 1024


@dataclass(frozen=True, slots=True, init=False)
class Context:
    """Ambient context: the number of variables and their display names.

    Every exponent vector, ideal and polynomial is tied to a context.
    Values whose contexts differ structurally never mix in arithmetic;
    operator/target actions only require equal dimension.
    """

    names: tuple[str, ...]

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise DomainError("ambient context needs at least one variable")
        for name in names:
            if not isinstance(name, str):
                raise DomainError(f"variable name {name!r} is not a string")
        if len(set(names)) != len(names):
            raise DomainError("variable names must be distinct")
        object.__setattr__(self, "names", names)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Context:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    @classmethod
    def of_dim(cls, d: int, prefix: str = "x") -> "Context":
        if d < 1:
            raise DomainError("ambient dimension must be >= 1")
        return cls(tuple(f"{prefix}{i}" for i in range(1, d + 1)))

    @property
    def dim(self) -> int:
        return len(self.names)

    def dual(self, prefix: str = "t") -> "Context":
        """Same dimension, fresh variable alphabet (operators vs targets)."""
        return Context.of_dim(self.dim, prefix)


@dataclass(frozen=True, slots=True, init=False)
class ExponentVector:
    """A point of N_0^d, i.e. the exponent vector of a monomial."""

    ctx: Context
    coords: tuple[int, ...]

    def __init__(self, ctx: Context, coords):
        coords = tuple(coords)
        if len(coords) != len(ctx.names):
            raise AmbientMismatchError(
                f"expected {len(ctx.names)} coordinates, got {len(coords)}"
            )
        if min(coords) < 0:  # a context has at least one variable
            raise DomainError(f"negative exponent in {coords}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ExponentVector:
            return NotImplemented
        return self.coords == other.coords and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.coords)

    @property
    def degree(self) -> int:
        return sum(self.coords)

    def __str__(self) -> str:
        parts = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(self.ctx.names, self.coords)
            if e != 0
        ]
        return "*".join(parts) if parts else "1"


def zero_vector(ctx: Context) -> ExponentVector:
    return ExponentVector(ctx, (0,) * ctx.dim)


def unit_vector(ctx: Context, i: int) -> ExponentVector:
    """The i-th (0-based) standard unit vector e_i."""
    if not 0 <= i < ctx.dim:
        raise DomainError(f"variable index {i} out of range for dim {ctx.dim}")
    return ExponentVector(ctx, tuple(1 if j == i else 0 for j in range(ctx.dim)))


def _require_same_dim(a: ExponentVector, b: ExponentVector) -> None:
    if a.ctx.dim != b.ctx.dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ctx.dim} vs {b.ctx.dim}"
        )


def _require_same_ctx(a: ExponentVector, b: ExponentVector) -> None:
    if a.ctx != b.ctx:
        raise AmbientMismatchError(f"ambient contexts differ: {a.ctx} vs {b.ctx}")


def leq(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise a <= b, i.e. the monomial of a divides that of b."""
    _require_same_dim(a, b)
    return all(x <= y for x, y in zip(a.coords, b.coords))


def lex_cmp(a: ExponentVector, b: ExponentVector) -> int:
    """LEX comparison (-1, 0, +1) with the last coordinate most significant."""
    _require_same_dim(a, b)
    for x, y in zip(reversed(a.coords), reversed(b.coords)):
        if x != y:
            return -1 if x < y else 1
    return 0


def lex_key(a: ExponentVector) -> tuple[int, ...]:
    """Sort key realizing lex_cmp: ascending sort puts LEX-smallest first."""
    return a.coords[::-1]


def add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    _require_same_ctx(a, b)
    return ExponentVector(a.ctx, tuple(x + y for x, y in zip(a.coords, b.coords)))


def sub_checked(a: ExponentVector, b: ExponentVector) -> ExponentVector | None:
    """a - b componentwise, or None if any coordinate would go negative."""
    _require_same_ctx(a, b)
    diff = tuple(x - y for x, y in zip(a.coords, b.coords))
    if any(c < 0 for c in diff):
        return None
    return ExponentVector(a.ctx, diff)


def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The ways to write total as parts nonnegative parts, LEX-descending:
    the last part runs from total down, as it is the most significant.
    Each one follows from the one before without recursion, so any number
    of parts is listed: take one unit from the first part after the first
    that holds any and put it, with all of the first part, a place lower."""
    if total < 0:
        return ()
    p, i = [0] * (parts - 1) + [total], 1  # p[1:i] are zero
    out = [tuple(p)]
    while True:
        while i < parts and not p[i]:
            i += 1
        if i == parts:
            return tuple(out)
        p[i] -= 1
        p[0], p[i - 1] = 0, p[0] + 1
        out.append(tuple(p))
        if i > 1:
            i -= 1


@lru_cache(maxsize=CACHE_SIZE)
def monomials_of_degree(ctx: Context, n: int) -> tuple[ExponentVector, ...]:
    """All exponent vectors of total degree n, LEX-descending (leading first),
    made without ``__init__``'s checks: compositions are valid by construction."""
    out = []
    for c in _compositions(n, ctx.dim):
        ev = object.__new__(ExponentVector)
        object.__setattr__(ev, "ctx", ctx)
        object.__setattr__(ev, "coords", c)
        out.append(ev)
    return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
def box_monomials_of_degree(ctx: Context, n: int, cap: int) -> tuple[ExponentVector, ...]:
    """Degree-n exponent vectors with every coordinate <= cap, LEX-descending."""
    return tuple(
        ev for ev in monomials_of_degree(ctx, n) if all(c <= cap for c in ev.coords)
    )
