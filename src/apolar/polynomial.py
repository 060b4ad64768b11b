"""Sparse multivariate polynomials over exact rationals, plus the
differential action and its coefficient-free contraction variant.

The left operand of an action is read as a differential operator, the right
operand as a target; they may live in different variable alphabets (for
instance x-operators acting on t-targets) as long as the dimensions agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from operator import le, sub

from .errors import AmbientMismatchError, DomainError
from .exponents import (
    Context,
    ExponentVector,
    add as ev_add,
    lex_key,
    unit_vector,
)


class Polynomial:
    """A finitely supported map from exponent vectors to rationals."""

    __slots__ = ("ctx", "_terms", "_ints", "_div")
    __hash__ = None

    def __init__(self, ctx: Context, terms=None):
        """``terms`` is a dict {exponent vector: coefficient}; zero terms are
        dropped and each coefficient that is no Fraction is made one.  When
        every coefficient is an int (not a bool), the integer form
        ``_numerators`` would make, the nonzero (exponent, int) pairs in term
        order over 1, is kept here, so it is never rebuilt."""
        self.ctx = ctx
        clean: dict[ExponentVector, Fraction] = {}
        pairs = []  # the nonzero int coefficients, None once one is no int
        for ev, c in (terms or {}).items():
            if ev.ctx != ctx:
                raise AmbientMismatchError("term exponent from a different context")
            if type(c) is not int:
                pairs = None
            elif c and pairs is not None:
                pairs.append((ev.coords, c))
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c != 0:
                clean[ev] = c
        self._terms, self._div = clean, None
        self._ints = None if pairs is None else (tuple(pairs), 1)

    @classmethod
    def zero(cls, ctx: Context) -> "Polynomial":
        return cls(ctx)

    @classmethod
    def constant(cls, ctx: Context, c) -> "Polynomial":
        return cls(ctx, {ExponentVector(ctx, (0,) * ctx.dim): c})

    @classmethod
    def monomial(cls, ev: ExponentVector, coeff=1) -> "Polynomial":
        return cls(ev.ctx, {ev: coeff})

    @classmethod
    def variable(cls, ctx: Context, i: int) -> "Polynomial":
        return cls.monomial(unit_vector(ctx, i))

    def terms(self) -> list[tuple[ExponentVector, Fraction]]:
        """Terms in canonical order (LEX ascending)."""
        return sorted(self._terms.items(), key=lambda t: lex_key(t[0]))

    def coeff(self, ev: ExponentVector) -> Fraction:
        return self._terms.get(ev, Fraction(0))

    def support(self) -> set[ExponentVector]:
        return set(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    def _require_same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise AmbientMismatchError("polynomial arithmetic across contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ctx(other)
        acc = dict(self._terms)
        for ev, c in other._terms.items():
            acc[ev] = acc.get(ev, Fraction(0)) + c
        return Polynomial(self.ctx, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {ev: -c for ev, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.ctx, {ev: c * v for ev, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same_ctx(other)
        acc: dict[ExponentVector, Fraction] = {}
        for ev1, c1 in self._terms.items():
            for ev2, c2 in other._terms.items():
                ev = ev_add(ev1, ev2)
                acc[ev] = acc.get(ev, Fraction(0)) + c1 * c2
        return Polynomial(self.ctx, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.constant(self.ctx, 1)
        for _ in range(n):
            result = result * self
        return result

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if self.is_zero:
            return None
        return max(ev.degree for ev in self._terms)

    def is_homogeneous(self) -> bool:
        return len({ev.degree for ev in self._terms}) <= 1

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; None for zero, error otherwise."""
        degrees = {ev.degree for ev in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise DomainError("polynomial is not homogeneous")
        return degrees.pop()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for ev, c in self.terms():
            mono = str(ev)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _numerators(f: Polynomial) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """The one integer form of f: its (exponent, numerator) pairs over the lcm
    of its denominators, content kept, and that lcm, read by the action, the
    Macaulay rows, the colon map and ``_divided``.  A polynomial built from
    ints gets it in ``__init__``; any other keeps it in ``f._ints`` when first
    made.  Either way it is made once: ``_terms`` is set only in ``__init__``."""
    if f._ints is None:
        den = lcm(*[c.denominator for c in f._terms.values()])
        f._ints = tuple((ev.coords, c.numerator * (den // c.denominator))
                        for ev, c in f._terms.items()), den
    return f._ints


def _divided(f: Polynomial) -> tuple[tuple[tuple[int, ...], int], ...]:
    """f in divided powers: the pairs (s, c*s!), s! = prod s_i!, for the
    numerators c of ``_numerators(f)``, over the same lcm.  Over Q the
    derivative x^p o t^q = q!/(q-p)! t^(q-p) is the contraction of divided
    powers, x^p o t^[q] = t^[q-p] (Iarrobino-Kanev, LNM 1721, App. A), so the
    action and the catalecticant read these weights and no falling factorial.
    Kept in ``f._div`` when first made, as ``_numerators`` keeps its form."""
    if f._div is None:
        f._div = tuple((s, c * _factorial(s)) for s, c in _numerators(f)[0])
    return f._div


def _factorial(s: tuple[int, ...]) -> int:
    """s! = prod s_i! of an exponent tuple."""
    return prod(map(factorial, s))


def _action(op: Polynomial, target: Polynomial, with_coeffs: bool) -> Polynomial:
    """The action summed in integers over the operands' common denominators,
    with a Fraction made only for each nonzero result term.  A term pair
    forms q - p only once p <= q is known.  With coefficients, the target is
    read in divided powers: a*x^p on B*t^[q] adds a*B at r = q - p, and each
    nonzero sum is divided once, exactly, by r!, which divides every q! with
    q >= r."""
    if op.ctx.dim != target.ctx.dim:
        raise AmbientMismatchError("action across different ambient dimensions")
    (op_terms, op_den), (target_terms, target_den) = _numerators(op), _numerators(target)
    if with_coeffs:
        target_terms = _divided(target)
    acc: dict[tuple[int, ...], int] = {}
    for pc, a in op_terms:
        for qc, b in target_terms:
            if all(map(le, pc, qc)):
                rest = tuple(map(sub, qc, pc))
                acc[rest] = acc.get(rest, 0) + a * b
    den, ctx = op_den * target_den, target.ctx
    return Polynomial(ctx, {ExponentVector(ctx, r): Fraction(c // _factorial(r) if with_coeffs else c, den)
                            for r, c in acc.items() if c})


def diff_action(op: Polynomial, target: Polynomial) -> Polynomial:
    """The formal-derivative action: x^p o y^q = prod(q_i!/(q_i-p_i)!) y^(q-p)
    when p <= q componentwise, else 0, extended bilinearly."""
    return _action(op, target, with_coeffs=True)


def contraction_action(op: Polynomial, target: Polynomial) -> Polynomial:
    """The same action with every factorial coefficient replaced by 1."""
    return _action(op, target, with_coeffs=False)


def annihilates(op: Polynomial, target: Polynomial) -> bool:
    """True iff the differential action of op kills the target."""
    return diff_action(op, target).is_zero
