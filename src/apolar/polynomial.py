"""Sparse multivariate polynomials over exact rationals, plus the
differential action and its coefficient-free contraction variant.

The left operand of an action is read as a differential operator, the right
operand as a target; they may live in different variable alphabets (for
instance x-operators acting on t-targets) as long as the dimensions agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add, le, sub

from .errors import AmbientMismatchError, DomainError
from .exponents import (
    Context,
    ExponentVector,
    lex_key,
    unit_vector,
)


class Polynomial:
    """A finitely supported map from exponent vectors to rationals, held only
    in the canonical integer form ``_numerators`` describes: ``==`` compares
    it, the arithmetic works on it and makes no Fraction, and ``terms``,
    ``coeff`` and ``support`` build their Fractions from it on each read."""

    __slots__ = ("ctx", "_ints", "_div")
    __hash__ = None

    def __init__(self, ctx: Context, terms=None):
        """``terms`` is a dict {exponent vector: coefficient}; zero terms are
        dropped and the rest kept, in dict order, as numerators over the lcm
        of their denominators, so an all-int dict is kept over 1."""
        self.ctx, self._div = ctx, None
        terms = terms or {}
        for ev in terms:
            if ev.ctx != ctx:
                raise AmbientMismatchError("term exponent from a different context")
        pairs = [(ev.coords, c if type(c) is int else Fraction(c)) for ev, c in terms.items() if c]
        den = lcm(*[c.denominator for _, c in pairs])
        self._ints = tuple((s, c.numerator * (den // c.denominator)) for s, c in pairs), den

    @classmethod
    def _from_ints(cls, ctx: Context, pairs, den: int) -> "Polynomial":
        """The polynomial sum c/den * x^s over the (exponent tuple, int) pairs,
        exponents distinct and of ``ctx``'s length, den > 0: zero pairs
        dropped, then every numerator and den divided by their one gcd g.
        Each c/den reduces to a denominator den/a_i with a_i = gcd(c_i, den)
        dividing den, and lcm(den/a_i) = den/gcd(a_i) = den/g, so the result
        keeps ``_numerators``' lcm contract."""
        pairs = [(s, c) for s, c in pairs if c]
        g = gcd(den, *[c for _, c in pairs])
        if g > 1:
            pairs, den = [(s, c // g) for s, c in pairs], den // g
        f = object.__new__(cls)
        f.ctx, f._ints, f._div = ctx, (tuple(pairs), den), None
        return f

    def _degrees(self):
        return (sum(s) for s, _ in self._ints[0])

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
        pairs, den = self._ints
        return sorted(((ExponentVector(self.ctx, s), Fraction(c, den)) for s, c in pairs),
                      key=lambda t: lex_key(t[0]))

    def coeff(self, ev: ExponentVector) -> Fraction:
        """The coefficient of x^ev, 0 for a vector of another context."""
        pairs, den = self._ints
        c = next((c for s, c in pairs if s == ev.coords), 0) if ev.ctx == self.ctx else 0
        return Fraction(c, den)

    def support(self) -> set[ExponentVector]:
        return {ExponentVector(self.ctx, s) for s, _ in self._ints[0]}

    @property
    def is_zero(self) -> bool:
        return not self._ints[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self._ints[1] == other._ints[1]
            and dict(self._ints[0]) == dict(other._ints[0])
        )

    def _require_same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise AmbientMismatchError("polynomial arithmetic across contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ctx(other)
        (pairs, a), (other_pairs, b) = self._ints, other._ints
        acc = {s: c * b for s, c in pairs}
        for s, c in other_pairs:
            acc[s] = acc.get(s, 0) + c * a
        return Polynomial._from_ints(self.ctx, acc.items(), a * b)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        pairs, den = self._ints
        return Polynomial._from_ints(self.ctx, [(s, v * c.numerator) for s, v in pairs],
                                     den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same_ctx(other)
        (pairs, a), (other_pairs, b) = self._ints, other._ints
        acc: dict[tuple[int, ...], int] = {}
        for s, c in pairs:
            for t, v in other_pairs:
                u = tuple(map(add, s, t))
                acc[u] = acc.get(u, 0) + c * v
        return Polynomial._from_ints(self.ctx, acc.items(), a * b)

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
        return max(self._degrees())

    def is_homogeneous(self) -> bool:
        return len(set(self._degrees())) <= 1

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; None for zero, error otherwise."""
        degrees = set(self._degrees())
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
    """The one form of f: its (exponent, numerator) pairs over the lcm of its
    denominators, content kept, and that lcm, read by the action, the
    Macaulay rows, the colon map and ``_divided``.  Every constructor leaves
    f in it, so it is read, never made, here."""
    return f._ints


def _divided(f: Polynomial) -> tuple[tuple[tuple[int, ...], int], ...]:
    """f in divided powers: the pairs (s, c*s!), s! = prod s_i!, for the
    numerators c of ``_numerators(f)``, over the same lcm.  Over Q the
    derivative x^p o t^q = q!/(q-p)! t^(q-p) is the contraction of divided
    powers, x^p o t^[q] = t^[q-p] (Iarrobino-Kanev, LNM 1721, App. A), so the
    action and the catalecticant read these weights and no falling factorial.
    Kept in ``f._div`` when first made."""
    if f._div is None:
        f._div = tuple((s, c * _factorial(s)) for s, c in _numerators(f)[0])
    return f._div


def _factorial(s: tuple[int, ...]) -> int:
    """s! = prod s_i! of an exponent tuple."""
    return prod(map(factorial, s))


def _action(op: Polynomial, target: Polynomial, with_coeffs: bool) -> Polynomial:
    """The action summed in integers over the operands' common denominators,
    and handed over in integer form, so no Fraction is made.  A term pair
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
    if with_coeffs:
        acc = {r: c // _factorial(r) for r, c in acc.items() if c}
    return Polynomial._from_ints(target.ctx, acc.items(), op_den * target_den)


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
