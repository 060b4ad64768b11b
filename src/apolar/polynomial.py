"""Sparse multivariate polynomials over exact rationals, plus the
differential action and its coefficient-free contraction variant.

The left operand of an action is read as a differential operator, the right
operand as a target; they may live in different variable alphabets (for
instance x-operators acting on t-targets) as long as the dimensions agree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
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
    """A finitely supported map from exponent vectors to rationals, kept in
    whichever of two forms it is handed: the ``Fraction`` term dict
    {exponent vector: nonzero coefficient}, or the integer form that
    ``_numerators`` describes.  The other form is made on first read, at
    most once.  ``is_zero`` and the degree queries read whichever form
    exists; ``terms``, ``coeff``, ``support``, ``==``, ``str`` and the
    arithmetic read the Fraction form."""

    __slots__ = ("ctx", "_terms", "_ints", "_div")
    __hash__ = None

    def __init__(self, ctx: Context, terms=None):
        """``terms`` is a dict {exponent vector: coefficient}; zero terms are
        dropped.  When every coefficient is an int (not a bool), only the
        integer form is kept, its nonzero (exponent, int) pairs in dict order
        over 1; otherwise only the Fraction form, each coefficient that is no
        Fraction made one."""
        self.ctx, self._div = ctx, None
        terms = terms or {}
        for ev in terms:
            if ev.ctx != ctx:
                raise AmbientMismatchError("term exponent from a different context")
        if all(type(c) is int for c in terms.values()):
            self._terms = None
            self._ints = tuple((ev.coords, c) for ev, c in terms.items() if c), 1
        else:
            self._ints = None
            self._terms = {ev: c if isinstance(c, Fraction) else Fraction(c)
                           for ev, c in terms.items() if c}

    @classmethod
    def _from_ints(cls, ctx: Context, pairs, den: int) -> "Polynomial":
        """The polynomial sum c/den * x^s over the (exponent tuple, int) pairs,
        exponents distinct and of ``ctx``'s length, den > 0, kept in integer
        form: zero pairs dropped, then every numerator and den divided by
        their one gcd g.  Each c/den reduces to a denominator den/a_i with
        a_i = gcd(c_i, den) dividing den, and lcm(den/a_i) = den/gcd(a_i) =
        den/g, so the result keeps ``_numerators``' lcm contract."""
        pairs = [(s, c) for s, c in pairs if c]
        g = gcd(den, *[c for _, c in pairs])
        if g > 1:
            pairs, den = [(s, c // g) for s, c in pairs], den // g
        f = object.__new__(cls)
        f.ctx, f._terms, f._ints, f._div = ctx, None, (tuple(pairs), den), None
        return f

    def _fractions(self) -> dict[ExponentVector, Fraction]:
        """The Fraction form, made from the integer form on first read."""
        if self._terms is None:
            pairs, den = self._ints
            ctx = self.ctx
            self._terms = {ExponentVector(ctx, s): Fraction(c, den) for s, c in pairs}
        return self._terms

    def _degrees(self):
        """The degree of each term, read from whichever form exists."""
        if self._terms is not None:
            return (ev.degree for ev in self._terms)
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
        return sorted(self._fractions().items(), key=lambda t: lex_key(t[0]))

    def coeff(self, ev: ExponentVector) -> Fraction:
        return self._fractions().get(ev, Fraction(0))

    def support(self) -> set[ExponentVector]:
        return set(self._fractions())

    @property
    def is_zero(self) -> bool:
        return not (self._ints[0] if self._terms is None else self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self._fractions() == other._fractions()
        )

    def _require_same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise AmbientMismatchError("polynomial arithmetic across contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ctx(other)
        acc = dict(self._fractions())
        for ev, c in other._fractions().items():
            acc[ev] = acc.get(ev, Fraction(0)) + c
        return Polynomial(self.ctx, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {ev: -c for ev, c in self._fractions().items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.ctx, {ev: c * v for ev, v in self._fractions().items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same_ctx(other)
        acc: dict[ExponentVector, Fraction] = {}
        for ev1, c1 in self._fractions().items():
            for ev2, c2 in other._fractions().items():
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
    """The one integer form of f: its (exponent, numerator) pairs over the lcm
    of its denominators, content kept, and that lcm, read by the action, the
    Macaulay rows, the colon map and ``_divided``.  A polynomial handed ints
    or this form (``Polynomial._from_ints``) holds it from the start; one
    handed Fractions makes it here on first read and keeps it in ``f._ints``.
    Either way it is made once, and the Fraction form, once made, never
    changes, so the two always agree."""
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
