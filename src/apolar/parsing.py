"""Text input for monomials, polynomials, ideals and antichains.

Grammar (whitespace insensitive)::

    ideal     := "(" poly ("," poly)* ")"
    antichain := "{" monomial ("," monomial)* "}"
    poly      := ("+"|"-")? term (("+"|"-") term)*
    term      := coeff ("*"? factors)? | factors
    coeff     := INT ("/" INT)?
    factors   := factor ("*"? factor)*
    factor    := VAR ("^" INT)?
    rationals := ("+"|"-")? coeff ("," ("+"|"-")? coeff)*
    naturals  := INT ("," INT)*

Variable tokens are matched greedily against the context's declared names,
so single-letter alphabets allow implicit products like ``xy``.  A unicode
minus sign is accepted as "-".  Errors carry 0-based character offsets.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .exponents import Context, ExponentVector
from .graded_engine import HomogeneousIdealPresentation
from .monomial_ideal import Antichain, MonomialIdeal
from .polynomial import Polynomial


class _Scanner:
    def __init__(self, text: str, ctx: Context | None = None):
        self.text = text.replace("−", "-").replace("–", "-")
        self.ctx = ctx
        self.index = {name: i for i, name in enumerate(ctx.names)} if ctx else {}
        self.lengths = sorted({len(name) for name in self.index}, reverse=True)
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise ParseError(f"expected '{ch}', found {found!r}", self.pos)
        self.pos += 1

    def try_char(self, chars: str) -> str | None:
        c = self.peek()
        if c and c in chars:
            self.pos += 1
            return c
        return None

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def read_fraction(self) -> Fraction:
        """coeff, with a nonzero denominator."""
        num = self.read_int()
        at = self.pos
        den = self.read_int() if self.try_char("/") else 1
        if den == 0:
            raise ParseError("zero denominator", at)
        return Fraction(num, den)

    def try_variable(self) -> int | None:
        """Greedy match of a declared variable name; returns its index."""
        self.skip_ws()
        for n in self.lengths:
            name = self.text[self.pos:self.pos + n]
            if name in self.index:
                self.pos += len(name)  # shorter than n where the text ends
                return self.index[name]
        return None

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail_here(self, message: str):
        self.skip_ws()
        raise ParseError(message, self.pos)


def _parse_factors(sc: _Scanner) -> tuple[int, ...] | None:
    """A product of variable powers as an exponent tuple, or None."""
    exps = [0] * sc.ctx.dim
    seen = False
    while True:
        mark = sc.pos
        if seen and sc.try_char("*"):
            pass
        var = sc.try_variable()
        if var is None:
            sc.pos = mark
            break
        power = 1
        if sc.try_char("^"):
            power = sc.read_int()
        exps[var] += power
        seen = True
    return tuple(exps) if seen else None


def _parse_term(sc: _Scanner) -> tuple[Fraction, tuple[int, ...]]:
    coeff = Fraction(1)
    have_coeff = sc.peek().isdigit()
    if have_coeff:
        coeff = sc.read_fraction()
        sc.try_char("*")
    exps = _parse_factors(sc)
    if exps is None:
        if not have_coeff:
            sc.fail_here("expected a coefficient or a variable")
        exps = (0,) * sc.ctx.dim
    return coeff, exps


def _parse_poly(sc: _Scanner, stop: str) -> Polynomial:
    terms: dict[ExponentVector, Fraction] = {}
    sign = -1 if sc.try_char("-+") == "-" else 1
    while True:
        coeff, exps = _parse_term(sc)
        ev = ExponentVector(sc.ctx, exps)
        terms[ev] = terms.get(ev, Fraction(0)) + sign * coeff
        nxt = sc.peek()
        if nxt in stop or nxt == "":
            break
        if nxt == "+":
            sign = 1
        elif nxt == "-":
            sign = -1
        else:
            sc.fail_here(f"unexpected {nxt!r} in polynomial")
        sc.pos += 1
    return Polynomial(sc.ctx, terms)


def parse_polynomial(text: str, ctx: Context) -> Polynomial:
    return _parse_poly(_Scanner(text, ctx), stop="")


def parse_monomial(text: str, ctx: Context) -> ExponentVector:
    sc = _Scanner(text, ctx)
    ev = _monomial_body(sc)
    if not sc.at_end():
        sc.fail_here("trailing input after monomial")
    return ev


def _monomial_body(sc: _Scanner) -> ExponentVector:
    if sc.peek() == "1":
        mark = sc.pos
        sc.pos += 1
        if sc.peek() not in {",", "}", ""}:
            sc.pos = mark
        else:
            return ExponentVector(sc.ctx, (0,) * sc.ctx.dim)
    exps = _parse_factors(sc)
    if exps is None:
        sc.fail_here("expected a monomial")
    return ExponentVector(sc.ctx, exps)


def parse_antichain(text: str, ctx: Context) -> Antichain:
    sc = _Scanner(text, ctx)
    sc.expect("{")
    elems = [_monomial_body(sc)]
    while sc.try_char(","):
        elems.append(_monomial_body(sc))
    sc.expect("}")
    if not sc.at_end():
        sc.fail_here("trailing input after antichain")
    return Antichain(ctx, tuple(elems))


def parse_ideal(text: str, ctx: Context):
    """An ideal in parentheses: a MonomialIdeal when every generator is a
    single term, otherwise a HomogeneousIdealPresentation."""
    sc = _Scanner(text, ctx)
    sc.expect("(")
    polys = [_parse_poly(sc, stop=",)")]
    while sc.try_char(","):
        polys.append(_parse_poly(sc, stop=",)"))
    sc.expect(")")
    if not sc.at_end():
        sc.fail_here("trailing input after ideal")
    polys = [p for p in polys if not p.is_zero]
    if all(len(p.support()) == 1 for p in polys):
        gens = [next(iter(p.support())) for p in polys]
        return MonomialIdeal.from_generators(ctx, gens)
    return HomogeneousIdealPresentation(ctx, polys)


def _number_list(text: str, read) -> tuple:
    sc = _Scanner(text)
    values = [read(sc)]
    while sc.try_char(","):
        values.append(read(sc))
    if not sc.at_end():
        sc.fail_here("trailing input after list")
    return tuple(values)


def _rational(sc: _Scanner) -> Fraction:
    return (-1 if sc.try_char("-+") == "-" else 1) * sc.read_fraction()


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """rationals: a comma-separated list such as ``1, -1/2, 1/6``."""
    return _number_list(text, _rational)


def parse_naturals(text: str) -> tuple[int, ...]:
    """naturals: a comma-separated list of nonnegative integers."""
    return _number_list(text, _Scanner.read_int)
