"""Command-line front end.

Every subcommand reads ideals/polynomials in the shared text syntax, runs
one pipeline operation and prints text or JSON (schema version 1).  Exit
codes: 0 success, 1 domain error or out of memory, 2 parse/usage error
(an ``--out`` file that cannot be written is a usage error).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import monomial_ideal as mi
from . import oracle
from .errors import ApolarError, DomainError, ParseError
from .exponents import Context, ExponentVector
from .gorenstein import (
    GorensteinSpec,
    SeriesSpec,
    antipodal,
    monomial_iff_test,
    series_annihilator_check,
    verify_gorenstein_ann,
)
from .graded_engine import HomogeneousIdealPresentation, ann_partial, colon_power_ideal
from .parsing import parse_antichain, parse_ideal, parse_polynomial
from .parsing import parse_naturals, parse_rationals

SCHEMA = 1
# The most cells a staircase diagram may have; larger ones are refused
# before the grid is drawn.
MAX_STAIRCASE_CELLS = 100_000


def _context(args) -> Context:
    if args.vars_names is not None:
        names = tuple(n.strip() for n in args.vars_names.split(",") if n.strip())
        if not names:
            raise DomainError("--vars-names must list at least one name")
        if args.vars is not None and args.vars != len(names):
            raise DomainError("--vars disagrees with --vars-names")
        return Context(names)
    if args.vars is None:
        raise DomainError("one of --vars or --vars-names is required")
    return Context.of_dim(args.vars)


def _monomial_ideal(text: str, ctx: Context) -> mi.MonomialIdeal:
    ideal = parse_ideal(text, ctx)
    if not isinstance(ideal, mi.MonomialIdeal):
        raise DomainError("this operation requires a monomial ideal")
    return ideal


def _presentation(text: str, ctx: Context) -> HomogeneousIdealPresentation:
    ideal = parse_ideal(text, ctx)
    if isinstance(ideal, mi.MonomialIdeal):
        return HomogeneousIdealPresentation.from_monomial_ideal(ideal)
    return ideal


def _ideal_payload(ideal: mi.MonomialIdeal) -> dict:
    return {"ideal": str(ideal), "gens": [list(g.coords) for g in ideal.gens]}


def _antichain_payload(chain: mi.Antichain) -> dict:
    return {"antichain": str(chain), "elems": [list(e.coords) for e in chain.elems]}


def _rename(chain: mi.Antichain, ctx: Context) -> mi.Antichain:
    return mi.Antichain(ctx, tuple(ExponentVector(ctx, e.coords) for e in chain.elems))


def _spec(args, ctx: Context) -> GorensteinSpec:
    return GorensteinSpec(args.k, parse_polynomial(args.p, ctx))


def cmd_docle(args, ctx):
    chain = mi.docle(_monomial_ideal(args.ideal, ctx))
    return str(chain), _antichain_payload(chain)


def cmd_closure(args, ctx):
    closed = mi.closure(_monomial_ideal(args.ideal, ctx))
    payload = _ideal_payload(closed)
    payload["whole_poset"] = closed.whole_poset
    text = str(closed) + (" (whole poset)" if closed.whole_poset else "")
    return text, payload


def cmd_saturate(args, ctx):
    sat = mi.saturate(_monomial_ideal(args.ideal, ctx))
    return str(sat), _ideal_payload(sat)


def cmd_decompose(args, ctx):
    j, h = mi.decompose(_monomial_ideal(args.ideal, ctx))
    return f"J = {j}, H = {h}", {"J": str(j), "H": str(h)}


def cmd_inverse_ideal(args, ctx):
    chain = parse_antichain(args.antichain, ctx)
    ideal = mi.inverse_ideal(chain)
    return str(ideal), _ideal_payload(ideal)


def cmd_inverse_system(args, ctx):
    ideal = _monomial_ideal(args.ideal, ctx)
    if not ideal.is_zero_dimensional:
        raise DomainError(
            "inverse-system output is finite only for zero-dimensional ideals"
        )
    chain = _rename(mi.docle(ideal), ctx.dual("t"))
    return str(chain), _antichain_payload(chain)


def cmd_intersect(args, ctx):
    out = mi.intersect(
        _monomial_ideal(args.ideal, ctx), _monomial_ideal(args.other, ctx)
    )
    return str(out), _ideal_payload(out)


def cmd_hilbert(args, ctx):
    pres = _presentation(args.ideal, ctx)
    values = pres.hilbert_function(args.max_degree)
    text = f"{values} dim={sum(values)}"
    return text, {"values": values, "dimension": sum(values)}


def cmd_socle(args, ctx):
    pres = _presentation(args.ideal, ctx)
    classes = pres.socle(args.max_degree)
    lines = [f"degree {c.degree}: {c.polynomial()}" for c in classes]
    payload = {
        "dimension": len(classes),
        "classes": [
            {"degree": c.degree, "polynomial": str(c.polynomial())} for c in classes
        ],
    }
    return "\n".join(lines) or "(empty)", payload


def cmd_initial_ideal(args, ctx):
    pres = _presentation(args.ideal, ctx)
    init = pres.initial_monomials(args.max_degree)
    return str(init), _ideal_payload(init)


def cmd_colon_power(args, ctx):
    pres = colon_power_ideal(args.k, parse_polynomial(args.p, ctx))
    return str(pres), {"generators": [str(g) for g in pres.generators]}


def cmd_ann(args, ctx):
    q = parse_polynomial(args.q, ctx.dual("t"))
    pres = ann_partial(q, ctx)
    return str(pres), {"generators": [str(g) for g in pres.generators]}


def cmd_antipodal(args, ctx):
    poly = antipodal(_spec(args, ctx))
    payload = {
        "polynomial": str(poly),
        "terms": [[list(ev.coords), str(c)] for ev, c in poly.terms()],
    }
    return str(poly), payload


def cmd_gorenstein_check(args, ctx):
    holds = verify_gorenstein_ann(_spec(args, ctx))
    return str(holds).lower(), {"holds": holds}


def cmd_monomial_iff(args, ctx):
    result = monomial_iff_test(_spec(args, ctx))
    payload = {
        "is_monomial_ideal": result.is_monomial_ideal,
        "socle_monomial": str(result.socle_monomial),
        "ann_of_socle_equals_ideal": result.ann_of_socle_equals_ideal,
        "agree": result.agree,
    }
    text = " ".join(f"{key}={value}" for key, value in list(payload.items())[:3])
    return text, payload


def cmd_series_check(args, ctx):
    coeffs = parse_rationals(args.coeffs)
    holds = series_annihilator_check(_spec(args, ctx), SeriesSpec(coeffs))
    return str(holds).lower(), {"holds": holds}


def _staircase_grid(ideal: mi.MonomialIdeal):
    if ideal.ctx.dim != 2:
        raise DomainError("staircase diagrams exist only for d = 2")
    doc = {e.coords for e in ideal._docle.elems}
    width = max([g.coords[0] for g in ideal.gens] + [x for x, _ in doc] + [2]) + 2
    height = max([g.coords[1] for g in ideal.gens] + [y for _, y in doc] + [2]) + 2
    if width * height > MAX_STAIRCASE_CELLS:
        raise DomainError(
            f"staircase diagram has {width} x {height} cells, "
            f"above the limit of {MAX_STAIRCASE_CELLS}"
        )
    cells = []
    for y in range(height):
        row = []
        for x in range(width):
            ev = ExponentVector(ideal.ctx, (x, y))
            if (x, y) in doc:
                row.append("*")
            elif ideal.contains(ev):
                row.append("#")
            else:
                row.append(".")
        cells.append(row)
    return cells


def cmd_staircase(args, ctx):
    ideal = _monomial_ideal(args.ideal, ctx)
    cells = _staircase_grid(ideal)
    if args.svg:
        size = 20
        h = len(cells)
        w = len(cells[0])
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{w * size}" height="{h * size}">'
        ]
        fill = {"#": "#4477aa", "*": "#ee6677", ".": "#ffffff"}
        for y, row in enumerate(cells):
            for x, c in enumerate(row):
                parts.append(
                    f'<rect x="{x * size}" y="{(h - 1 - y) * size}" '
                    f'width="{size}" height="{size}" fill="{fill[c]}" '
                    f'stroke="#999999"/>'
                )
        parts.append("</svg>")
        text = "\n".join(parts)
        return text, {"svg": text}
    lines = ["".join(row) for row in reversed(cells)]
    legend = "# in ideal, * docle, . outside"
    text = "\n".join(lines + [legend])
    return text, {"rows": ["".join(r) for r in cells], "legend": legend}


def cmd_oracle_docle(args, ctx):
    ideal = _monomial_ideal(args.ideal, ctx)
    box = ExponentVector(ctx, parse_naturals(args.box))
    chain = oracle.brute_docle(ideal, box)
    return str(chain), _antichain_payload(chain)


def cmd_oracle_ann(args, ctx):
    kernels = oracle.brute_ann(parse_polynomial(args.q, ctx.dual("t")), args.max_deg, ctx)
    text = "\n".join(f"degree {e}: {len(polys)} kernel vector(s)" for e, polys in kernels.items())
    return text, {"kernels": {str(e): [str(p) for p in polys] for e, polys in kernels.items()}}


def cmd_oracle_dim(args, ctx):
    dim = oracle.brute_quotient_dim(list(_presentation(args.ideal, ctx).generators), args.cutoff)
    return str(dim), {"dimension": dim}


def cmd_oracle_slice(args, ctx):
    sl = _presentation(args.ideal, ctx).slice(args.degree)
    payload = {
        "degree": sl.degree,
        "monomial_basis": [list(ev.coords) for ev in sl.monomial_basis],
        "reduced_rows": [[str(c) for c in row] for row in sl.reduced_rows],
        "pivot_monomials": sorted(list(ev.coords) for ev in sl.pivot_monomials),
        "standard_monomials": [list(ev.coords) for ev in sl.standard_monomials],
    }
    text = (f"degree {sl.degree}: rank {len(sl.reduced_rows)}, "
            f"standard monomials {len(sl.standard_monomials)}")
    return text, payload


def _add_subcommand(subparsers, name, handler, help_text):
    """A subcommand with the common options, dispatched to ``handler``."""
    p = subparsers.add_parser(name, help=help_text)
    p.add_argument("--vars", type=int, help="ambient dimension d (names x1..xd)")
    p.add_argument("--vars-names", help="comma-separated variable names, e.g. 'x,y'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Socles, docles, inverse systems and apolarity, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(_add_subcommand, sub)
    p = add("docle", cmd_docle, "maximal monomials outside a monomial ideal")
    p.add_argument("ideal")
    p = add("closure", cmd_closure, "closure of a monomial ideal")
    p.add_argument("ideal")
    p = add("saturate", cmd_saturate, "saturation (I : m^infinity)")
    p.add_argument("ideal")
    p = add("decompose", cmd_decompose, "unique I = J cap H decomposition")
    p.add_argument("ideal")
    p = add("inverse-ideal", cmd_inverse_ideal, "ideal with a given docle")
    p.add_argument("antichain")
    p = add(
        "inverse-system",
        cmd_inverse_system,
        "minimal generators of the inverse system (zero-dimensional input)",
    )
    p.add_argument("ideal")
    p = add("intersect", cmd_intersect, "intersection of two monomial ideals")
    p.add_argument("ideal")
    p.add_argument("other")
    for name, handler, help_text in (
        ("hilbert", cmd_hilbert, "Hilbert function of an artinian quotient"),
        ("socle", cmd_socle, "socle classes of an artinian quotient"),
        ("initial-ideal", cmd_initial_ideal, "LEX initial ideal (artinian)"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("ideal")
        p.add_argument("--max-degree", type=int, help="artinian detection cutoff")
    p = add("ann", cmd_ann, "apolarity annihilator of a t-polynomial")
    p.add_argument("--q", required=True)
    for name, handler, help_text in (
        ("colon-power", cmd_colon_power, "((x1^k, ..., xd^k) : p)"),
        ("antipodal", cmd_antipodal, "antipodal polynomial of (d, k, p)"),
        ("gorenstein-check", cmd_gorenstein_check,
         "colon ideal equals annihilator of the antipodal polynomial"),
        ("monomial-iff", cmd_monomial_iff, "monomial iff annihilator test"),
        ("series-check", cmd_series_check, "power series annihilator check"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--p", required=True)
        if name == "series-check":
            p.add_argument("--coeffs", required=True, help="comma-separated a_0..a_M")
    p = add("staircase", cmd_staircase, "d=2 staircase diagram (ASCII or SVG)")
    p.add_argument("ideal")
    p.add_argument("--svg", action="store_true")
    p = sub.add_parser("oracle", help="brute-force reference computations (debugging)")
    add_oracle = partial(_add_subcommand, p.add_subparsers(dest="oracle_op", required=True))
    op = add_oracle("docle", cmd_oracle_docle, "definition-level docle scan")
    op.add_argument("ideal")
    op.add_argument("--box", required=True, help="comma-separated bounding box")
    op = add_oracle("ann", cmd_oracle_ann, "annihilator kernels by direct differentiation")
    op.add_argument("--q", required=True, help="t-polynomial")
    op.add_argument("--max-deg", type=int, required=True)
    op = add_oracle("dim", cmd_oracle_dim, "quotient dimension by rank counting")
    op.add_argument("ideal")
    op.add_argument("--cutoff", type=int, help="artinian detection cutoff")
    op = add_oracle("slice", cmd_oracle_slice, "JSON dump of one graded slice")
    op.add_argument("ideal")
    op.add_argument("--degree", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = _context(args)
        text, payload = args.handler(args, ctx)
        if args.format == "json":
            output = json.dumps({"schema": SCHEMA, **payload})
        else:
            output = text
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(output + "\n")
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
                return 2
        else:
            print(output)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ApolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the request is too large for this process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
