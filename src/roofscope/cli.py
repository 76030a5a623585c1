"""The roofscope command line.

Commands: gp, roofs, verify-table, classify, and chow with the
subcommands reduce, degree, canonical, mukai-check and discrepancy.
Every command takes --format {table,json,csv,latex}.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 no result.
All rendering lives here; the libraries never print.

Each command imports the layer it runs when it runs: ``gp`` the diagram
and G/P layers, ``roofs``, ``verify-table`` and ``classify`` the roofs
layer, and ``chow`` the bundle calculus alone.  Importing this module
loads only ``argparse`` and ``render``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import render

if TYPE_CHECKING:  # annotations only
    from fractions import Fraction

    from . import chow, roofs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NO_RESULT = 3


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=render.FORMATS,
        default="table",
        help="output format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="roofscope",
        description="Marked Dynkin diagram combinatorics: homogeneous variety "
        "invariants, roofs of projective-bundle pairs, and projective-bundle "
        "divisor arithmetic.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gp", help="invariants of the variety of a marked diagram")
    p.add_argument("diagram", help="diagram string, e.g. F4:2,3 or A2*A2:1,4")
    _add_format(p)
    p.set_defaults(run=cmd_gp)

    p = sub.add_parser("roofs", help="enumerate roofs up to a total rank")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--fiber", type=int, default=None, help="keep only fiber parameter r")
    _add_format(p)
    p.set_defaults(run=cmd_roofs)

    p = sub.add_parser("verify-table", help="recompute the family table and compare")
    p.add_argument("--r-max", type=int, required=True)
    _add_format(p)
    p.set_defaults(run=cmd_verify_table)

    p = sub.add_parser("classify", help="classify simple K-equivalent maps")
    p.add_argument("--dim-x", type=int, default=None, help="ambient dimension")
    p.add_argument("--codim", type=int, default=None, help="codimension r of the centers")
    p.add_argument("--fiber-gap", type=int, default=None, help="dim Y - dim M")
    p.add_argument("--symplectic", action="store_true")
    _add_format(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("chow", help="projective-bundle divisor arithmetic")
    chow_sub = p.add_subparsers(dest="chow_command", required=True)

    def add_ring_flags(q: argparse.ArgumentParser) -> None:
        q.add_argument("--base", default=None, help="base preset, e.g. P2 or Q5")
        q.add_argument("--base-dim", type=int, default=None)
        q.add_argument("--base-degree", type=int, default=None)
        q.add_argument("--base-index", type=int, default=None)
        q.add_argument("--rank", type=int, required=True)
        q.add_argument(
            "--cherns",
            required=True,
            help="comma-separated H-multiples of c_1..c_r, e.g. 3,3 or 2,2,1; "
            "a list that starts with '-' needs '=', as in --cherns=-1,1",
        )

    element_help = (
        "a polynomial in xi and H, e.g. (2*xi)^3; an element that starts "
        "with '-' needs '=', as in --element=-xi+H"
    )
    q = chow_sub.add_parser("reduce", help="normal form of an element")
    add_ring_flags(q)
    q.add_argument("--element", required=True, help=element_help)
    _add_format(q)
    q.set_defaults(run=cmd_chow_reduce)

    q = chow_sub.add_parser("degree", help="degree pairing of a top-degree element")
    add_ring_flags(q)
    q.add_argument("--element", required=True, help=element_help)
    _add_format(q)
    q.set_defaults(run=cmd_chow_degree)

    q = chow_sub.add_parser("canonical", help="the anticanonical class of P(E)")
    add_ring_flags(q)
    _add_format(q)
    q.set_defaults(run=cmd_chow_canonical)

    q = chow_sub.add_parser("mukai-check", help="check c1(V) = c1(E)")
    q.add_argument("--index", type=int, required=True, help="Fano index of V")
    q.add_argument("--c1", required=True, help="H-multiple of c1(E)")
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    _add_format(q)
    q.set_defaults(run=cmd_chow_mukai_check)

    q = chow_sub.add_parser("discrepancy", help="blow-up discrepancy arithmetic")
    q.add_argument("--codim", type=int, required=True)
    q.add_argument("--codim2", type=int, default=None, help="second codimension to compare")
    _add_format(q)
    q.set_defaults(run=cmd_chow_discrepancy)

    return top


# --- chow element grammar ----------------------------------------------------


# Larger coefficients cannot be printed anyway (Python refuses to convert
# integers of more than 4300 digits to text); refusing them while parsing
# keeps nested powers such as ((3^9999)^9999)^9999 from exhausting memory.
_MAX_COEFFICIENT_BITS = 1 << 16


class _ElementParser:
    """expr := ('-')? term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := atom ('^' int)?; atom := '(' expr ')' | rational | 'H' | 'xi'.

    Every product is reduced in ``ring``, so no intermediate element
    outgrows a normal form."""

    def __init__(self, text: str, ring: chow.BundleChowRing):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.ring = ring

    def fail(self, msg: str):
        raise ValueError(f"bad element: {msg} (at position {self.pos + 1})")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a number")
        return int(self.text[start : self.pos])

    def atom(self) -> chow.ChowElement:
        from fractions import Fraction

        from .chow import H, XI, ChowElement

        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return inner
        if ch.isdigit():
            num = self.take_int()
            if self.peek() == "/":
                self.pos += 1
                start = self.pos
                den = self.take_int()
                if den == 0:
                    self.pos = start
                    self.fail("zero denominator")
                return ChowElement({(0, 0): Fraction(num, den)})
            return ChowElement({(0, 0): num})
        if self.text.startswith("xi", self.pos):
            self.pos += 2
            return XI
        if ch == "H":
            self.pos += 1
            return H
        self.fail(f"unexpected {ch!r}" if ch else "unexpected end of input")

    def product(self, a: chow.ChowElement, b: chow.ChowElement) -> chow.ChowElement:
        out = self.ring.reduce(a * b)
        for c in out.terms.values():
            if max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_COEFFICIENT_BITS:
                self.fail(f"coefficient of more than {_MAX_COEFFICIENT_BITS} bits")
        return out

    def factor(self) -> chow.ChowElement:
        from .chow import ChowElement

        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        k = self.take_int()
        out = ChowElement({(0, 0): 1})
        while k:
            if k & 1:
                out = self.product(out, base)
            k >>= 1
            if k:
                base = self.product(base, base)
        return out

    def term(self) -> chow.ChowElement:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = self.product(out, self.factor())
        return out

    def expr(self) -> chow.ChowElement:
        negate = False
        if self.peek() == "-":
            negate = True
            self.pos += 1
        out = -self.term() if negate else self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            nxt = self.term()
            out = out + nxt if op == "+" else out - nxt
        return out

    def parse(self) -> chow.ChowElement:
        out = self.expr()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.peek()!r}")
        return self.ring.reduce(out)


def parse_element(text: str, ring: chow.BundleChowRing) -> chow.ChowElement:
    """Parse an element and return its normal form in ``ring``; see
    :class:`_ElementParser`."""
    try:
        return _ElementParser(text, ring).parse()
    except RecursionError:
        raise ValueError("bad element: parentheses nested too deeply") from None


def _fraction(text: str) -> Fraction:
    from fractions import Fraction

    # Fraction("1e3000000") builds the integer before anything can check
    # its size, so exponent notation is refused outright
    if "e" in text.lower():
        raise ValueError(f"bad number {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad number {text!r}: zero denominator") from None


def _base_from_args(args) -> chow.CyclicBase:
    from . import chow

    if args.base is not None:
        if args.base_dim is not None or args.base_degree is not None:
            raise ValueError("give either --base or the explicit --base-* flags")
        preset = args.base.strip().upper()
        if len(preset) < 2 or preset[0] not in "PQ" or not preset[1:].isdigit():
            raise ValueError(f"unknown base preset {args.base!r}; use P<n> or Q<n>")
        n = int(preset[1:])
        base = chow.projective_space(n) if preset[0] == "P" else chow.quadric(n)
        if args.base_index is not None:
            base = chow.CyclicBase(dim=base.dim, degree=base.degree, index=args.base_index)
        return base
    if args.base_dim is None or args.base_degree is None:
        raise ValueError("give --base or both --base-dim and --base-degree")
    return chow.CyclicBase(
        dim=args.base_dim,
        degree=args.base_degree,
        index=args.base_index if args.base_index is not None else args.base_dim + 1,
    )


def _ring_from_args(args) -> chow.BundleChowRing:
    from .chow import BundleChowRing

    base = _base_from_args(args)
    cherns = tuple(_fraction(c) for c in args.cherns.split(","))
    return BundleChowRing(base=base, rank=args.rank, cherns=cherns)


# --- command bodies ------------------------------------------------------------


def _emit(fmt: str, headers, rows, json_payload, raw_latex_columns=()) -> None:
    if fmt == "table":
        sys.stdout.write(render.render_table(headers, rows))
    elif fmt == "csv":
        sys.stdout.write(render.render_csv(headers, rows))
    elif fmt == "json":
        sys.stdout.write(render.render_json(json_payload))
    else:
        sys.stdout.write(render.render_latex(headers, rows, raw_latex_columns))


def cmd_gp(args) -> int:
    from .dynkin import parse, serialize
    from .homog import gp_invariants

    md = parse(args.diagram)
    inv = gp_invariants(md)
    index_txt = (
        str(inv.index)
        if inv.picard == 1
        else "(" + ", ".join(str(c) for c in inv.coefficients()) + ")"
    )
    headers = ["diagram", "dim", "picard", "index"]
    diagram = serialize(md)
    rows = [[diagram, inv.dim, inv.picard, index_txt]]
    payload = {
        "diagram": diagram,
        "dim": inv.dim,
        "picard": inv.picard,
        "index": {str(m): c for m, c in inv.index_vector},
    }
    _emit(args.format, headers, rows, payload)
    return EXIT_OK


def cmd_roofs(args) -> int:
    from . import roofs

    if args.max_rank < 1:
        print("error: --max-rank must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.fiber is not None and args.fiber < 2:
        print("error: --fiber must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    records = roofs.enumerate_roofs(args.max_rank, r_filter=args.fiber)
    if args.format == "latex":
        headers = ["Type", "Marked Dynkin diagram", r"$(\dim V_i,\ r_{V_1},\ r_{V_2})$"]
        latex_rows = [
            [
                _family_latex(rec),
                r"\texttt{" + render.latex_escape(rec.diagram) + "}"
                if rec.diagram != roofs.NON_HOMOGENEOUS
                else "--",
                f"$({rec.dim_V1},\\,{rec.index_V1},\\,{rec.index_V2})$",
            ]
            for rec in records
        ]
        sys.stdout.write(
            render.render_latex(headers, latex_rows, raw_columns=(0, 1, 2))
        )
        return EXIT_OK
    headers = list(roofs.RoofRecord._fields)
    _emit(args.format, headers, records, [rec._asdict() for rec in records])
    return EXIT_OK


def _family_latex(rec: roofs.RoofRecord) -> str:
    from .roofs import FAMILY_SPECS

    for spec in FAMILY_SPECS.values():
        if spec.label(rec.r) == rec.family:
            return spec.latex(rec.r)
    return render.latex_escape(rec.family)


def cmd_verify_table(args) -> int:
    from .roofs import verify_paper_table

    if args.r_max < 2:
        print("error: --r-max must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    report = verify_paper_table(args.r_max)
    headers = ["family", "r", "computed", "expected", "status"]
    rows = [
        [row.family, row.r, str(row.computed), str(row.expected), "pass" if row.ok else "FAIL"]
        for row in report.rows
    ]
    payload = [
        {
            "family": row.family,
            "r": row.r,
            "computed": list(row.computed),
            "expected": list(row.expected),
            "ok": row.ok,
        }
        for row in report.rows
    ]
    _emit(args.format, headers, rows, payload)
    if not report.all_pass:
        for row in report.failures():
            print(
                f"verification failed: {row.family} computed {row.computed}, "
                f"expected {row.expected}",
                file=sys.stderr,
            )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_classify(args) -> int:
    from .roofs import ClassificationQuery, classify_simple_kequiv

    query = ClassificationQuery(
        dim_x=args.dim_x,
        r=args.codim,
        fiber_gap=args.fiber_gap,
        symplectic=args.symplectic,
    )
    result = classify_simple_kequiv(query)
    if not result.available:
        print("no classification available for this query", file=sys.stderr)
        for rule in result.applied_rules:
            print(rule, file=sys.stderr)
        return EXIT_NO_RESULT
    headers = ["family", "matched rules"]
    rows = [[e.label, "; ".join(e.rules)] for e in result.entries]
    payload = {
        "applied_rules": list(result.applied_rules),
        "families": [
            {"family": e.label, "generic": e.family.value, "rules": list(e.rules)}
            for e in result.entries
        ],
    }
    _emit(args.format, headers, rows, payload)
    return EXIT_OK


def _print_element(fmt: str, label: str, el: chow.ChowElement) -> None:
    from .chow import format_element

    text = format_element(el)
    _emit(fmt, [label], [[text]], {label: text})


def _emit_verdict(fmt: str, payload, lines, ok: bool) -> int:
    """A check's JSON payload, or its report lines in every other format."""
    if fmt == "json":
        sys.stdout.write(render.render_json(payload))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_chow_reduce(args) -> int:
    ring = _ring_from_args(args)
    _print_element(args.format, "normal_form", parse_element(args.element, ring))
    return EXIT_OK


def cmd_chow_degree(args) -> int:
    ring = _ring_from_args(args)
    text = str(ring.degree(parse_element(args.element, ring)))
    _emit(args.format, ["degree"], [[text]], {"degree": text})
    return EXIT_OK


def cmd_chow_canonical(args) -> int:
    _print_element(args.format, "anticanonical", _ring_from_args(args).canonical_class())
    return EXIT_OK


def cmd_chow_mukai_check(args) -> int:
    from .chow import mukai_pair_check

    verdict = mukai_pair_check(args.index, _fraction(args.c1), args.rank, args.dim)
    payload = {
        "passed": verdict.passed,
        "index_of_v": verdict.index_of_v,
        "c1_of_e": str(verdict.c1_of_e),
        "minus_k": verdict.minus_k,
        "suggested_twist": verdict.suggested_twist,
    }
    return _emit_verdict(args.format, payload, verdict.lines(), verdict.passed)


def cmd_chow_discrepancy(args) -> int:
    from .chow import blowup_discrepancy, kequiv_forces_equal_codim

    if args.codim2 is None:
        value = blowup_discrepancy(args.codim)
        _emit(args.format, ["discrepancy"], [[value]], {"discrepancy": value})
        return EXIT_OK
    verdict = kequiv_forces_equal_codim(args.codim, args.codim2)
    return _emit_verdict(args.format, verdict._asdict(), verdict.lines(), verdict.consistent)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # argparse stores an option value of exactly "--" (as in --element=--)
    # as an empty list; no option of this parser takes a list
    if [] in vars(args).values():
        print("error: '--' is not a valid option value", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
