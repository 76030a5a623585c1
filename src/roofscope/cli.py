"""The roofscope command line.

Commands: gp, roofs, verify-table, classify, and chow with the
subcommands reduce, degree, canonical, mukai-check and discrepancy.
Every command takes --format {table,json,csv,latex}.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 no result.
``_emit`` writes every answer through ``render``, and a reader that
closes the pipe early (``| head``) ends any command, ``--help``
included, quietly with its usual exit code; the libraries never print.

``roofs`` prints each record as it is built, from the generator behind
``enumerate_roofs`` (``roofs._roof_stream``), so its memory stays flat
at any size and a JSON payload is built for ``--format json`` only.  Its
table format needs the column widths first and reads them off at most
eight records, each family row's widest at the largest r that fits
(``roofs._widest_records``, one bisection per row), so its first line
comes at once at any rank.  ``verify-table`` checks every row, keeping
only the failing ones, and then prints: ``roofs._table_rows`` replays
each passing row with its computed triple as its expected one, which it
equals, so its memory stays flat too, and a failing row exits 1 even
after the reader has left.  An answer that holds an integer past the
interpreter's print limit is refused with exit 2 before any of it is
written (``render.text``); ``roofs`` reads its largest integer off the
closed-form triples (``roofs._largest_integer``).

The grammar is one table, ``GRAMMAR``.  ``build_parser`` makes the
argparse parser from it, and ``_read_argv`` reads a well-formed query
off it without argparse; any other argv (``--help``, an abbreviated or
repeated flag, a bad value, ...) goes to argparse, which alone writes
help and usage errors.  Each command imports the layer it runs when it
runs: ``gp`` the diagram and G/P layers, ``roofs`` and ``verify-table``
the roofs layer, ``classify`` the classification with the roofs layer
whose family rows it cuts, and ``chow`` the bundle calculus alone,
whose module also reads the element grammar and the base presets; this
module only hands it the ``args``.  Importing this module loads only
``render``, and a well-formed query loads ``render`` and its layer;
``argparse`` loads for help and refused input only.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from types import SimpleNamespace

from . import render

TYPE_CHECKING = False  # type checkers read it as True
if TYPE_CHECKING:  # annotations only
    import argparse

    from . import chow

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NO_RESULT = 3


def _ring_from_args(args) -> chow.BundleChowRing:
    from . import chow

    if args.base is not None:
        if args.base_dim is not None or args.base_degree is not None:
            raise ValueError("give either --base or the explicit --base-* flags")
        base = chow._preset_base(args.base)
        if args.base_index is not None:
            base = base._replace(index=args.base_index)
    elif args.base_dim is None or args.base_degree is None:
        raise ValueError("give --base or both --base-dim and --base-degree")
    else:
        index = args.base_index if args.base_index is not None else args.base_dim + 1
        base = chow.CyclicBase(dim=args.base_dim, degree=args.base_degree, index=index)
    cherns = tuple(chow._fraction(c) for c in args.cherns.split(","))
    return chow.BundleChowRing(base=base, rank=args.rank, cherns=cherns)


# --- command bodies ------------------------------------------------------------


def _emit(fmt: str, headers, rows, payload, widest=None, raw=False) -> None:
    """Write one answer to stdout as it is built, then ``_flush``.  ``rows``
    returns the rows; ``payload``, called for JSON only, the JSON payload.
    The table sizes its columns on ``widest()``, called first, if given,
    else on a first call of ``rows()``.  A report has no headers: each
    one-cell row is a line.  LaTeX cells are escaped unless ``raw``."""
    try:
        if fmt == "json":
            render.render_json(sys.stdout, payload())
        elif not headers:
            for (line,) in rows():
                sys.stdout.write(f"{line}\n")
        elif fmt == "table":
            render.render_table(sys.stdout, headers, (widest or rows)(), rows())
        elif fmt == "csv":
            render.render_csv(sys.stdout, headers, rows())
        else:
            render.render_latex(sys.stdout, headers, rows(), raw)
    except BrokenPipeError:
        pass  # the reader left (``| head``): write no more
    _flush()


def _flush() -> None:
    """Flush stdout.  If its reader has closed the pipe, stdout is pointed
    at the null device, so the interpreter's own flush at exit is silent."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_gp(args) -> int:
    from .dynkin import parse, serialize
    from .homog import gp_invariants

    md = parse(args.diagram)
    inv = gp_invariants(md)
    dim = render.text(inv.dim)
    index_txt = (
        render.text(inv.index)
        if inv.picard == 1
        else "(" + ", ".join(render.text(c) for c in inv.coefficients()) + ")"
    )
    headers = ["diagram", "dim", "picard", "index"]
    diagram = serialize(md)
    rows = [[diagram, dim, inv.picard, index_txt]]
    payload = {
        "diagram": diagram,
        "dim": inv.dim,
        "picard": inv.picard,
        "index": {str(m): c for m, c in inv.index_vector},
    }
    _emit(args.format, headers, lambda: rows, lambda: payload)
    return EXIT_OK


def cmd_roofs(args) -> int:
    from . import roofs

    if args.max_rank < 1:
        print("error: --max-rank must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.fiber is not None and args.fiber < 2:
        print("error: --fiber must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    render.text(roofs._largest_integer(args.max_rank, args.fiber))  # refused before any line
    if args.format == "latex":
        headers = ["Type", "Marked Dynkin diagram", r"$(\dim V_i,\ r_{V_1},\ r_{V_2})$"]
        rows = (
            [
                roofs.FAMILY_SPECS[family].latex(rec.r),
                r"\texttt{" + render.latex_escape(rec.diagram) + "}"
                if rec.diagram != roofs.NON_HOMOGENEOUS
                else "--",
                f"$({rec.dim_V1},\\,{rec.index_V1},\\,{rec.index_V2})$",
            ]
            for family, rec in roofs._roof_stream(args.max_rank, args.fiber)
        )
        _emit("latex", headers, lambda: rows, None, raw=True)
        return EXIT_OK

    def records():
        return (rec for _, rec in roofs._roof_stream(args.max_rank, args.fiber))

    def payload():
        return (rec._asdict() for rec in records())

    def widest():  # the table's column widths, from at most eight records
        return roofs._widest_records(args.max_rank, args.fiber)

    headers = list(roofs.RoofRecord._fields)
    _emit(args.format, headers, records, payload, widest)
    return EXIT_OK


def cmd_verify_table(args) -> int:
    from .roofs import _table_rows

    if args.r_max < 2:
        print("error: --r-max must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    # every row is checked before the first line; only the failing ones are kept
    failed = {(row.family, row.r): row for row in _table_rows(args.r_max) if not row.ok}

    def rows():
        return (
            [row.family, row.r, str(row.computed), str(row.expected), "pass" if row.ok else "FAIL"]
            for row in _table_rows(args.r_max, failed)
        )

    def payload():
        return (
            {
                "family": row.family,
                "r": row.r,
                "computed": list(row.computed),
                "expected": list(row.expected),
                "ok": row.ok,
            }
            for row in _table_rows(args.r_max, failed)
        )

    headers = ["family", "r", "computed", "expected", "status"]
    _emit(args.format, headers, rows, payload)
    for row in failed.values():
        print(
            f"verification failed: {row.family} computed {row.computed}, "
            f"expected {row.expected}",
            file=sys.stderr,
        )
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_classify(args) -> int:
    from .classify import ClassificationQuery, classify_simple_kequiv

    query = ClassificationQuery(
        dim_x=args.dim_x,
        r=args.codim,
        fiber_gap=args.fiber_gap,
        symplectic=args.symplectic,
    )
    result = classify_simple_kequiv(query)
    if not result.entries:
        if result.available:
            at = "" if args.codim is None else f" at codimension {args.codim}"
            print(f"no family satisfies every applied case{at}", file=sys.stderr)
        else:
            print("no classification available for this query", file=sys.stderr)
        for rule in result.applied_rules:
            print(rule, file=sys.stderr)
        return EXIT_NO_RESULT
    headers = ["family", "matched rules"]
    rules = list(result.applied_rules)
    rows = [[e.label, "; ".join(rules)] for e in result.entries]
    payload = {
        "applied_rules": rules,
        "families": [
            {"family": e.label, "generic": e.family.value, "rules": rules}
            for e in result.entries
        ],
    }
    _emit(args.format, headers, lambda: rows, lambda: payload)
    return EXIT_OK


def _emit_value(fmt: str, label: str, value) -> None:
    text = render.text(value)
    _emit(fmt, [label], lambda: [[text]], lambda: {label: text})


def cmd_chow_reduce(args) -> int:
    from .chow import parse_element

    ring = _ring_from_args(args)
    _emit_value(args.format, "normal_form", parse_element(args.element, ring))
    return EXIT_OK


def cmd_chow_degree(args) -> int:
    from .chow import parse_element

    ring = _ring_from_args(args)
    _emit_value(args.format, "degree", ring.degree(parse_element(args.element, ring)))
    return EXIT_OK


def cmd_chow_canonical(args) -> int:
    _emit_value(args.format, "anticanonical", _ring_from_args(args).canonical_class())
    return EXIT_OK


def cmd_chow_mukai_check(args) -> int:
    from .chow import _fraction, mukai_pair_check

    verdict = mukai_pair_check(args.index, _fraction(args.c1), args.rank, args.dim)
    payload = {
        "passed": verdict.passed,
        "index_of_v": verdict.index_of_v,
        "c1_of_e": str(verdict.c1_of_e),
        "minus_k": verdict.minus_k,
        "suggested_twist": verdict.suggested_twist,
    }
    _emit(args.format, (), lambda: ([line] for line in verdict.lines()), lambda: payload)
    return EXIT_OK if verdict.passed else EXIT_VERIFY


def cmd_chow_discrepancy(args) -> int:
    from .chow import blowup_discrepancy, kequiv_forces_equal_codim

    if args.codim2 is None:
        value = blowup_discrepancy(args.codim)
        _emit(args.format, ["discrepancy"], lambda: [[value]], lambda: {"discrepancy": value})
        return EXIT_OK
    verdict = kequiv_forces_equal_codim(args.codim, args.codim2)
    _emit(args.format, (), lambda: ([line] for line in verdict.lines()), verdict._asdict)
    return EXIT_OK if verdict.consistent else EXIT_VERIFY


# --- the grammar ----------------------------------------------------------------


class _Flag(
    namedtuple(
        "_Flag", "name kind required default choices help", defaults=(str, False, None, None, None)
    )
):
    """An option of one command: ``kind`` is int, str, or bool for a
    store-true switch; the namespace attribute is argparse's dest."""

    __slots__ = ()


# positionals are (dest, help) pairs
_Command = namedtuple("_Command", "help run positionals flags", defaults=((), ()))


_FORMAT = _Flag(
    "--format", choices=render.FORMATS, default="table", help="output format (default: table)"
)
_RING = (
    _Flag("--base", help="base preset, e.g. P2 or Q5"),
    _Flag("--base-dim", int),
    _Flag("--base-degree", int),
    _Flag("--base-index", int),
    _Flag("--rank", int, required=True),
    _Flag(
        "--cherns",
        required=True,
        help="comma-separated H-multiples of c_1..c_r, e.g. 3,3 or 2,2,1; "
        "a list that would read as an option needs '=', as in --cherns=-1,1",
    ),
)
_ELEMENT = _Flag(
    "--element",
    required=True,
    help="a polynomial in xi and H, e.g. (2*xi)^3; an element that would "
    "read as an option needs '=', as in --element=-xi+H",
)

_DESCRIPTION = (
    "Marked Dynkin diagram combinatorics: homogeneous variety invariants, roofs "
    "of projective-bundle pairs, and projective-bundle divisor arithmetic."
)
# a command word that only groups subcommands -> its help
_GROUPS = {"chow": "projective-bundle divisor arithmetic"}

# command words -> grammar, in the order --help lists them
GRAMMAR = {
    ("gp",): _Command(
        "invariants of the variety of a marked diagram",
        cmd_gp,
        (("diagram", "diagram string, e.g. F4:2,3 or A2*A2:1,4"),),
        (_FORMAT,),
    ),
    ("roofs",): _Command(
        "enumerate roofs up to a total rank",
        cmd_roofs,
        flags=(
            _Flag("--max-rank", int, required=True),
            _Flag("--fiber", int, help="keep only fiber parameter r"),
            _FORMAT,
        ),
    ),
    ("verify-table",): _Command(
        "recompute the family table and compare",
        cmd_verify_table,
        flags=(_Flag("--r-max", int, required=True), _FORMAT),
    ),
    ("classify",): _Command(
        "classify simple K-equivalent maps",
        cmd_classify,
        flags=(
            _Flag("--dim-x", int, help="ambient dimension"),
            _Flag("--codim", int, help="codimension r of the centers"),
            _Flag("--fiber-gap", int, help="dim Y - dim M"),
            _Flag("--symplectic", bool),
            _FORMAT,
        ),
    ),
    ("chow", "reduce"): _Command(
        "normal form of an element", cmd_chow_reduce, flags=(*_RING, _ELEMENT, _FORMAT)
    ),
    ("chow", "degree"): _Command(
        "degree pairing of a top-degree element",
        cmd_chow_degree,
        flags=(*_RING, _ELEMENT, _FORMAT),
    ),
    ("chow", "canonical"): _Command(
        "the anticanonical class of P(E)", cmd_chow_canonical, flags=(*_RING, _FORMAT)
    ),
    ("chow", "mukai-check"): _Command(
        "check c1(V) = c1(E)",
        cmd_chow_mukai_check,
        flags=(
            _Flag("--index", int, required=True, help="Fano index of V"),
            _Flag("--c1", required=True, help="H-multiple of c1(E)"),
            _Flag("--rank", int, required=True),
            _Flag("--dim", int, required=True),
            _FORMAT,
        ),
    ),
    ("chow", "discrepancy"): _Command(
        "blow-up discrepancy arithmetic",
        cmd_chow_discrepancy,
        flags=(
            _Flag("--codim", int, required=True),
            _Flag("--codim2", int, help="second codimension to compare"),
            _FORMAT,
        ),
    ),
}


def _dest(word: str) -> str:
    return word.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``GRAMMAR``, which writes the help and error
    text."""
    import argparse

    top = argparse.ArgumentParser(prog="roofscope", description=_DESCRIPTION)
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for words, command in GRAMMAR.items():
        group = words[:-1]
        if group not in subparsers:
            p = subparsers[()].add_parser(group[0], help=_GROUPS[group[0]])
            subparsers[group] = p.add_subparsers(
                dest=_dest(group[0]) + "_command", required=True
            )
        p = subparsers[group].add_parser(words[-1], help=command.help)
        for dest, text in command.positionals:
            p.add_argument(dest, help=text)
        for flag in command.flags:
            if flag.kind is bool:
                p.add_argument(flag.name, action="store_true", help=flag.help)
            else:
                p.add_argument(
                    flag.name,
                    type=int if flag.kind is int else None,
                    required=flag.required,
                    default=flag.default,
                    choices=flag.choices,
                    help=flag.help,
                )
        p.set_defaults(run=command.run)
    return top


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds from a well-formed query, read off
    ``GRAMMAR``; None for anything else.

    Only exact flag names are read, each at most once, as ``--flag value``
    or ``--flag=value`` (split at the first '=').  argparse takes an
    '='-joined value as given unless it is exactly '--', and so does the
    reader.  A spaced value or a positional that is empty or starts with
    '-' is left to argparse, as are '--', a failing ``int``, a choice
    outside the list, a value given to a switch, a missing required flag
    and a wrong number of positionals."""
    words = tuple(argv[:1])
    if words not in GRAMMAR:
        words = tuple(argv[:2])
    command = GRAMMAR.get(words)
    if command is None:
        return None
    values = {"command": words[0]}
    if len(words) == 2:
        values[_dest(words[0]) + "_command"] = words[1]
    flags = {flag.name: flag for flag in command.flags}
    given, positionals = {}, []
    tokens = iter(argv[len(words) :])
    for token in tokens:
        if not token:
            return None
        if token[0] != "-":
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        flag = flags.get(name)
        if flag is None or name in given:
            return None
        if flag.kind is bool:
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(tokens, "")
            if not value or value[0] == "-":
                return None
        elif value == "--":
            return None
        if flag.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        given[name] = value
    if len(positionals) != len(command.positionals):
        return None
    values.update(zip((dest for dest, _ in command.positionals), positionals))
    for flag in command.flags:
        if flag.name in given:
            values[_dest(flag.name)] = given[flag.name]
        elif flag.required:
            return None
        else:
            values[_dest(flag.name)] = False if flag.kind is bool else flag.default
    values["run"] = command.run
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse wrote its help or refused the input
            _flush()
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        except BrokenPipeError:  # its help met a closed pipe, and argparse let it out
            _flush()
            return EXIT_OK
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
