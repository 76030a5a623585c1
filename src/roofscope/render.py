"""Output formatting: aligned text tables, JSON, CSV and LaTeX.

All emitters are deterministic: rows arrive pre-sorted from the library
layer and are rendered without any environment-dependent state.  Each
emitter writes to a text stream ``out`` as it goes, so an output of any
length is printed in constant memory.  The table sizes its columns on
rows at least as wide as those it prints, the same rows or a widest
few, before its first line.  The CSV and JSON emitters import their
modules when called, so a query loads only the format it prints.
A command converts an answer that the interpreter may refuse to print
with ``text`` before writing any of it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence

FORMATS = ("table", "json", "csv", "latex")


def text(value) -> str:
    """``str(value)``.  An integer past the interpreter's limit on printed
    digits (4300 unless configured otherwise; roofscope leaves it as it is)
    is refused with a ValueError that names the limit, so a command that
    converts its answer first writes none of it."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"the answer holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for printing one"
        ) from None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_table(
    out, headers: Sequence[str], widest: Iterable[Sequence], rows: Iterable[Sequence]
) -> None:
    """Aligned columns, as wide as the headers and the cells of ``widest``:
    ``rows`` again, or rows known to be at least as wide in each column.
    Then ``rows`` is printed, read once."""
    widths = [len(h) for h in headers]
    for row in widest:
        widths = [max(w, len(_cell(v))) for w, v in zip(widths, row)]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def render_csv(out, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def render_json(out, payload) -> None:
    """The bytes of ``json.dumps(payload, indent=2)`` and a newline.  A
    payload that is not a dict is a JSON array, written item by item: each
    item dumped alone, its lines indented two more spaces."""
    import json

    if isinstance(payload, dict):
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    sep = "[\n  "
    for item in payload:
        out.write(sep + json.dumps(item, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    out.write("[]\n" if sep == "[\n  " else "\n]\n")


def latex_escape(text: str) -> str:
    out = []
    for ch in str(text):
        if ch in "&%$#_{}":
            out.append("\\" + ch)
        elif ch == "^":
            out.append(r"\^{}")
        elif ch == "~":
            out.append(r"\textasciitilde{}")
        elif ch == "\\":
            out.append(r"\textbackslash{}")
        else:
            out.append(ch)
    return "".join(out)


def render_latex(out, headers: Sequence[str], rows: Iterable[Sequence], raw=False) -> None:
    """A plain tabular; cells are escaped unless ``raw``."""
    def line(cells) -> str:
        cells = map(_cell, cells) if raw else (latex_escape(_cell(v)) for v in cells)
        return " & ".join(cells) + r" \\" + "\n"

    out.write(rf"\begin{{tabular}}{{{'l' * len(headers)}}}" + "\n")
    out.write(line(headers))
    out.write(r"\hline" + "\n")
    for row in rows:
        out.write(line(row))
    out.write(r"\end{tabular}" + "\n")
