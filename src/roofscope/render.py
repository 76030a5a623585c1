"""Output formatting: aligned text tables, JSON, CSV and LaTeX.

All emitters are deterministic: rows arrive pre-sorted from the library
layer and are rendered without any environment-dependent state.  The
CSV and JSON emitters import their modules when called, so a query
loads only the format it prints.
"""

from __future__ import annotations

import io
from typing import Sequence

FORMATS = ("table", "json", "csv", "latex")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, v in enumerate(row):
            widths[k] = max(widths[k], len(v))
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[k] for k in range(len(headers))).rstrip(),
    ]
    for row in cells:
        lines.append("  ".join(v.ljust(widths[k]) for k, v in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render_json(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


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


def render_latex(headers: Sequence[str], rows: Sequence[Sequence], raw_columns=()) -> str:
    """A plain tabular; cells are escaped unless their column is listed raw."""
    spec = "l" * len(headers)
    lines = [rf"\begin{{tabular}}{{{spec}}}"]
    lines.append(
        " & ".join(
            h if k in raw_columns else latex_escape(h) for k, h in enumerate(headers)
        )
        + r" \\"
    )
    lines.append(r"\hline")
    for row in rows:
        rendered = [
            _cell(v) if k in raw_columns else latex_escape(_cell(v))
            for k, v in enumerate(row)
        ]
        lines.append(" & ".join(rendered) + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"
