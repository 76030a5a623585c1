"""Streamed output of ``roofs`` and ``verify-table``.

Both commands print each record or row as it is built.  The references
here render the library's complete lists the way the command line did
before it streamed: every cell of a table first, then its widths; one
``json.dumps`` of the whole payload list; one CSV writer over the list.
The streamed bytes, exit code and stderr must equal them, and memory
must stay flat as the output grows.  A reader that closes the pipe
early ends any command quietly, with its ordinary exit code, and any
other write error ends it with exit 2 and one line on stderr.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import roofscope.roofs
from roofscope.cli import GRAMMAR, main
from roofscope.render import latex_escape
from roofscope.roofs import (
    FAMILY_SPECS,
    NON_HOMOGENEOUS,
    Family,
    RoofRecord,
    TableReport,
    enumerate_roofs,
    verify_paper_table,
)

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS = ("table", "json", "csv", "latex")


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- list-based references ---------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def listed(fmt: str, headers, rows, payload, raw_columns=()) -> str:
    """The whole output, rendered from complete lists."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return buf.getvalue()
    if fmt == "latex":
        lines = [r"\begin{tabular}{" + "l" * len(headers) + "}"]
        for row in [headers, None, *cells]:
            if row is None:
                lines.append(r"\hline")
                continue
            escaped = [v if k in raw_columns else latex_escape(v) for k, v in enumerate(row)]
            lines.append(" & ".join(escaped) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    widths = [max(len(v) for v in column) for column in zip(headers, *cells)]
    lines = [
        "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
        for row in [headers, ["-" * w for w in widths], *cells]
    ]
    return "\n".join(lines) + "\n"


def _family_latex(rec: RoofRecord) -> str:
    # a record's row found by scanning every label, as the command line once did
    for spec in FAMILY_SPECS.values():
        if spec.label(rec.r) == rec.family:
            return spec.latex(rec.r)
    raise AssertionError(rec)


def roofs_listed(fmt: str, records: list[RoofRecord]) -> str:
    """roofs' stdout, from the library's records."""
    if fmt == "latex":
        headers = ["Type", "Marked Dynkin diagram", r"$(\dim V_i,\ r_{V_1},\ r_{V_2})$"]
        rows = [
            [
                _family_latex(rec),
                "--"
                if rec.diagram == NON_HOMOGENEOUS
                else r"\texttt{" + latex_escape(rec.diagram) + "}",
                f"$({rec.dim_V1},\\,{rec.index_V1},\\,{rec.index_V2})$",
            ]
            for rec in records
        ]
        return listed(fmt, headers, rows, None, raw_columns=(0, 1, 2))
    return listed(
        fmt, list(RoofRecord._fields), records, [rec._asdict() for rec in records]
    )


def table_listed(fmt: str, report: TableReport) -> tuple[int, str, str]:
    """verify-table's exit code, stdout and stderr, from the library report."""
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
    out = listed(fmt, ["family", "r", "computed", "expected", "status"], rows, payload)
    err = "".join(
        f"verification failed: {row.family} computed {row.computed}, expected {row.expected}\n"
        for row in report.failures()
    )
    return (0 if report.all_pass else 1), out, err


# --- byte identity -----------------------------------------------------------------


def test_streamed_roofs_equal_the_rendered_list():
    for max_rank in range(1, 65):
        for fiber in (None, 2, 3, 4, 5, 6, 7):
            records = enumerate_roofs(max_rank, fiber)
            for fmt in FORMATS:
                argv = ["roofs", "--max-rank", str(max_rank), "--format", fmt]
                argv += [] if fiber is None else ["--fiber", str(fiber)]
                assert run(*argv) == (0, roofs_listed(fmt, records), ""), argv


def _widths(records, widths=None) -> list[int]:
    widths = widths or [len(h) for h in RoofRecord._fields]
    for rec in records:
        widths = [max(w, len(_cell(v))) for w, v in zip(widths, rec)]
    return widths


def test_the_widest_records_size_the_table_as_the_whole_stream_does():
    # within a family row every cell's printed length grows with r, so each
    # row's record at its largest fitting r holds the row's widest cells
    widest = roofscope.roofs._widest_records
    ranked = sorted(
        (FAMILY_SPECS[family].rank(rec.r), rec)
        for family, rec in roofscope.roofs._roof_stream(512)
    )  # a record is listed up to rank N exactly when its rank is at most N
    widths, k = None, 0
    for n in range(1, 513):
        fits = []
        while k < len(ranked) and ranked[k][0] <= n:
            fits.append(ranked[k][1])
            k += 1
        widths = _widths(fits, widths)
        assert _widths(widest(n)) == widths, n
    assert k == len(ranked)
    # one fiber: the records at r change only where a row's rank starts to fit
    for fiber in range(2, 515):
        at_r = [(rank, rec) for rank, rec in ranked if rec.r == fiber]
        ranks = {rank for rank, _ in at_r}
        for n in {1} | {max(rank, 1) for rank in ranks} | {max(rank - 1, 1) for rank in ranks}:
            fits = [rec for rank, rec in at_r if rank <= n]
            assert _widths(widest(n, fiber)) == _widths(fits), (n, fiber)


def _top_fiber_by_formula(family: Family, n: int) -> int | None:
    # the largest r at which the row's rank fits n, solved by hand
    top = {
        Family.A_PRODUCT: n // 2 + 1,  # rank 2r - 2
        Family.A_MUKAI: n,  # rank r
        Family.A_GRASS: n // 2 + 1,  # rank 2r - 2
        Family.C_FLAG: (2 * (n + 1) // 3) // 2 * 2,  # rank 3r/2 - 1, r even
        Family.D_SPINOR: n,  # rank r
        Family.F4: 3 if n >= 4 else None,
        Family.G2: 2 if n >= 2 else None,
        Family.G2_DAGGER: 3,  # rank 0
    }[family]
    return top if top is not None and FAMILY_SPECS[family].admits(top) else None


def test_top_fiber_agrees_with_a_linear_scan_under_each_bound():
    # the three bounds it bisects by, each holding up to some r and failing
    # after it: the rank (roofs), dim W + 1 = dim V_1 + r and dim V_1 (classify)
    for spec in FAMILY_SPECS.values():
        for bound in range(1, 65):
            for fits in (
                lambda r: spec.rank(r) <= bound,
                lambda r: spec.triple(r)[0] + r <= bound,
                lambda r: spec.triple(r)[0] <= bound,
            ):
                for fibers in (range(2, 67), range(3, 67), range(4, bound + 2)):
                    scan = [r for r in fibers if spec.admits(r) and fits(r)]
                    assert spec.top_fiber(fits, fibers) == max(scan, default=None), (
                        spec.label(4), bound, fibers,
                    )


@pytest.mark.parametrize("n", [10**5, 10**18, 10**20])
def test_the_widest_records_sit_at_each_rows_largest_fitting_r(monkeypatch, n):
    # one bisection per row finds its largest fitting r at any rank, with
    # at most bit_length(n) + 1 rank calls (64 up to n = 2^63)
    spec_rank = roofscope.roofs.FamilySpec.rank
    calls = {}

    def counted(spec, r):
        calls[spec] = calls.get(spec, 0) + 1
        return spec_rank(spec, r)

    monkeypatch.setattr(roofscope.roofs.FamilySpec, "rank", counted)
    got = list(roofscope.roofs._widest_records(n))
    assert calls and max(calls.values()) <= n.bit_length() + 1
    monkeypatch.undo()
    expected = []
    for family in FAMILY_SPECS:
        r = _top_fiber_by_formula(family, n)
        if n == 10**5:  # a linear scan agrees
            spec = FAMILY_SPECS[family]
            fitting = [k for k in range(2, n + 2) if spec.admits(k) and spec.rank(k) <= n]
            assert r == fitting[-1], family
        expected.append(roofscope.roofs._record(family, r))
    assert got == expected
    assert got[-1] == roofscope.roofs.G2_DAGGER_RECORD


def test_the_largest_integer_of_the_stream_needs_no_record():
    # every integer a record prints, in its cells and in its LaTeX row,
    # G2^dagger's notes included, is at most its dim W; _largest_integer
    # is the largest dim W of the stream, read off the closed forms
    stream = [(family, rec) for family, rec in roofscope.roofs._roof_stream(512)]
    assert (Family.G2_DAGGER, roofscope.roofs.G2_DAGGER_RECORD) in stream
    for family, rec in stream:
        text = " ".join(map(str, rec)) + FAMILY_SPECS[family].latex(rec.r)
        assert max(map(int, re.findall(r"\d+", text))) <= rec.dim_W, rec
    largest = roofscope.roofs._largest_integer
    for n in range(1, 513):
        fits = [rec for family, rec in stream if FAMILY_SPECS[family].rank(rec.r) <= n]
        assert largest(n) == max((rec.dim_W for rec in fits), default=0), n
        for fiber in (2, 3, 4, 5, n, n + 1):
            at_r = [rec.dim_W for rec in fits if rec.r == fiber]
            assert largest(n, fiber) == max(at_r, default=0), (n, fiber)


def test_streamed_table_equals_the_rendered_report():
    rows = verify_paper_table(64).rows
    for r_max in range(2, 65):
        report = TableReport(tuple(row for row in rows if row.r <= r_max))
        for fmt in FORMATS:
            argv = ["verify-table", "--r-max", str(r_max), "--format", fmt]
            assert run(*argv) == table_listed(fmt, report), argv


def test_the_family_labels_at_one_r_are_distinct():
    # so sorting one r's records by label keeps the (r, family, rank, diagram) order
    for r in range(2, 5000):
        labels = [spec.label(r) for spec in FAMILY_SPECS.values() if spec.admits(r)]
        assert len(labels) == len(set(labels)), r


def test_an_empty_json_answer_is_an_empty_list():
    assert run("roofs", "--max-rank", "1", "--fiber", "5", "--format", "json") == (0, "[]\n", "")
    # G2^dagger sits at r = 3 whatever the rank bound
    code, out, _ = run("roofs", "--max-rank", "1", "--format", "json")
    assert code == 0 and [rec["family"] for rec in json.loads(out)] == ["G2^dagger"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_failing_row_prints_as_before_and_is_computed_once(monkeypatch, fmt):
    # A6^G (r = 4) computes a dim V_2 index wider than any expected triple
    honest = roofscope.roofs._computed_triple
    calls = []

    def faulty(family, r):
        calls.append((family, r))
        triple = honest(family, r)
        return (*triple[:2], 1000007) if (family, r) == (Family.A_GRASS, 4) else triple

    monkeypatch.setattr(roofscope.roofs, "_computed_triple", faulty)
    expected = table_listed(fmt, verify_paper_table(12))
    rows = len(calls)
    calls.clear()
    assert run("verify-table", "--r-max", "12", "--format", fmt) == expected
    # the table's printing pass recomputes no row
    assert len(calls) == rows
    code, out, err = expected
    assert code == 1
    assert err == "verification failed: A6^G computed (12, 7, 1000007), expected (12, 7, 7)\n"
    if fmt == "table":
        (line,) = [line for line in out.splitlines() if "FAIL" in line]
        assert line.split() == ["A6^G", "4", "(12,", "7,", "1000007)", "(12,", "7,", "7)", "FAIL"]
        # the computed column is as wide as the failing triple
        header = out.splitlines()[0]
        assert header.index("expected") - header.index("computed") == len("(12, 7, 1000007)  ")


# --- a reader that leaves early, and memory ------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


_RING = ("--base", "P2", "--rank", "2", "--cherns", "3,3")
# the output is several times the pipe's capacity
_LONG_ANSWERS = [
    ["roofs", "--max-rank", "2000", "--format", "csv"],
    ["verify-table", "--r-max", "1000"],
    # the table's widths come from one bisection per row, at any rank
    ["roofs", "--max-rank", "100000000000000000000"],
]
# one query per command of the grammar, each exiting 0 on an ordinary run
_ONE_PER_COMMAND = [
    ["gp", "E6:1,6"],
    ["roofs", "--max-rank", "8"],
    ["verify-table", "--r-max", "20"],
    ["classify", "--dim-x", "8"],
    ["chow", "reduce", *_RING, "--element", "xi^2"],
    ["chow", "degree", *_RING, "--element", "(2*xi)^3"],
    ["chow", "canonical", "--base", "Q5", "--rank", "3", "--cherns", "2,2,1"],
    ["chow", "mukai-check", "--index", "5", "--c1", "5", "--rank", "3", "--dim", "5"],
    ["chow", "discrepancy", "--codim", "3"],
    ["chow", "discrepancy", "--codim", "3", "--codim2", "3"],
    ["--help"],
    ["gp", "--help"],
]


def test_one_query_per_command_is_checked():
    prefixes = {tuple(argv[:n]) for argv in _ONE_PER_COMMAND for n in (1, 2)}
    assert set(GRAMMAR) <= prefixes


@pytest.mark.parametrize("argv", _LONG_ANSWERS + _ONE_PER_COMMAND)
def test_a_closed_pipe_ends_the_query_quietly(argv):
    # a reader that left before the first byte: the child's first write
    # already meets a closed pipe
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "roofscope.cli", *argv],
            env=_child_env(),
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")
    if argv not in _LONG_ANSWERS:
        return
    # the child is still writing when the reader closes its end after the
    # first line
    child = subprocess.Popen(
        [sys.executable, "-m", "roofscope.cli", *argv],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""
    assert first.startswith(b"family")


class _ClosingReader:
    """A stdout whose reader leaves after the first line: every later
    write raises BrokenPipeError.  Its file descriptor is one end of a
    pipe of its own, which the command may point at the null device."""

    def __init__(self):
        self.fds = os.pipe()
        self.text = ""

    def fileno(self) -> int:
        return self.fds[1]

    def write(self, text: str) -> int:
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self) -> None:
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_table_checks_every_row_after_the_reader_leaves(monkeypatch, fmt):
    # the failing row comes long after the first line: the exit code and
    # stderr still report it
    honest = roofscope.roofs._computed_triple

    def faulty(family, r):
        triple = honest(family, r)
        return (-1, -1, -1) if (family, r) == (Family.D_SPINOR, 40) else triple

    monkeypatch.setattr(roofscope.roofs, "_computed_triple", faulty)
    stdout, err = _ClosingReader(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        with redirect_stderr(err):
            code = main(["verify-table", "--r-max", "40", "--format", fmt])
    finally:
        os.close(stdout.fds[0])
        os.close(stdout.fds[1])
    assert (code, err.getvalue()) == (
        1, "verification failed: D40 computed (-1, -1, -1), expected (780, 78, 78)\n"
    )
    assert "D40" not in stdout.text


class _GoneReader(_ClosingReader):
    """A stdout whose reader left before the first byte: every write and
    every flush raises BrokenPipeError."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        raise BrokenPipeError(32, "Broken pipe")


_FAILING_CHECKS = [
    ["chow", "mukai-check", "--index", "5", "--c1", "2", "--rank", "3", "--dim", "5"],
    ["chow", "discrepancy", "--codim", "3", "--codim2", "4"],
]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_reader_gone_before_the_first_byte_changes_no_exit_code(monkeypatch, fmt):
    for argv in _ONE_PER_COMMAND + _FAILING_CHECKS:
        argv = argv if "--help" in argv else [*argv, "--format", fmt]
        code, _, err = run(*argv)
        assert err == ""
        stdout = _GoneReader()
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            with redirect_stderr(io.StringIO()) as gone_err:
                assert main(argv) == code, argv
        finally:
            monkeypatch.undo()
            os.close(stdout.fds[0])
            os.close(stdout.fds[1])
        assert gone_err.getvalue() == "", argv
    assert [run(*argv)[0] for argv in _FAILING_CHECKS] == [1, 1]


def test_help_to_a_gone_reader_exits_0_where_argparse_lets_the_error_out(monkeypatch):
    # an argparse whose help writes without catching OSError, as some do
    import argparse

    def print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)

    monkeypatch.setattr(argparse.ArgumentParser, "_print_message", print_message)
    for argv in (["--help"], ["gp", "--help"], ["chow", "--help"]):
        stdout = _GoneReader()
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            with redirect_stderr(io.StringIO()) as err:
                assert main(argv) == 0
        finally:
            os.close(stdout.fds[0])
            os.close(stdout.fds[1])
        assert err.getvalue() == ""


class _FullDevice(_ClosingReader):
    """A stdout on a full disk: every write and every flush raises
    ENOSPC."""

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self) -> None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_CANNOT_WRITE = f"error: cannot write the answer: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("fmt", FORMATS)
def test_an_output_error_exits_2_with_one_line(monkeypatch, fmt):
    # a verification failure included: an answer that cannot be written is
    # lost, and exit 2 says so
    for argv in _ONE_PER_COMMAND + _FAILING_CHECKS:
        argv = argv if "--help" in argv else [*argv, "--format", fmt]
        stdout = _FullDevice()
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            with redirect_stderr(io.StringIO()) as err:
                assert main(argv) == 2, argv
        finally:
            monkeypatch.undo()
            os.close(stdout.fds[0])
            os.close(stdout.fds[1])
        assert err.getvalue() == _CANNOT_WRITE, argv


_TO_DEV_FULL = [
    ["gp", "E6:1,6"],
    ["roofs", "--max-rank", "8", "--format", "csv"],
    ["verify-table", "--r-max", "20"],
    ["chow", "canonical", "--base", "Q5", "--rank", "3", "--cherns", "2,2,1"],
    ["--help"],
]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to /dev/full")
@pytest.mark.parametrize(
    "argv, unbuffered",
    # buffered, the error comes at the flush; unbuffered, at the first write,
    # which argparse on Python 3.11 and later catches and drops in its help
    [(argv, False) for argv in _TO_DEV_FULL]
    + [(argv, True) for argv in _TO_DEV_FULL if argv != ["--help"]],
)
def test_an_answer_to_a_full_device_exits_2_without_a_traceback(argv, unbuffered):
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "roofscope.cli", *argv],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: cannot write the answer: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


_PEAK = """\
import os, sys
from roofscope.cli import main
sys.stdout = open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as f:
    peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
sys.stderr.write(f"{code} {peak}")
"""


def _peak_kb(*argv: str) -> int:
    done = subprocess.run(
        [sys.executable, "-c", _PEAK, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, peak = done.stderr.split()
    assert code == "0", done.stderr
    return int(peak)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize(
    "small, large",
    [
        (("roofs", "--max-rank", "2000", "--format", "csv"),
         ("roofs", "--max-rank", "8000", "--format", "csv")),
        (("verify-table", "--r-max", "1000"), ("verify-table", "--r-max", "4000")),
    ],
)
def test_memory_stays_flat_as_the_output_grows(small, large):
    # each child's own peak RSS (VmHWM) at the end of its query; four
    # times the output may not cost another megabyte
    assert _peak_kb(*large) - _peak_kb(*small) < 1024
