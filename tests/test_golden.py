"""The golden corpus: a fixed grid of command lines, each with the short
sha256 of its answer.

``queries`` lists the grid: every ``roofs``, ``verify-table`` and
``classify`` query of a range of sizes in every format, about 700 valid
and malformed ``gp`` strings, and ``chow`` queries on the rings of P1-P8,
Q3, Q5 and Q7 with integral, fractional and refused elements.  Each
query runs in process through ``cli.main``; ``answer`` hashes its exit
code, stdout and stderr.  ``golden_hashes.txt`` holds one line
"<hash>  <query>" per query, and the test below fails on any query whose
answer changed, naming the first few.

After a change that is meant to alter output, ``python
tests/golden_regen.py`` (with ``src`` on the path) prints each changed
query with its old and new hash and its new answer, and rewrites the
file.  The grid reaches no argparse message, whose wording and wrapping
vary with the interpreter and the terminal.
"""

from __future__ import annotations

import hashlib
import io
import json
import shlex
from collections.abc import Iterator
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from roofscope.cli import main

GOLDEN = Path(__file__).with_name("golden_hashes.txt")
FORMATS = ("table", "json", "csv", "latex")


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def answer(argv: tuple[str, ...]) -> str:
    """The first 16 hex digits of the sha256 of (exit code, stdout, stderr)."""
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()[:16]


def _optional(flag: str, values) -> Iterator[tuple[str, ...]]:
    yield ()
    for value in values:
        yield (flag, str(value))


def _roofs() -> Iterator[tuple[str, ...]]:
    for max_rank in (*range(1, 40), 256, 1000):
        for fiber in _optional("--fiber", range(2, 7)):
            for fmt in FORMATS:
                yield ("roofs", "--max-rank", str(max_rank), *fiber, "--format", fmt)


def _verify_table() -> Iterator[tuple[str, ...]]:
    for r_max in (*range(1, 40), 500):
        for fmt in FORMATS:
            yield ("verify-table", "--r-max", str(r_max), "--format", fmt)


def _classify() -> Iterator[tuple[str, ...]]:
    for dim_x in _optional("--dim-x", (*range(1, 13), 20, 100)):
        for codim in _optional("--codim", range(2, 10)):
            for gap in _optional("--fiber-gap", range(1, 14)):
                for symplectic in ((), ("--symplectic",)):
                    for fmt in ("table", "json"):
                        yield ("classify", *dim_x, *codim, *gap, *symplectic, "--format", fmt)


_SIMPLE = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(3, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
_MUTATED = (
    "A3:1,2", "B2*C3:1,4", "E7:1,7", "G2:1", "D4:1,3", "F4:2,3", "B2:1", "A10*A1:1,11",
    "C4:3,4", "A2*G2:2,3",
)
_MALFORMED = (
    "", "A3", "A3:", "A3:0", "A3:4", "A3:1,1", "A3:1,", "A3::1", "A3:,1", "a3:1", "A3 :1",
    "A3:1 ", "A3*A1*A1:1", "A0:1", "B1:1", "C1:1", "D1:1", "D2:1", "D3:1", "E4:1", "E5:1",
    "E9:1", "F3:1", "G3:1", "H2:1", "A01:1", "A3:01", "A3:١", "A²:1", "*A1:1", "A1*:1",
    "A1**A1:1", ":1", "A3:1:2", "B2:1,2,3", "A2*A2:1,4,", "A2*A2:5",
)


def _gp_strings() -> Iterator[str]:
    for name in _SIMPLE:
        rank = int(name[1:])
        for i in range(1, rank + 1):
            yield f"{name}:{i}"
            if rank <= 5:
                yield from (f"{name}:{i},{j}" for j in range(i + 1, rank + 1))
        yield f"{name}:{','.join(map(str, range(1, rank + 1)))}"
    yield from ("B2:1", "B2:2", "B2:2,1", "E7:1,3,5,7", "A3:3,1")
    small = ("A1", "A2", "B2", "G2", "C3")
    for left in small:
        for right in small:
            first, total = int(left[1:]), int(left[1:]) + int(right[1:])
            yield f"{left}*{right}:1,{first + 1}"
            yield f"{left}*{right}:{first},{total}"
    yield from _MALFORMED
    for seed in _MUTATED:
        for k in range(len(seed)):
            yield seed[:k] + seed[k + 1 :]
            yield from (seed[:k] + ch + seed[k + 1 :] for ch in "0,:*x" if ch != seed[k])


def _gp() -> Iterator[tuple[str, ...]]:
    seen = set()
    for text in _gp_strings():
        if text not in seen and not text.startswith("-"):
            seen.add(text)
            for fmt in FORMATS:
                yield ("gp", text, "--format", fmt)


_BASES = (*(f"P{n}" for n in range(1, 9)), "Q3", "Q5", "Q7")
_BUNDLES = (("1", "1"), ("2", "3,3"), ("2", "1/2,-1/3"), ("3", "2,2,1"))
_ELEMENTS = (
    # integral
    "(xi+H)^3", "(2*xi)^3", "xi^2*H - 3*H^2", "(1+xi+H)^10", "xi^4", "7",
    # fractional
    "1/2*xi + 2/3*H", "(xi - 1/3*H)^4", "(1/2 + xi)^5*H",
    # refused
    "xi+", "(xi", "1/0", "x", "0.5*xi", "H H", "xi^", "2**3", "((3^9999)^9999)^9999",
)


def _chow() -> Iterator[tuple[str, ...]]:
    for base in _BASES:
        for rank, cherns in _BUNDLES:
            ring = ("--base", base, "--rank", rank, f"--cherns={cherns}")
            for fmt in FORMATS:
                yield ("chow", "canonical", *ring, "--format", fmt)
            for element in _ELEMENTS:
                for command in ("reduce", "degree"):
                    for fmt in ("table", "json"):
                        yield ("chow", command, *ring, f"--element={element}", "--format", fmt)
    for index in range(1, 7):
        for c1 in ("2", "5/2", "-1"):
            for rank, dim in ((2, 3), (3, 5)):
                for fmt in ("table", "json"):
                    yield (
                        "chow", "mukai-check", "--index", str(index), f"--c1={c1}",
                        "--rank", str(rank), "--dim", str(dim), "--format", fmt,
                    )
    for codim in range(1, 7):
        for codim2 in _optional("--codim2", range(1, 7)):
            for fmt in ("table", "json"):
                yield ("chow", "discrepancy", "--codim", str(codim), *codim2, "--format", fmt)


def queries() -> Iterator[tuple[str, ...]]:
    """The corpus, in a fixed order."""
    for part in (_roofs, _verify_table, _classify, _gp, _chow):
        yield from part()


def recorded() -> dict[str, str]:
    """The hash file: query (``shlex.join`` of its argv) -> hash."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {query: digest for digest, query in (line.split("  ", 1) for line in lines)}


def test_every_query_of_the_corpus_gives_its_recorded_answer():
    golden = recorded()
    grid = [shlex.join(argv) for argv in queries()]
    assert len(set(grid)) == len(grid)
    assert set(grid) == set(golden), "the grid and the hash file list different queries"
    changed = [
        query for query, argv in zip(grid, queries()) if answer(argv) != golden[query]
    ]
    assert not changed, f"{len(changed)} answers changed, first: {changed[:10]}"
