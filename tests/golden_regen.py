"""Rewrite ``tests/golden_hashes.txt`` from the current code.

Run from the repository root as

    PYTHONPATH=src python tests/golden_regen.py

Each query whose hash changed is printed as "query: old -> new", then its
new exit code, stdout and stderr, cut to a few lines; added and dropped
queries are counted.  pytest does not collect this file.
"""

from __future__ import annotations

import shlex
import sys

from test_golden import GOLDEN, answer, queries, recorded, run


def _excerpt(text: str, limit: int = 6) -> str:
    lines = text.splitlines()
    shown = "\n".join(f"      {line}" for line in lines[:limit])
    return shown + (f"\n      ... ({len(lines) - limit} more lines)" if len(lines) > limit else "")


def main() -> int:
    old = recorded() if GOLDEN.exists() else {}
    new = {}
    for args in queries():
        query = shlex.join(args)
        new[query] = answer(args)
        if query in old and old[query] != new[query]:
            code, out, err = run(args)
            print(f"{query}: {old[query]} -> {new[query]}")
            print(f"    exit {code}")
            if out:
                print(f"    stdout:\n{_excerpt(out)}")
            if err:
                print(f"    stderr:\n{_excerpt(err)}")
    changed = sum(query in old and old[query] != digest for query, digest in new.items())
    added, dropped = len(new.keys() - old.keys()), len(old.keys() - new.keys())
    print(f"{len(new)} queries: {changed} changed, {added} added, {dropped} dropped")
    GOLDEN.write_text("".join(f"{d}  {q}\n" for q, d in new.items()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
