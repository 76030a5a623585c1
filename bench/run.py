"""End-to-end and per-layer benchmark of the roofscope command line.

Usage, from the root of a source checkout (the package is not installed;
children run with PYTHONPATH=src and ROOFSCOPE_THREADS unset):

    python3 bench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-fixtures

The benchmark process runs a closed loop with one client: each query is a
fresh interpreter running ``bench/tracer.py``, which calls
``roofscope.cli.main(argv)`` as ``python -m roofscope.cli <argv>`` does
and reports the child's own peak RSS.  Queries run one at a time, so
every query pays the cold caches a CLI user pays.  A pass runs the
workload's fixed query set once, in an order permuted by the seed;
passes repeat until the time budget is spent.  A timing is a sum over
the queries of each query's median over the passes.  Every query's exit
code and stdout bytes are compared with ``bench/fixtures``; a mismatch
or a timeout is a failed query.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced passes with passes in which the tracer times each module's
public functions, and reports the per-layer metrics; the count metrics
must repeat exactly between traced passes.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the machine facts and per-query details.  See
bench/README.md for the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = BENCH / "fixtures"
TRACER = BENCH / "tracer.py"

QUERY_TIMEOUT_S = 30.0  # the slowest seed query takes about 3 s
RUN_LIMIT_S = 150.0  # hard stop so a run always exits well within 180 s
SETUP_IMPORTS_PER_PASS = 4
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # traced passes in a --trace 1 run, to check counts repeat


def _chow_reduce(r: int) -> list[str]:
    cherns = ",".join(str(i) for i in range(1, r + 1))
    return ["chow", "reduce", "--base", f"P{r}", "--rank", str(r),
            "--cherns", cherns, "--element", f"xi^{2 * r}"]


def _chow_degree_p(n: int) -> list[str]:
    return ["chow", "degree", "--base", f"P{n}", "--rank", "2",
            "--cherns", "3,3", "--element", f"xi^{n + 1}"]


_Q5 = ["--base", "Q5", "--rank", "3", "--cherns", "2,2,1"]

# workload -> query id -> CLI argv; the query set is fixed, the seed only
# permutes the order.  The ids name the fixture files.
WORKLOADS: dict[str, dict[str, list[str]]] = {
    "enumerate": {
        **{f"roofs-{n}": ["roofs", "--max-rank", str(n)] for n in (8, 10, 12, 14)},
        "roofs-10-latex": ["roofs", "--max-rank", "10", "--format", "latex"],
        "roofs-10-fiber3-json": ["roofs", "--max-rank", "10", "--fiber", "3",
                                 "--format", "json"],
    },
    "invariants": {
        **{"gp-" + d.replace(":", "-").replace(",", "-"): ["gp", d]
           for d in ("A80:40", "A60:30", "D40:39,40", "B30:15", "C30:1,30",
                     "E8:4", "E8:1,8", "F4:2,3")},
        "verify-table-20": ["verify-table", "--r-max", "20"],
    },
    "chow": {
        **{f"chow-reduce-{r}": _chow_reduce(r) for r in (10, 12, 13)},
        **{f"chow-degree-p{n}": _chow_degree_p(n) for n in (20, 24)},
        "chow-degree-q5": ["chow", "degree", *_Q5, "--element", "xi^7"],
        "chow-canonical-q5": ["chow", "canonical", *_Q5],
        "chow-mukai-check": ["chow", "mukai-check", "--index", "5", "--c1", "2",
                             "--rank", "3", "--dim", "5"],
        "chow-discrepancy": ["chow", "discrepancy", "--codim", "3", "--codim2", "4"],
        "classify-dim-x-8": ["classify", "--dim-x", "8"],
        "classify-symplectic": ["classify", "--symplectic"],
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; layer_metrics derives them.  Every "count"
# metric must repeat exactly between traced passes.
PER_LAYER_UNITS = {
    "root_system.construct.calls": "count",
    "root_system.construct.distinct": "count",
    "root_system.construct.self_s": "s",
    "root_system.roots_closed": "count",
    "dynkin.classify_components.calls": "count",
    "dynkin.classify_components.self_s": "s",
    "dynkin.diagram_of.calls": "count",
    "dynkin.diagram_of.hit_ratio": "ratio",
    "dynkin.remove_node.self_s": "s",
    "dynkin.parse.self_s": "s",
    "homog.is_projective_space.calls": "count",
    "homog.is_projective_space.self_s": "s",
    "homog.fibration_fiber.self_s": "s",
    "homog.gp_invariants.calls": "count",
    "homog.gp_invariants.self_s": "s",
    "roofs.is_roof.calls": "count",
    "roofs.is_roof.hit_ratio": "ratio",
    "roofs.enumerate_roofs.self_s": "s",
    "roofs.records": "count",
    "roofs.verify_paper_table.self_s": "s",
    "roofs.classify_simple_kequiv.self_s": "s",
    "chow.reduce.calls": "count",
    "chow.reduce.self_s": "s",
    "chow.reduce.terms_out": "count",
    "render.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    """One finished child; ``code`` is None when it was killed on timeout."""

    code: int | None
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float  # 0 when the child wrote no report
    report: dict | None = None  # the tracer's JSON report


def _child_env() -> dict:
    # a clean interpreter environment: bytecode caching on, no inherited
    # PYTHON* settings, and the shipped ROOFSCOPE_THREADS default
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "ROOFSCOPE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], timeout: float, report: bool = False) -> Result:
    """Spawn one child and reap it, killing it after ``timeout`` seconds.

    Wall time runs from spawn to exit and CPU time comes from the child's
    rusage.  With ``report`` the child is a ``bench/tracer.py`` command:
    the number of a pipe's write end is inserted after ``cmd[1]``, and the
    JSON report read from the pipe supplies ``Result.report`` and the peak
    RSS.  (The ``ru_maxrss`` from ``wait4`` would also count this
    process's own high-water mark.)
    """
    read_fd = write_fd = None
    if report:
        read_fd, write_fd = os.pipe()
        cmd = [cmd[0], cmd[1], str(write_fd), *cmd[2:]]
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            pass_fds=(write_fd,) if report else (),
        )
    finally:
        if report:
            os.close(write_fd)
    out_fd = proc.stdout.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: []}
    if report:
        chunks[read_fd] = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    if report:
        os.close(read_fd)
    try:
        child_report = json.loads(b"".join(chunks.get(read_fd, [])))
    except ValueError:
        child_report = None
    return Result(
        code=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[out_fd]),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=((child_report or {}).get("peak_rss_kb") or 0) / 1024.0,
        report=child_report,
    )


def _cli_cmd(argv: list[str], traced: bool) -> list[str]:
    return [sys.executable, str(TRACER), "1" if traced else "0", *argv]


def load_fixtures(queries) -> dict[str, tuple[int, bytes]]:
    codes = json.loads((FIXTURES / "exit_codes.json").read_text())
    return {q: (codes[q], (FIXTURES / f"{q}.stdout").read_bytes()) for q in queries}


def record_fixtures() -> None:
    """Write every query's stdout and exit code under bench/fixtures."""
    FIXTURES.mkdir(exist_ok=True)
    codes = {}
    for queries in WORKLOADS.values():
        for qid, argv in queries.items():
            res = run_child(_cli_cmd(argv, False), QUERY_TIMEOUT_S, report=True)
            if res.code is None:
                sys.exit(f"error: {qid} timed out; no fixture recorded")
            (FIXTURES / f"{qid}.stdout").write_bytes(res.stdout)
            codes[qid] = res.code
    (FIXTURES / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


class Workload:
    """The closed loop over one workload's queries, with failure accounting."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.queries = WORKLOADS[name]
        self.expected = load_fixtures(self.queries)
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool) -> list[tuple[str, Result]]:
        """Run every query once in a seeded order; return the ones that ran."""
        order = list(self.queries)
        self.rng.shuffle(order)
        done = []
        for qid in order:
            self.attempted += 1
            timeout = min(QUERY_TIMEOUT_S, self.deadline - time.perf_counter())
            if timeout <= 0:
                self.failed += 1
                print(f"error: {qid} not run, the run's time limit is spent", file=sys.stderr)
                continue
            res = run_child(_cli_cmd(self.queries[qid], traced), timeout, report=True)
            problem = None
            if res.code is None:
                problem = f"timed out after {timeout:.1f} s"
            elif (res.code, res.stdout) != self.expected[qid]:
                problem = "exit code or stdout differs from its fixture"
            elif res.report is None:
                problem = "wrote no report"
            if problem is not None:
                self.failed += 1
                print(f"error: {qid} {problem}", file=sys.stderr)
            done.append((qid, res))
        return done


def _time_imports(count: int) -> list[float]:
    walls = []
    for _ in range(count):
        res = run_child([sys.executable, "-c", "import roofscope.cli"], QUERY_TIMEOUT_S)
        if res.code != 0:
            sys.exit("error: `import roofscope.cli` failed; is this a roofscope checkout?")
        walls.append(res.wall)
    return walls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _aggregate(traces: list[dict]):
    """Sum tracer reports into calls and self time per function, and counters."""
    calls, self_s, counters = Counter(), Counter(), Counter()
    for tr in traces:
        for key, (n, total, nested) in tr["functions"].items():
            calls[key] += n
            self_s[key] += total - nested
        counters.update(tr["counters"])
    return calls, self_s, counters


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except trace.overhead_s."""
    calls, self_s, counters = _aggregate(traces)
    lookups = counters["diagram_of_hits"] + counters["diagram_of_misses"]
    return {
        "root_system.construct.calls": calls["root_system.construct"],
        "root_system.construct.distinct": counters["construct_distinct"],
        "root_system.construct.self_s": self_s["root_system.construct"],
        "root_system.roots_closed": counters["roots_closed"],
        "dynkin.classify_components.calls": calls["dynkin.classify_components"],
        "dynkin.classify_components.self_s": self_s["dynkin.classify_components"],
        "dynkin.diagram_of.calls": calls["dynkin.diagram_of"],
        "dynkin.diagram_of.hit_ratio": _ratio(counters["diagram_of_hits"], lookups),
        "dynkin.remove_node.self_s": self_s["dynkin.remove_node"],
        "dynkin.parse.self_s": self_s["dynkin.parse"],
        "homog.is_projective_space.calls": calls["homog.is_projective_space"],
        "homog.is_projective_space.self_s": self_s["homog.is_projective_space"],
        "homog.fibration_fiber.self_s": self_s["homog.fibration_fiber"],
        "homog.gp_invariants.calls": calls["homog.gp_invariants"],
        "homog.gp_invariants.self_s": self_s["homog.gp_invariants"],
        "roofs.is_roof.calls": calls["roofs.is_roof"],
        "roofs.is_roof.hit_ratio": _ratio(counters["is_roof_hits"], calls["roofs.is_roof"]),
        "roofs.enumerate_roofs.self_s": self_s["roofs.enumerate_roofs"],
        "roofs.records": counters["records"],
        "roofs.verify_paper_table.self_s": self_s["roofs.verify_paper_table"],
        "roofs.classify_simple_kequiv.self_s": self_s["roofs.classify_simple_kequiv"],
        "chow.reduce.calls": calls["chow.reduce"],
        "chow.reduce.self_s": self_s["chow.reduce"],
        "chow.reduce.terms_out": counters["terms_out"],
        "render.self_s": sum(v for k, v in self_s.items() if k.startswith("render.")),
        "cli.self_s": self_s["cli.main"],
    }


def layer_self_times(traces: list[dict]) -> dict[str, float]:
    """Self time per layer (module), summed over its traced functions."""
    out: Counter = Counter()
    for key, value in _aggregate(traces)[1].items():
        out[key.split(".")[0]] += value
    return dict(out)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "child_env": "no inherited PYTHON* variables, PYTHONPATH=src, ROOFSCOPE_THREADS unset",
    }


def _query_medians(passes, attr: str) -> dict[str, float]:
    """Each query's median of one Result attribute over the passes."""
    values: dict[str, list[float]] = {}
    for done in passes:
        for qid, res in done:
            values.setdefault(qid, []).append(getattr(res, attr))
    return {qid: statistics.median(v) for qid, v in sorted(values.items())}


def _more_rounds(done: list[float], minimum: int, seconds: float, started: float,
                 deadline: float) -> bool:
    """Whether to start another round, given the durations of those done."""
    now = time.perf_counter()
    if now >= deadline:
        return False
    return len(done) < minimum or now - started + max(done) < seconds


def measure_end_to_end(wl: Workload, seconds: float, started: float):
    setup, passes, rounds = [], [], []
    while _more_rounds(rounds, MIN_PASSES, seconds, started, wl.deadline):
        round_start = time.perf_counter()
        # set-up is sampled before every pass, so its median spans the run
        setup += _time_imports(SETUP_IMPORTS_PER_PASS)
        passes.append(wl.run_pass(traced=False))
        rounds.append(time.perf_counter() - round_start)
    # sums of per-query medians: contention on the host comes in bursts of
    # a few seconds, and a per-query median drops a burst that hit one pass
    query_wall = _query_medians(passes, "wall")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(query_wall.values()),
        "cpu_s": sum(_query_medians(passes, "cpu").values()),
        "peak_rss_mb": statistics.median(max(r.rss_mb for _, r in p) for p in passes),
    }
    return metrics, {"passes": len(passes), "query_wall_s": query_wall}, True


def measure_per_layer(wl: Workload, seconds: float, started: float):
    plain_walls, traced_walls, per_pass, layer_self, rounds = [], [], [], [], []
    while _more_rounds(rounds, MIN_TRACED_PASSES, seconds, started, wl.deadline):
        round_start = time.perf_counter()
        plain = wl.run_pass(traced=False)
        traced = wl.run_pass(traced=True)
        traces = [res.report for _, res in traced if "functions" in (res.report or {})]
        plain_walls.append(sum(r.wall for _, r in plain))
        traced_walls.append(sum(r.wall for _, r in traced))
        per_pass.append(layer_metrics(traces))
        layer_self.append(layer_self_times(traces))
        rounds.append(time.perf_counter() - round_start)
    counts = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
    counts_repeat = all(p[name] == per_pass[0][name] for p in per_pass for name in counts)
    if not counts_repeat:
        print("error: count metrics differ between traced passes", file=sys.stderr)
    metrics = {
        name: value if name in counts else statistics.median(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, plain_walls)
    )
    layers = {
        layer: statistics.median(ls.get(layer, 0.0) for ls in layer_self)
        for layer in sorted({k for ls in layer_self for k in ls})
    }
    details = {
        "passes": len(per_pass),
        "layer_self_s": layers,
        "top_layer": max(layers, key=layers.get) if layers else None,
    }
    return metrics, details, counts_repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fixtures", action="store_true",
                    help="record every query's stdout and exit code as the fixtures")
    args = ap.parse_args()
    if not (ROOT / "src" / "roofscope" / "cli.py").is_file():
        print(f"error: no roofscope source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.record_fixtures:
        record_fixtures()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    started = time.perf_counter()
    _time_imports(1)  # checks the package imports and leaves its bytecode cached
    wl = Workload(args.workload, args.seed, started + RUN_LIMIT_S)
    measure = measure_per_layer if args.trace else measure_end_to_end
    values, details, consistent = measure(wl, args.seconds, started)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(), "fail_ratio": _ratio(wl.failed, wl.attempted),
        **details,
    }))
    print(json.dumps({
        "correct": wl.failed == 0 and consistent,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
