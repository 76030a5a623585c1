"""Run one roofscope CLI query in this process and report on it.

Usage: python bench/tracer.py <fd> <trace 0|1> <cli argv...>

Calls ``roofscope.cli.main(argv)``, so stdout and the exit code are
exactly those of ``python -m roofscope.cli <argv>``.  When the query
ends, one JSON object is written to file descriptor <fd>.  It always
holds ``peak_rss_kb``, this process's own peak RSS since exec (VmHWM):
the ``ru_maxrss`` that ``wait4`` returns also counts the high-water mark
of the parent that spawned the child, so it cannot measure a child
smaller than its parent.

With trace 1, every function listed in ``TRACED`` is first rebound -- in
each ``roofscope`` module namespace that holds it -- to a wrapper that
counts calls, total time and the time spent in nested traced calls, and
``BundleChowRing.reduce`` is wrapped on its class.  A listed function
that no longer exists is skipped and reads as zero calls.  The
aggregates stay in memory and go into the same JSON object.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# metric prefix -> (module, attribute); the prefix names the layer first
TRACED = {
    "root_system.construct": ("roofscope.root_system", "construct"),
    "dynkin.classify_components": ("roofscope.dynkin", "classify_components"),
    "dynkin.diagram_of": ("roofscope.dynkin", "diagram_of"),
    "dynkin.remove_node": ("roofscope.dynkin", "remove_node"),
    "dynkin.parse": ("roofscope.dynkin", "parse"),
    "homog.is_projective_space": ("roofscope.homog", "is_projective_space"),
    "homog.fibration_fiber": ("roofscope.homog", "fibration_fiber"),
    "homog.gp_invariants": ("roofscope.homog", "gp_invariants"),
    "roofs.is_roof": ("roofscope.roofs", "is_roof"),
    "roofs.enumerate_roofs": ("roofscope.roofs", "enumerate_roofs"),
    "roofs.verify_paper_table": ("roofscope.roofs", "verify_paper_table"),
    "roofs.classify_simple_kequiv": ("roofscope.roofs", "classify_simple_kequiv"),
    "render.render_table": ("roofscope.render", "render_table"),
    "render.render_csv": ("roofscope.render", "render_csv"),
    "render.render_json": ("roofscope.render", "render_json"),
    "render.render_latex": ("roofscope.render", "render_latex"),
    "cli.main": ("roofscope.cli", "main"),
}
TRACED_METHODS = {
    "chow.reduce": ("roofscope.chow", "BundleChowRing", "reduce"),
}

# function key -> [calls, total seconds, seconds in nested traced calls]
stats: dict[str, list] = {key: [0, 0.0, 0.0] for key in (*TRACED, *TRACED_METHODS)}
counters = {"construct_distinct": 0, "roots_closed": 0, "is_roof_hits": 0,
            "records": 0, "terms_out": 0, "diagram_of_hits": 0, "diagram_of_misses": 0}
_systems: dict = {}  # factor tuple -> number of positive roots
_child_time = [0.0]  # one accumulator per active traced frame, plus the root


def _observe_construct(result) -> None:
    factors = getattr(result, "factors", None)
    if factors is not None and factors not in _systems:
        _systems[factors] = len(getattr(result, "positive_roots", ()))


def _observe_is_roof(result) -> None:
    if result is not None:
        counters["is_roof_hits"] += 1


def _observe_enumerate(result) -> None:
    counters["records"] += len(result)


def _observe_reduce(result) -> None:
    counters["terms_out"] += len(getattr(result, "terms", ()))


OBSERVERS = {
    "root_system.construct": _observe_construct,
    "roofs.is_roof": _observe_is_roof,
    "roofs.enumerate_roofs": _observe_enumerate,
    "chow.reduce": _observe_reduce,
}


def _wrap(key: str, fn):
    entry = stats[key]
    observe = OBSERVERS.get(key)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _child_time.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            nested = _child_time.pop()
            _child_time[-1] += elapsed
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += nested
        if observe is not None:
            try:
                observe(result)
            except TypeError:  # a result of another shape is not counted
                pass
        return result

    return wrapper


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install() -> dict:
    """Wrap every traced function that exists; return the originals by key."""
    _module("roofscope.cli")  # loads every roofscope module
    originals = {}
    for key, (mod_name, attr) in TRACED.items():
        fn = getattr(_module(mod_name), attr, None)
        if not callable(fn):
            continue
        originals[key] = fn
        wrapper = _wrap(key, fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "roofscope" or name.startswith("roofscope.")):
                continue
            for attr_name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr_name, wrapper)
    for key, (mod_name, cls_name, attr) in TRACED_METHODS.items():
        cls = getattr(_module(mod_name), cls_name, None)
        fn = vars(cls).get(attr) if isinstance(cls, type) else None
        if callable(fn):
            originals[key] = fn
            setattr(cls, attr, _wrap(key, fn))
    return originals


def report(originals: dict) -> dict:
    info = getattr(originals.get("dynkin.diagram_of"), "cache_info", None)
    if info is not None:
        ci = info()
        counters["diagram_of_hits"] = ci.hits
        counters["diagram_of_misses"] = ci.misses
    counters["construct_distinct"] = len(_systems)
    counters["roots_closed"] = sum(_systems.values())
    return {"functions": stats, "counters": counters}


def peak_rss_kb() -> int | None:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> None:
    fd, traced, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    originals = install() if traced else None
    import roofscope.cli

    try:
        code = roofscope.cli.main(argv)
    finally:
        sys.stdout.flush()
        out = report(originals) if traced else {}
        out["peak_rss_kb"] = peak_rss_kb()
        with os.fdopen(fd, "w") as f:
            json.dump(out, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
