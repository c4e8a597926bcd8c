"""Time and call count of each stage of ``enumerate_profiles``'s candidate loop.

The posets are built first and not timed, so the figures are the candidate
stage alone.  Each stage is one or more functions that the ``enumeration``
module calls through its module attributes; the script wraps those
attributes for the run and restores them after, and changes nothing in
``src/``.  The walks run inside the leaf finder, so they are counted, by
wrapping ``core._leaf_certificates``, but not timed apart from it.  What is
left of the whole call is the loop's own work, the ``set()`` of documents
among it.  Each wrapped call adds two clock reads and a Python frame to its
stage, about half a microsecond.  Stdlib only:

    PYTHONPATH=src python tests/enum_stages.py --total 10 [--max-vertices M] [--repeat R]

Each stage prints its calls per run and the median of its time over the runs.
"""

from __future__ import annotations

import argparse
import statistics
import time
import types

from rkdist import core, enumeration

# Stage -> the enumeration attributes it wraps; an attribute the module lacks is skipped.
STAGES = {
    "labellings": ("_labellings",),
    "orbits": ("_one_per_orbit",),
    "checks": ("_extremes", "_failed_conditions"),
    "initial cells": ("_cell_keys", "_initial_cells"),
    "seeds": ("_keeping_labels",),
    "finder calls and walks": ("_least_leaf",),
    "uniform certificates": ("_certificate",),
    "documents": ("_document",),
    "sort": ("sorted",),
}


def _timed(fn, totals, calls, stage):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if isinstance(result, types.GeneratorType):
            result = iter(list(result))
        totals[stage] += time.perf_counter() - start
        calls[stage] += 1
        return result

    return wrapper


def run(total, max_vertices=None):
    """One enumeration with every stage wrapped: (seconds, calls) per stage, the
    walks, the whole call's seconds and the profile count."""
    for k in range(1, total + 1):
        enumeration._bounded_posets(k)
    seconds = dict.fromkeys(STAGES, 0.0)
    calls = dict.fromkeys(STAGES, 0)
    walks = []

    class Counted(core._leaf_certificates):
        def __init__(self, *structure):
            walks.append(None)
            super().__init__(*structure)

    saved = {name: vars(enumeration).get(name) for names in STAGES.values() for name in names}
    for stage, names in STAGES.items():
        for name in names:
            fn = sorted if name == "sorted" else saved[name]
            if fn is not None:
                setattr(enumeration, name, _timed(fn, seconds, calls, stage))
    core_walk = core._leaf_certificates
    core._leaf_certificates = Counted
    try:
        start = time.perf_counter()
        result = enumeration.enumerate_profiles(total, max_vertices)
        whole = time.perf_counter() - start
    finally:
        core._leaf_certificates = core_walk
        for name, fn in saved.items():
            if fn is not None:
                setattr(enumeration, name, fn)
            elif name == "sorted":
                del enumeration.sorted
    return seconds, calls, len(walks), whole, len(result.profiles)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--total", type=int, required=True)
    parser.add_argument("--max-vertices", type=int)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    runs = [run(args.total, args.max_vertices) for _ in range(args.repeat)]
    _, calls, walks, _, profiles = runs[0]
    whole = statistics.median(r[3] for r in runs)
    cut = "" if args.max_vertices is None else f", at most {args.max_vertices} vertices"
    print(f"total {args.total}{cut}: {profiles} profiles, median of {len(runs)} runs")
    print(f"{'stage':24s} {'calls':>8s} {'seconds':>9s} {'share':>6s}")
    staged = 0.0
    for stage in STAGES:
        if not calls[stage]:
            continue
        s = statistics.median(r[0][stage] for r in runs)
        staged += s
        print(f"{stage:24s} {calls[stage]:8d} {s:9.4f} {s / whole:6.1%}")
    print(f"{'  of which walks':24s} {walks:8d}")
    print(f"{'loop and dedup (rest)':24s} {'':8s} {whole - staged:9.4f} {1 - staged / whole:6.1%}")
    print(f"{'candidate stage':24s} {'':8s} {whole:9.4f}")


if __name__ == "__main__":
    main()
