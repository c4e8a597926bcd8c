"""Spans around the public functions of rkdist, recorded from outside the package.

Each listed function is replaced, in every rkdist module that binds it, by a
wrapper that records one span: its own index, the function, the enclosing
span, the request (one `cli.run` call) and its start and end in nanoseconds.
Spans stay in memory until `clear`; `write` saves those held.  Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# (layer, function) as named in BENCHMARK.json's per-layer metrics.
FUNCTIONS = (
    ("cli", "run"),
    ("io", "parse"),
    ("io", "serialize"),
    ("io", "render_dot"),
    ("io", "render_ascii"),
    ("core", "close_preorder"),
    ("core", "mutual_classes"),
    ("core", "make_profile"),
    ("core", "quotient"),
    ("core", "validate_profile"),
    ("core", "counts"),
    ("core", "canonical_form"),
    ("core", "is_isomorphic"),
    ("product", "pareto_product"),
    ("product", "product_many"),
    ("product", "decomposition"),
    ("product", "is_lattice"),
    ("product", "monotonicity"),
    ("enumeration", "enumerate_profiles"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in FUNCTIONS)

# One span is six integers in `Tracer.spans`, in the order of FIELDS.
FIELDS = ("span", "function", "parent", "request", "start_ns", "end_ns")
WIDTH = len(FIELDS)


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.request = -1
        self.missing: list[str] = []
        self._next = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "rkdist" or n.startswith("rkdist."))]
        for fid, (layer, fn) in enumerate(FUNCTIONS):
            home = sys.modules.get(f"rkdist.{layer}")
            original = getattr(home, fn, None)
            if original is None:
                self.missing.append(NAMES[fid])
                continue
            wrapper = self._wrap(original, fid)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, fid: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((idx, fid, parent, self.request, start, end))

        return wrapper

    def clear(self) -> None:
        del self.spans[:]

    def records(self) -> list[tuple[int, ...]]:
        """The spans held, in order of ending, as tuples laid out as FIELDS."""
        s = self.spans
        return [tuple(s[i : i + WIDTH]) for i in range(0, len(s), WIDTH)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            s = self.spans
            for i in range(0, len(s), WIDTH):
                fh.write(f"{s[i]}\t{NAMES[s[i + 1]]}\t{s[i + 2]}\t{s[i + 3]}\t{s[i + 4]}\t{s[i + 5]}\n")


def self_times(records: list[tuple[int, ...]]) -> dict[int, int]:
    """Span index -> duration minus the union of its children's intervals, clipped to it."""
    bounds = {r[0]: (r[4], r[5]) for r in records}
    children: dict[int, list[tuple[int, int]]] = {}
    for r in records:
        if r[2] in bounds:
            children.setdefault(r[2], []).append((r[4], r[5]))
    out = {}
    for idx, (start, end) in bounds.items():
        covered = 0
        reach = start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[idx] = end - start - covered
    return out


def layer_totals(records: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Per function in FUNCTIONS: number of calls and summed self time (ns)."""
    calls = [0] * len(FUNCTIONS)
    self_ns = [0] * len(FUNCTIONS)
    own = self_times(records)
    for r in records:
        calls[r[1]] += 1
        self_ns[r[1]] += own[r[0]]
    return calls, self_ns


def count_under(records: list[tuple[int, ...]], request: int, fn: str, ancestor: str) -> int:
    """Calls of `fn` inside `ancestor` during one request."""
    fid, aid = NAMES.index(fn), NAMES.index(ancestor)
    spans = {r[0]: r for r in records if r[3] == request}
    count = 0
    for r in spans.values():
        if r[1] != fid:
            continue
        parent = r[2]
        while parent in spans and spans[parent][1] != aid:
            parent = spans[parent][2]
        count += parent in spans
    return count
