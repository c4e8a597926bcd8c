"""Burnside count of the admissible profiles of each total, the independent
oracle for the number of profiles that ``enumerate_profiles`` returns.

Two labellings of one bounded quotient poset give isomorphic profiles
exactly when an automorphism of the poset maps one onto the other, so by
Burnside's lemma the poset carries (1/|Aut|) * sum over g of fix(g)
profiles.  A labelling fixed by g is constant on g's cycles, and the
automorphisms fix the bottom and the top.  The bottom is a singleton with
count 0, the top takes a size s >= 1 and a count il >= 1, and an inner class
s >= 1 and il >= [s > 1]; a class adds s + il to the total and s to the
vertex count.  So, with z marking the total and y the vertex count, fix(g)
is read off z y T(z, y) * prod F(z^len, y^len) over g's cycles on the inner
classes, where T and F are the series of the top and of one inner class
(Polya counting by cycle index).  Each poset's group is closed from the
generators that ``_bounded_posets`` keeps; nothing else of the enumeration
is read.  Stdlib only, so it runs on interpreters without pytest:

    PYTHONPATH=src python tests/count_oracle.py --total 11 [--max-vertices M]
"""

from __future__ import annotations

import argparse
import functools
import time
from collections import Counter
from fractions import Fraction

from rkdist.enumeration import _bounded_posets

_Series = dict[tuple[int, int], int]  # (total, vertex count) -> coefficient


def _group(generators: list[list[int]], k: int) -> set[tuple[int, ...]]:
    """The permutation group on k points that the generators span."""
    identity = tuple(range(k))
    group = {identity}
    frontier = [identity]
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def _cycle_type(g: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted cycle lengths of g on the inner points 1..k-2."""
    seen = [False] * len(g)
    lengths = []
    for i in range(1, len(g) - 1):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = g[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@functools.lru_cache(maxsize=None)
def _type_weights(k: int) -> dict[tuple[int, ...], Fraction]:
    """Per cycle type, the sum over the bounded posets on k classes of the
    share of the poset's automorphisms that have that type."""
    weights: dict[tuple[int, ...], Fraction] = {}
    for poset in _bounded_posets(k):
        group = _group(poset.generators, k)
        for cycles, n in Counter(map(_cycle_type, group)).items():
            weights[cycles] = weights.get(cycles, 0) + Fraction(n, len(group))
    return weights


def _multiply(a: _Series, b: _Series, total: int) -> _Series:
    out: Counter[tuple[int, int]] = Counter()
    for (za, ya), ca in a.items():
        for (zb, yb), cb in b.items():
            if za + zb <= total:
                out[za + zb, ya + yb] += ca * cb
    return out


def _cycle_series(length: int, top: bool, total: int) -> _Series:
    """One cycle of `length` classes labelled alike, size s >= 1 and count
    il >= 1 for the top or il >= [s > 1] for an inner class: a term
    z^(length (s + il)) y^(length s) per label."""
    return {
        (length * (s + il), length * s): 1
        for s in range(1, total + 1)
        for il in range(1 if top or s > 1 else 0, total // length - s + 1)
    }


@functools.lru_cache(maxsize=None)
def _fixed(cycles: tuple[int, ...], total: int) -> tuple[int, ...]:
    """Per vertex count n, the labellings of the given total that a permutation
    with these inner cycle lengths fixes: the coefficients of z^total y^n."""
    series: _Series = {(1, 1): 1}  # the bottom
    series = _multiply(series, _cycle_series(1, True, total), total)
    for length in cycles:
        series = _multiply(series, _cycle_series(length, False, total), total)
    return tuple(series.get((total, n), 0) for n in range(total + 1))


def count(total: int, max_vertices: int | None = None) -> int:
    """The admissible profiles, up to isomorphism, of this total and at most max_vertices vertices."""
    nmax = total if max_vertices is None else min(total, max_vertices)
    orbits = Fraction(0)
    # The bottom adds 1, the top at least 2 and each inner class at least 1.
    for k in range(2, total):
        for cycles, weight in _type_weights(k).items():
            orbits += weight * sum(_fixed(cycles, total)[: nmax + 1])
    assert orbits.denominator == 1, orbits
    return int(orbits)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--total", type=int, required=True)
    parser.add_argument("--max-vertices", type=int)
    args = parser.parse_args()
    start = time.perf_counter()
    n = count(args.total, args.max_vertices)
    seconds = time.perf_counter() - start
    cut = "" if args.max_vertices is None else f", at most {args.max_vertices} vertices"
    print(f"total {args.total}{cut}: {n} profiles ({seconds:.2f} s, posets included)")
