"""Labelled-route enumeration oracle: every naturally labelled bounded order,
every candidate built as a named profile and reduced through canonical_form.

This is the enumerator the library used before it moved to integer
structures; it shares no generation code with ``rkdist.enumeration`` and
builds each candidate through ``make_profile``, so the two routes meet only
in the canonical bytes they emit.
"""

from __future__ import annotations

import functools

from rkdist import CanonicalProfile, RkProfile, canonical_form, make_profile
from rkdist.enumeration import EnumerationResult


def _bits(mask: int):
    return (i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.lru_cache(maxsize=None)
def bounded_orders(k: int) -> tuple[tuple[int, ...], ...]:
    """Strict orders on 0..k-1, naturally labeled, node 0 least and node k-1 greatest.

    Each order is a tuple of strictly-below masks.  Naturally labeled means
    the identity is a linear extension, which every bounded poset admits, so
    every isomorphism class shows up at least once.
    """
    if k == 1:
        return ((0,),)
    results: list[tuple[int, ...]] = []

    def extend(j: int, below: list[int]) -> None:
        if j == k - 1:
            results.append((*below, (1 << (k - 1)) - 1))
            return
        # down-set of node j: contains the least node, downward closed
        for sub in range(1 << (j - 1)):
            d = (sub << 1) | 1
            if all(below[i] & ~d == 0 for i in _bits(d)):
                below.append(d)
                extend(j + 1, below)
                below.pop()

    extend(1, [0])
    return tuple(results)


def _compositions(total: int, slots: int, least: int):
    """Tuples of `slots` integers >= least summing to total."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(least, total - least * (slots - 1) + 1):
        for rest in _compositions(total - first, slots - 1, least):
            yield (first, *rest)


def build(sizes: tuple[int, ...], below: tuple[int, ...], ils: list[int]) -> RkProfile:
    names: list[list[str]] = []
    counter = 0
    for s in sizes:
        names.append([f"v{counter + j:02d}" for j in range(s)])
        counter += s
    pairs: list[tuple[str, str]] = []
    for i, ms in enumerate(names):
        if len(ms) > 1:
            pairs += [(ms[j], ms[(j + 1) % len(ms)]) for j in range(len(ms))]
        for i2 in _bits(below[i]):
            pairs.append((names[i2][0], ms[0]))
    il_by_vertex = {ms[0]: il for ms, il in zip(names, ils)}
    return make_profile([v for ms in names for v in ms], pairs, il_by_vertex)


def labelled_enumerate(total: int, max_vertices: int | None = None) -> EnumerationResult:
    """The same result as enumerate_profiles, through named profiles and canonical_form."""
    nmax = total if max_vertices is None else min(total, max_vertices)
    found: dict[bytes, CanonicalProfile] = {}
    for n in range(2, nmax + 1):
        budget = total - n
        for k in range(2, n + 1):
            for sizes in _compositions(n, k, 1):
                if sizes[0] != 1:
                    continue
                floors = [0] + [1 if s > 1 else 0 for s in sizes[1:]]
                floors[k - 1] = max(floors[k - 1], 1)
                spare = budget - sum(floors)
                if spare < 0:
                    continue
                for below in bounded_orders(k):
                    for extra in _compositions(spare, k - 1, 0):
                        ils = [0] + [floors[i + 1] + extra[i] for i in range(k - 1)]
                        cf = canonical_form(build(sizes, below, ils))
                        found[cf.canonical_text] = cf
    return EnumerationResult(total, tuple(found[t] for t in sorted(found)))
