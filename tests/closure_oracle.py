"""Warshall closure and bit-walk class index, the differential oracle for
``core._closure_index``.

``relation_masks`` sorts the names and encodes the listed pairs as
per-vertex successor masks; ``warshall_close`` takes the closure with
Warshall's n**2 loop over the successor masks; ``class_index`` reads each
class off the closed masks by testing, for every vertex, each of its
successors for the reverse relation, and then walks every comparable pair
for the down- and up-sets, and for the covers by their definition: a
strictly below b with no class strictly between them.  None of them shares
code with the library's Tarjan walk over the condensed graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from rkdist.core import _bits, _ClassIndex, _least


def relation_masks(
    names: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Sorted names and, per name, the mask of the names that a pair puts above it."""
    names = tuple(sorted(names))
    at = {v: i for i, v in enumerate(names)}
    succ = [0] * len(names)
    for a, b in pairs:
        succ[at[a]] |= 1 << at[b]
    return names, tuple(succ)


def warshall_close(succ: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of per-vertex successor masks."""
    succ = [s | 1 << i for i, s in enumerate(succ)]
    n = len(succ)
    for k in range(n):
        bit = 1 << k
        row = succ[k]
        for i in range(n):
            if succ[i] & bit:
                succ[i] |= row
    return succ


def class_index(succ: Sequence[int]) -> _ClassIndex:
    """Class index of closed successor masks."""
    # A class is first met at its least member, so masks come out in that order.
    position = [-1] * len(succ)
    masks: list[int] = []
    for i in range(len(succ)):
        if position[i] < 0:
            m = 0
            for j in _bits(succ[i]):
                if succ[j] >> i & 1:
                    m |= 1 << j
                    position[j] = len(masks)
            masks.append(m)
    down = [0] * len(masks)
    up = [0] * len(masks)
    for a, m in enumerate(masks):
        for j in _bits(succ[_least(m)] & ~m):
            up[a] |= 1 << position[j]
            down[position[j]] |= 1 << a
    covers = [0] * len(masks)
    for a, u in enumerate(up):
        for b in _bits(u):
            if not down[b] & up[a]:
                covers[a] |= 1 << b
    return _ClassIndex(tuple(masks), tuple(position), tuple(down), tuple(up), tuple(covers))
