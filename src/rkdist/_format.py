"""Document writer for the "rkp 1" format, shared by the serializer and canonical form.

It sorts nothing.  Its callers give the vertex names sorted, the classes in
order of their least members (the representatives) with each member list
sorted, and the cover pairs sorted; sorted (X, Y) pairs of representatives
give sorted "le X Y" lines, since every name character, [A-Za-z0-9_*], sorts
above the space.
"""

from __future__ import annotations

from typing import Sequence

HEADER = "rkp 1"


def document(
    names: Sequence[str],
    members_by_class: Sequence[Sequence[str]],
    limit_counts: Sequence[int],
    cover_pairs: Sequence[tuple[int, int]],
) -> bytes:
    """Header, vertex, le and il lines: ``names`` holds every vertex name,
    ``members_by_class[i]`` one domination class, ``limit_counts[i]`` its limit
    count, and ``cover_pairs`` the Hasse covers as (lower, upper) class indices."""
    reps = [ms[0] for ms in members_by_class]
    lines = [HEADER, *(f"vertex {v}" for v in names)]
    for ms in members_by_class:
        if len(ms) > 1:
            lines += [f"le {a} {b}" for a, b in zip(ms, [*ms[1:], ms[0]])]
    lines += [f"le {reps[a]} {reps[b]}" for a, b in cover_pairs]
    lines += [f"il {r} {count}" for r, count in zip(reps, limit_counts)]
    return ("\n".join(lines) + "\n").encode("utf-8")
