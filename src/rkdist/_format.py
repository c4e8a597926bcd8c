"""Document writer for the "rkp 1" format, shared by the serializer and canonical form.

A document is a head, the header, vertex lines and the le lines that cycle
through each class, followed by a tail, the le lines of the Hasse covers and
the il lines.  The head depends only on the names and classes, so a caller
that writes many documents over the same classes can write it once.

It sorts nothing.  Its callers give the vertex names sorted, the classes in
order of their least members (the representatives) with each member list
sorted, and the cover pairs sorted; sorted (X, Y) pairs of representatives
give sorted "le X Y" lines, since every name character, [A-Za-z0-9_*], sorts
above the space.
"""

from __future__ import annotations

from typing import Sequence

HEADER = "rkp 1"


def head(names: Sequence[str], members_by_class: Sequence[Sequence[str]]) -> bytes:
    """Header, vertex and class-cycle lines: ``names`` holds every vertex name and
    ``members_by_class[i]`` one domination class."""
    lines = [HEADER, *(f"vertex {v}" for v in names)]
    for ms in members_by_class:
        if len(ms) > 1:
            lines += [f"le {a} {b}" for a, b in zip(ms, [*ms[1:], ms[0]])]
    return ("\n".join(lines) + "\n").encode("utf-8")


def tail(
    reps: Sequence[str], limit_counts: Sequence[int], cover_pairs: Sequence[tuple[int, int]]
) -> bytes:
    """Cover and il lines: ``reps[i]`` names class i, ``limit_counts[i]`` is its limit
    count, and ``cover_pairs`` are the Hasse covers as (lower, upper) class indices."""
    lines = [f"le {reps[a]} {reps[b]}\n" for a, b in cover_pairs]
    lines += [f"il {r} {count}\n" for r, count in zip(reps, limit_counts)]
    return "".join(lines).encode("utf-8")
