"""Document writer for the "rkp 1" format.

Shared by the serializer and by canonical-form construction so that both emit
byte-identical documents for the same labeled structure.
"""

from __future__ import annotations

from typing import Sequence

HEADER = "rkp 1"


def document(
    members_by_class: Sequence[Sequence[str]],
    limit_counts: Sequence[int],
    cover_pairs: Sequence[tuple[int, int]],
) -> bytes:
    """The document of a labeled structure: header, vertex, le and il lines.

    ``members_by_class[i]`` holds the vertex names of one domination class,
    ``limit_counts[i]`` its limit count, and ``cover_pairs`` the Hasse cover
    relation as (lower, upper) class indices.  The representative of a class
    is its lexicographically least member.
    """
    members = [sorted(ms) for ms in members_by_class]
    class_order = sorted(range(len(members)), key=lambda i: members[i][0])

    lines = [HEADER]
    lines.extend(f"vertex {v}" for v in sorted(v for ms in members for v in ms))
    for i in class_order:
        ms = members[i]
        if len(ms) > 1:
            lines.extend(f"le {ms[j]} {ms[(j + 1) % len(ms)]}" for j in range(len(ms)))
    lines.extend(sorted(f"le {members[a][0]} {members[b][0]}" for a, b in cover_pairs))
    lines.extend(f"il {members[i][0]} {limit_counts[i]}" for i in class_order)
    # LF line endings and a trailing newline, always.
    return ("\n".join(lines) + "\n").encode("utf-8")
