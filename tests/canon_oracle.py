"""Unpruned canonical form, the differential oracle for ``core.canonical_form``.

Walks every leaf of the individualization-refinement tree (same initial
cells, same refinement, same target cell as the library) and returns the
least serialized document over all of them.  It visits one leaf per
automorphism of the quotient, so keep its inputs small.  Its refinement is
its own: every pass recomputes every element's counts against every cell.
So is its document writer, which sorts whatever it is given.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from rkdist.core import RkProfile, _class_structure, _require_admissible


def sorting_document(
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

    lines = ["rkp 1"]
    lines.extend(f"vertex {v}" for v in sorted(v for ms in members for v in ms))
    for i in class_order:
        ms = members[i]
        if len(ms) > 1:
            lines.extend(f"le {ms[j]} {ms[(j + 1) % len(ms)]}" for j in range(len(ms)))
    lines.extend(sorted(f"le {members[a][0]} {members[b][0]}" for a, b in cover_pairs))
    lines.extend(f"il {members[i][0]} {limit_counts[i]}" for i in class_order)
    # LF line endings and a trailing newline, always.
    return ("\n".join(lines) + "\n").encode("utf-8")


def full_refine(cells: list[list[int]], down: list[int], up: list[int]) -> list[list[int]]:
    """Equitable refinement: split cells by how many members of each cell lie below/above."""
    cells = [list(c) for c in cells]
    while True:
        masks = []
        for c in cells:
            m = 0
            for e in c:
                m |= 1 << e
            masks.append(m)
        new_cells: list[list[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups: dict[tuple[tuple[int, int], ...], list[int]] = {}
            for e in c:
                sig = tuple(
                    ((down[e] & m).bit_count(), (up[e] & m).bit_count()) for m in masks
                )
                groups.setdefault(sig, []).append(e)
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def initial_cells(
    sizes: list[int], ils: list[int], down: list[int], up: list[int]
) -> list[list[int]]:
    """Classes grouped by (size, il, |down|, |up|), groups in key order."""
    initial: dict[tuple[int, int, int, int], list[int]] = {}
    for e in range(len(sizes)):
        key = (sizes[e], ils[e], down[e].bit_count(), up[e].bit_count())
        initial.setdefault(key, []).append(e)
    return [initial[key] for key in sorted(initial)]


def discrete_orders(
    sizes: list[int], ils: list[int], down: list[int], up: list[int]
) -> Iterator[list[int]]:
    """All class orderings reachable by individualization-refinement."""

    def search(cells: list[list[int]]) -> Iterator[list[int]]:
        cells = full_refine(cells, down, up)
        for ci, c in enumerate(cells):
            if len(c) > 1:
                for e in sorted(c):
                    rest = [x for x in c if x != e]
                    yield from search(cells[:ci] + [[e], rest] + cells[ci + 1 :])
                return
        yield [c[0] for c in cells]

    yield from search(initial_cells(sizes, ils, down, up))


def position_document(
    sizes: Sequence[int], ils: Sequence[int], cover_pairs: Sequence[tuple[int, int]]
) -> bytes:
    """The document of classes named by position, n{p} or n{p}_{j} for its members,
    numbers padded to at least two digits; cover pairs between positions in any order."""
    cw = max(2, len(str(len(sizes) - 1)))
    mw = max(2, len(str(max(sizes) - 1)))
    members = []
    for p, size in enumerate(sizes):
        if size == 1:
            members.append([f"n{p:0{cw}d}"])
        else:
            members.append([f"n{p:0{cw}d}_{j:0{mw}d}" for j in range(size)])
    return sorting_document(members, ils, cover_pairs)


def oracle_canonical_text(profile: RkProfile) -> bytes:
    """Minimum serialized document over every leaf of the unpruned search."""
    _require_admissible(profile)
    sizes, ils, down, up, covers = _class_structure(profile)
    texts = []
    for order in discrete_orders(sizes, ils, down, up):
        pos = {orig: p for p, orig in enumerate(order)}
        texts.append(
            position_document(
                [sizes[orig] for orig in order],
                [ils[orig] for orig in order],
                [(pos[a], pos[b]) for a, b in covers],
            )
        )
    return min(texts)
