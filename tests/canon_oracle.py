"""Unpruned canonical form, the differential oracle for ``core.canonical_form``.

Walks every leaf of the individualization-refinement tree (same initial
cells, same refinement, same target cell as the library) and returns the
least serialized document over all of them.  It visits one leaf per
automorphism of the quotient, so keep its inputs small.  Its refinement is
its own: every pass recomputes every element's counts against every cell.
"""

from __future__ import annotations

from typing import Iterator

from rkdist import _format
from rkdist.core import RkProfile, _class_structure, _require_admissible


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


def oracle_canonical_text(profile: RkProfile) -> bytes:
    """Minimum serialized document over every leaf of the unpruned search."""
    _require_admissible(profile)
    sizes, ils, down, up, covers = _class_structure(profile)
    k = len(sizes)
    cw = max(2, len(str(k - 1)))
    mw = max(2, len(str(max(sizes) - 1)))
    texts = []
    for order in discrete_orders(sizes, ils, down, up):
        pos = {orig: p for p, orig in enumerate(order)}
        members = []
        for p, orig in enumerate(order):
            if sizes[orig] == 1:
                members.append([f"n{p:0{cw}d}"])
            else:
                members.append([f"n{p:0{cw}d}_{j:0{mw}d}" for j in range(sizes[orig])])
        texts.append(
            _format.document(
                members,
                [ils[orig] for orig in order],
                [(pos[a], pos[b]) for a, b in covers],
            )
        )
    return min(texts)
