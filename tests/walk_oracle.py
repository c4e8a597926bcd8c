"""Rescanning and all-pairs walks over a quotient, the differential oracle for
the library's walks over its Hasse covers.

``linear_extension`` rescans the classes from the first for every class it
places; ``render_ascii`` takes each class's depth over every class below it;
``monotonicity`` tests every strictly comparable pair of classes.  None of
them reads the cover masks.
"""

from __future__ import annotations

from rkdist.core import (
    ClassSummary,
    QuotientPoset,
    RkProfile,
    _bits,
    _require_admissible,
    quotient,
)


def linear_extension(q: QuotientPoset) -> list[int]:
    """Class positions bottom up, each time the lowest-positioned class that is ready."""
    order: list[int] = []
    done = 0
    while len(order) < len(q.down):
        i = next(i for i, d in enumerate(q.down) if not (done >> i & 1 or d & ~done))
        order.append(i)
        done |= 1 << i
    return order


def render_ascii(profile: RkProfile) -> bytes:
    """Leveled drawing by longest-chain depth from the least class, bottom line last."""
    _require_admissible(profile)
    q = quotient(profile)
    depth = [0] * len(q.classes)
    for i in linear_extension(q):
        depth[i] = max((depth[j] + 1 for j in _bits(q.down[i])), default=0)
    levels: dict[int, list[ClassSummary]] = {}
    for c, d in zip(q.classes, depth):
        levels.setdefault(d, []).append(c)
    lines = [
        " ".join(f"{c.representative}({c.size},{c.limit_count})" for c in levels[d])
        for d in sorted(levels, reverse=True)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def monotonicity(profile: RkProfile) -> tuple[str, str]:
    """(size flag, limit flag), each "strict", "weak" or "none", over every comparable pair."""
    _require_admissible(profile)
    q = quotient(profile)
    size_strict = size_weak = limit_strict = limit_weak = True
    for cb, d in zip(q.classes, q.down):
        for a in _bits(d):
            ca = q.classes[a]
            size_strict = size_strict and ca.size < cb.size
            size_weak = size_weak and ca.size <= cb.size
            limit_strict = limit_strict and ca.limit_count < cb.limit_count
            limit_weak = limit_weak and ca.limit_count <= cb.limit_count

    def flag(strict: bool, weak: bool) -> str:
        return "strict" if strict else "weak" if weak else "none"

    return flag(size_strict, size_weak), flag(limit_strict, limit_weak)
