"""Enumeration, up to isomorphism, of all admissible profiles with a given total.

"Admissible" means V1-V5; no claim of realizability by an actual theory is
made.  Generation walks vertex budgets, class-size compositions, bounded
naturally-labeled strict orders on the classes (least and greatest pruned
during generation), and limit-count assignments; duplicates collapse through
the canonical form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    CanonicalProfile,
    ProfileError,
    RkProfile,
    _bits,
    canonical_form,
    make_profile,
)

__all__ = ["DEFAULT_TOTAL_CAP", "EnumerationResult", "InvalidTotal", "enumerate_profiles"]

DEFAULT_TOTAL_CAP = 12


class InvalidTotal(ProfileError):
    """The requested total is below 2 or above the configured cap."""


@dataclass(frozen=True)
class EnumerationResult:
    """Pairwise non-isomorphic admissible profiles, sorted by canonical text."""

    total: int
    profiles: tuple[CanonicalProfile, ...]


@functools.lru_cache(maxsize=None)
def _bounded_orders(k: int) -> tuple[tuple[int, ...], ...]:
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


def _compositions_positive(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions_positive(n - first, k - 1):
            yield (first, *rest)


def _compositions_nonneg(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, slots - 1):
            yield (first, *rest)


def _build(sizes: tuple[int, ...], below: tuple[int, ...], ils: list[int]) -> RkProfile:
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


def enumerate_profiles(
    total: int,
    max_vertices: int | None = None,
    cap: int = DEFAULT_TOTAL_CAP,
) -> EnumerationResult:
    """All admissible profiles with the given total countable-model count."""
    if not isinstance(total, int) or isinstance(total, bool) or total < 2:
        raise InvalidTotal(f"total must be an integer >= 2, got {total!r}")
    if total > cap:
        raise InvalidTotal(f"total {total} exceeds the cap {cap}; raise cap= to override")
    nmax = total if max_vertices is None else min(total, max_vertices)
    found: dict[bytes, CanonicalProfile] = {}
    for n in range(1, nmax + 1):
        budget = total - n
        for k in range(1, n + 1):
            if k == 1:
                # single class: V2 forces a lone vertex with limit count 0, total 1
                continue
            for sizes in _compositions_positive(n, k):
                if sizes[0] != 1:
                    continue
                floors = [0] + [1 if s > 1 else 0 for s in sizes[1:]]
                floors[k - 1] = max(floors[k - 1], 1)
                spare = budget - sum(floors)
                if spare < 0:
                    continue
                for below in _bounded_orders(k):
                    for extra in _compositions_nonneg(spare, k - 1):
                        ils = [0] + [floors[i + 1] + extra[i] for i in range(k - 1)]
                        # Admissible by construction; canonical_form raises if one is not.
                        profile = _build(sizes, below, ils)
                        cf = canonical_form(profile)
                        found[cf.canonical_text] = cf
    return EnumerationResult(total, tuple(found[t] for t in sorted(found)))
