"""Enumeration, up to isomorphism, of all admissible profiles with a given total.

"Admissible" means V1-V5; no claim of realizability by an actual theory is
made.  Generation works on integers from start to finish.  The quotient
posets are the bounded posets on k classes, each generated once up to
isomorphism by adding one element at a time (Brinkmann and McKay, "Posets on
up to 16 points", 2002).  On every such poset, each composition of the
vertex budget into class sizes (the least class a singleton) and each
limit-count vector is a candidate, given as class masks; its V1-V5 conditions
are checked on the masks.  Isomorphic candidates have the same set of leaf
certificates in the canonical search and equal certificates mean isomorphic
profiles, so candidates collapse on their least certificate.  Canonical
documents are built only for the survivors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    CanonicalProfile,
    InvalidProfile,
    ProfileError,
    _bits,
    _Certificate,
    _failed_conditions,
    _leaf_certificates,
    _least_document,
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


def _shape(down: tuple[int, ...]) -> tuple[tuple[int, ...], list[int], list[tuple[int, int]]]:
    """A poset's strictly-below masks, strictly-above masks and sorted cover pairs.

    (a, b) is a cover when a is strictly below b and below nothing below b.
    """
    up = [0] * len(down)
    for b, d in enumerate(down):
        for a in _bits(d):
            up[a] |= 1 << b
    return down, up, sorted((a, b) for b, d in enumerate(down) for a in _bits(d) if not d & up[a])


@functools.lru_cache(maxsize=None)
def _bounded_posets(k: int) -> tuple[tuple[int, ...], ...]:
    """Bounded posets on 0..k-1 up to isomorphism, as tuples of strictly-below masks.

    Element 0 is least, element k-1 greatest, and the identity is a linear
    extension.  For k >= 3 each poset on k - 1 elements gets a new element
    just below the top, whose down-set is any down-closed set containing the
    bottom.  Every bounded poset arises so, since removing a maximal element
    below the top leaves a bounded poset.  Isomorphic results collapse on
    their least leaf certificate with uniform sizes and limit counts.
    """
    if k <= 2:
        return ((0,),) if k == 1 else ((0, 1),)
    top = (1 << (k - 1)) - 1
    found: dict[_Certificate, tuple[int, ...]] = {}
    for smaller in _bounded_posets(k - 1):
        inner = smaller[:-1]
        for sub in range(1 << (k - 3)):
            d = sub << 1 | 1
            if all(not inner[i] & ~d for i in _bits(d)):
                down = (*inner, d, top)
                certificates = list(_leaf_certificates([1] * k, [0] * k, *_shape(down)))
                found.setdefault(min(certificates), down)
    return tuple(found.values())


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


def enumerate_profiles(total: int, max_vertices: int | None = None) -> EnumerationResult:
    """All admissible profiles with the given total countable-model count."""
    if not isinstance(total, int) or isinstance(total, bool) or total < 2:
        raise InvalidTotal(f"total must be an integer >= 2, got {total!r}")
    if total > DEFAULT_TOTAL_CAP:
        raise InvalidTotal(f"total {total} exceeds the cap {DEFAULT_TOTAL_CAP}")
    nmax = total if max_vertices is None else min(total, max_vertices)
    # least certificate -> canonical document of the first candidate with it
    found: dict[_Certificate, bytes] = {}
    # A single class would be a lone vertex with limit count 0 (V2), total 1.
    for n in range(2, nmax + 1):
        budget = total - n
        for k in range(2, n + 1):
            shapes = None
            # The least class is a singleton; the n - k spare vertices go to the others.
            for rest in _compositions_nonneg(n - k, k - 1):
                sizes = (1, *(r + 1 for r in rest))
                floors = [0] + [1 if s > 1 else 0 for s in sizes[1:]]
                floors[k - 1] = max(floors[k - 1], 1)
                spare = budget - sum(floors)
                if spare < 0:
                    continue
                if shapes is None:
                    shapes = [_shape(down) for down in _bounded_posets(k)]
                for down, up, covers in shapes:
                    for extra in _compositions_nonneg(spare, k - 1):
                        ils = (0, *(f + e for f, e in zip(floors[1:], extra)))
                        # Admissible by construction; raise if a candidate is not.
                        failed = _failed_conditions(sizes, ils, down, up)
                        if failed:
                            raise InvalidProfile("profile fails " + ", ".join(failed))
                        certificates = list(_leaf_certificates(sizes, ils, down, up, covers))
                        key = min(certificates)
                        if key not in found:
                            found[key] = _least_document(certificates)
    return EnumerationResult(total, tuple(CanonicalProfile(d) for d in sorted(found.values())))
