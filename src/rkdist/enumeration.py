"""Enumeration, up to isomorphism, of all admissible profiles with a given total.

"Admissible" means V1-V5; no claim of realizability by an actual theory is
made.  Generation works on integers from start to finish.  The quotient
posets are the bounded posets on k classes, each generated once up to
isomorphism, with generators of its automorphism group, by canonical
augmentation (Brinkmann and McKay, "Posets on up to 16 points", 2002).  On
every such poset, each composition of the vertex budget into class sizes
(the least class a singleton) and each limit-count vector is a labelling.
Profiles on non-isomorphic posets are never isomorphic, and two labellings
of one poset give isomorphic profiles exactly when an automorphism of the
poset maps one onto the other.  So the candidates are the labellings least
in their orbits, one per profile.  Each is written once, as the document
of its least leaf certificate.

A uniform candidate, one vertex per class and a limit count on the top
alone, takes the poset's own least leaf order, which canonical
augmentation found while it built the poset, with no refinement and no
walk.  The top is the only class with k - 1 classes below it, so the
candidate's initial cells, and their order, are the poset's own, and every
generator fixes the top and so seeds the walk.  A leaf certificate is the
relabelled cover list alone, with no labels, so the candidate's
certificates are the poset's; and the top, alone in the last root cell, is
last in every leaf order, so the labels in leaf order are the candidate's own.

A candidate whose refined root is not discrete needs a walk of its search
tree for that certificate.  The walk starts with the poset's generators
under which the labelling is invariant: they are automorphisms of the
labelled profile, so it skips their images from the start instead of
finding them leaf by leaf.

The loop runs over the class count, then the poset, then the vertex count,
and each poset finds the least leaf once per ordered initial cells, shared
by all its candidates, whatever their vertex count.  That changes no byte.
The walk reads no labels, only the poset's masks and covers, the root and
the seed.  Equal ordered initial cells refine to the same root.  The seed
is the same too: an automorphism keeps |down| and |up|, so it keeps the
labels exactly when it maps each initial cell onto itself.  So the leaf
order and certificate are the same, and only the sizes and limit counts
read in that order differ.  A document is a head, which depends only on
the class sizes in leaf order, and a tail, the cover and il lines; each
call writes the head of each size vector once.

The loop does per candidate only the work that needs both the poset and the
labels.  Every poset numbers its least class 0 and its greatest k - 1, so
V1-V5 read the labels alone.  Per class count the loop checks them on each
labelling of each vertex count and builds the uniform labelling, whose head
and il lines are written once.  Per poset two mask comparisons check that
numbering, and, unless the one candidate is uniform, it counts the |down|
and |up| that key the initial cells.  Per candidate it takes the orbit
images, groups the initial cells, and reads its labels in leaf order through
a getter kept with each least leaf.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, TypeVar

from .core import (
    CanonicalProfile,
    InvalidProfile,
    ProfileError,
    _Certificate,
    _Heads,
    _bits,
    _certificate,
    _document,
    _extremes,
    _failed_conditions,
    _initial_cells,
    _keeping_labels,
    _leaf_certificates,
    _least_leaf,
    _orbit,
    _root_cells,
)

__all__ = ["DEFAULT_TOTAL_CAP", "EnumerationResult", "InvalidTotal", "enumerate_profiles"]

DEFAULT_TOTAL_CAP = 12


class InvalidTotal(ProfileError):
    """The requested total is below 2 or above the configured cap, or the vertex cap is
    neither None nor a nonnegative integer."""


@dataclass(frozen=True)
class EnumerationResult:
    """Pairwise non-isomorphic admissible profiles, sorted by canonical text."""

    total: int
    profiles: tuple[CanonicalProfile, ...]


# Class sizes and limit counts, by class.
_Labelling = tuple[tuple[int, ...], tuple[int, ...]]
_Item = TypeVar("_Item")


class _Poset(NamedTuple):
    """A bounded poset on 0..k-1: element 0 is least, k-1 greatest, and the identity is a
    linear extension.  Its strictly-below and strictly-above masks, its cover pairs, the
    mask of the elements that the top covers, generators of its automorphism group as
    element maps, and ``order``, the leaf order of its least leaf certificate with every
    element unlabelled."""

    down: tuple[int, ...]
    up: list[int]
    covers: list[tuple[int, int]]
    maximal: int
    generators: list[list[int]]
    order: tuple[int, ...]


def _one_per_orbit(
    items: list[_Item], generators: list[list[int]], image: Callable[[_Item, list[int]], _Item]
) -> list[_Item]:
    """The first item, in the given order, of each orbit of the group the generators span.

    The group acts by ``image``, and the items must be closed under it.
    """
    if len(items) < 2 or not generators:
        return items
    kept = []
    done: set[_Item] = set()
    for item in items:
        if item in done:
            continue
        kept.append(item)
        done.add(item)
        frontier = [item]
        while frontier:
            y = frontier.pop()
            for g in generators:
                z = image(y, g)
                if z not in done:
                    done.add(z)
                    frontier.append(z)
    return kept


def _ideal_image(ideal: int, g: list[int]) -> int:
    return sum(1 << g[i] for i in _bits(ideal))


def _labelling_image(labelling: _Labelling, g: list[int]) -> _Labelling:
    # The labellings have k >= 2 classes, so the getter returns tuples.
    get = itemgetter(*g)
    return get(labelling[0]), get(labelling[1])


@functools.lru_cache(maxsize=None)
def _bounded_posets(k: int) -> tuple[_Poset, ...]:
    """Bounded posets on k elements, one per isomorphism class.

    For k >= 3 each poset on k - 1 elements gets a new element x just below
    the top, whose down-set is an ideal of the other elements that holds the
    bottom.  Every bounded poset arises so, since removing an element that
    the top covers leaves a bounded poset.  Canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", 1998) makes each one arise once:
    - the parent tries one ideal per orbit of its automorphism group;
    - the child is kept only if x shares an orbit with its canonical
      element.  Of the elements that the top covers, that is one with the
      largest down-set; of those, one in the last refined root cell that
      holds one; and of that cell, the one first in the leaf order of the
      least leaf certificate.
    An isomorphism between two kept children can then be chosen to map x
    to x, and it restricts to an automorphism of their one parent that maps
    one ideal onto the other.  A search runs only where the root is not
    discrete, which means the poset is not rigid, and its generators and
    least leaf order are kept.  Each child takes its up-sets, covers and
    top-covered elements from its parent.
    """
    if k == 1:
        return (_Poset((0,), [0], [], 0, [], (0,)),)
    if k == 2:
        return (_Poset((0, 1), [2, 0], [(0, 1)], 1, [], (0, 1)),)
    x, top = k - 2, k - 1
    x_bit, top_bit = 1 << x, 1 << top
    posets = []
    for parent in _bounded_posets(k - 1):
        inner = parent.down[:-1]
        ideals = [1]
        for i in range(1, x):
            ideals += [d | 1 << i for d in ideals if not inner[i] & ~d]
        for d in _one_per_orbit(ideals, parent.generators, _ideal_image):
            size = d.bit_count()
            kept_maximal = parent.maximal & ~d
            if any(inner[i].bit_count() > size for i in _bits(kept_maximal)):
                continue
            down = (*inner, d, top_bit - 1)
            # Below x the parent's top bit now means x; outside x's down-set it moves up.
            up = [u if d >> i & 1 else u ^ x_bit for i, u in enumerate(parent.up[:-1])]
            up = [u | top_bit for u in up] + [top_bit, 0]
            keys = [(d.bit_count(), u.bit_count()) for d, u in zip(down, up)]
            cells = _root_cells(keys, down, up)
            maximal = kept_maximal | x_bit
            # The cells split the initial ones, keyed by (|down|, |up|), so each is all
            # rivals or none.
            rivals = sum(1 << i for i in _bits(maximal) if down[i].bit_count() == size)
            cell = next(c for c in reversed(cells) if rivals & c)
            if not cell >> x & 1:
                continue
            covers = [c for c in parent.covers if c[1] != x]
            covers += [(i, x) for i in _bits(d) if not up[i] & d]
            covers += [(i, top) for i in _bits(maximal)]
            generators: list[list[int]] = []
            order = [c.bit_length() - 1 for c in cells]
            if len(cells) < k:
                search = _leaf_certificates(down, up, covers, cells)
                for _ in search:
                    pass
                order = search.least_order()
                if cell & (cell - 1):
                    first = min(_bits(cell), key=order.index)
                    if not _orbit(1 << first, search.generators) >> x & 1:
                        continue
                generators = search.generators
            posets.append(_Poset(down, up, covers, maximal, generators, tuple(order)))
    return tuple(posets)


def _compositions_nonneg(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """The tuples of slots >= 1 nonnegative integers that sum to total, in lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, slots - 1):
            yield (first, *rest)


def _labellings(n: int, k: int, budget: int) -> Iterator[_Labelling]:
    """Class sizes and limit counts for n vertices in k classes and budget limit models,
    in increasing order: the least class is a singleton with count 0, and every larger
    class and the greatest one have a count of at least 1."""
    # The least class is a singleton; the n - k spare vertices go to the others.
    for rest in _compositions_nonneg(n - k, k - 1):
        sizes = (1, *(r + 1 for r in rest))
        floors = [0] + [1 if s > 1 else 0 for s in sizes[1:]]
        floors[k - 1] = max(floors[k - 1], 1)
        spare = budget - sum(floors)
        if spare < 0:
            continue
        for extra in _compositions_nonneg(spare, k - 1):
            yield sizes, (0, *(f + e for f, e in zip(floors[1:], extra)))


def enumerate_profiles(total: int, max_vertices: int | None = None) -> EnumerationResult:
    """All admissible profiles with the given total countable-model count."""
    if not isinstance(total, int) or isinstance(total, bool) or total < 2:
        raise InvalidTotal(f"total must be an integer >= 2, got {total!r}")
    if total > DEFAULT_TOTAL_CAP:
        raise InvalidTotal(f"total {total} exceeds the cap {DEFAULT_TOTAL_CAP}")
    if max_vertices is not None and (
        not isinstance(max_vertices, int) or isinstance(max_vertices, bool) or max_vertices < 0
    ):
        raise InvalidTotal(f"max_vertices must be None or an integer >= 0, got {max_vertices!r}")
    nmax = total if max_vertices is None else min(total, max_vertices)
    documents = []
    heads: _Heads = {}
    # A single class would be a lone vertex with limit count 0 (V2), total 1.
    for k in range(2, nmax + 1):
        per_n = [(n, ls) for n in range(k, nmax + 1) if (ls := list(_labellings(n, k, total - n)))]
        if not per_n:
            continue
        # Raise on a labelling that fails V1-V5 with least class 0 and greatest k - 1.
        checks = (_failed_conditions(*ls, 0, k - 1) for _, lss in per_n for ls in lss)
        if failed := next(filter(None, checks), None):
            raise InvalidProfile("profile fails " + ", ".join(failed))
        uniform = (1,) * k, (0,) * (k - 1) + (total - k,)
        keyed = per_n != [(k, [uniform])]  # k = total - 1 has the uniform candidate alone
        full = (1 << k) - 1
        for poset in _bounded_posets(k):
            down, up, covers, generators = poset.down, poset.up, poset.covers, poset.generators
            if up[0] != full ^ 1 or down[-1] != full >> 1:  # not bounded by 0 and k - 1
                bad = ", ".join(c for c, e in zip(("V1", "V3"), _extremes(down, up)) if e is None)
                raise InvalidProfile(f"profile fails {bad or 'the numbering 0..k-1'}")
            if keyed:
                below, above = list(map(int.bit_count, down)), list(map(int.bit_count, up))
            # Ordered initial cells -> a getter of labels in the least leaf's order, and
            # its certificate.
            leaves: dict[tuple[int, ...], tuple[itemgetter, _Certificate]] = {}
            for n, labellings in per_n:
                for labelling in _one_per_orbit(labellings, generators, _labelling_image):
                    sizes, ils = labelling
                    # A uniform candidate's search tree is the poset's own.
                    if labelling == uniform:
                        leaf = sizes, ils, _certificate(poset.order, covers)
                        documents.append(_document(leaf, heads, shared_labels=True))
                        continue
                    initial = _initial_cells(zip(sizes, ils, below, above))
                    found = leaves.get(initial)
                    if found is None:
                        seed = _keeping_labels(generators, sizes, ils)
                        order, cert = _least_leaf(initial, down, up, covers, seed)
                        found = leaves[initial] = itemgetter(*order), cert
                    in_order, cert = found
                    documents.append(_document((in_order(sizes), in_order(ils), cert), heads))
    return EnumerationResult(total, tuple(map(CanonicalProfile, sorted(set(documents)))))
