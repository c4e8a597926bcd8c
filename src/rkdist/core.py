"""Profiles of countable-model distributions over finite Rudin-Keisler preorders.

A profile is a finite preorder of prime-model isomorphism types together with
a limit-model count attached to every domination-equivalence class.  This
module defines the value types, the quotient poset, the admissibility
conditions V1-V5 (plus the informational V6), the decomposition counts
(total = prime + limit), and a canonical form used for isomorphism testing.

Everything is an immutable value and every operation is a pure function, so
the whole module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import _format

__all__ = [
    "CanonicalProfile",
    "ClassSummary",
    "ConditionReport",
    "DecompositionReport",
    "InvalidProfile",
    "MAX_VERTICES",
    "Preorder",
    "ProfileError",
    "QuotientPoset",
    "RkProfile",
    "TooManyVertices",
    "UnknownVertex",
    "ValidationReport",
    "canonical_form",
    "close_preorder",
    "counts",
    "is_isomorphic",
    "make_profile",
    "mutual_classes",
    "quotient",
    "validate_profile",
]

# One character of a vertex name; "*" appears only in names generated by
# products of profiles.
NAME_CHAR = "[A-Za-z0-9_*]"
NAME_RE = re.compile(NAME_CHAR + r"+\Z")

# The most vertices a parsed document or a product may have; memory grows with
# the square of the vertex count, and README gives the measured cost at the limit.
MAX_VERTICES = 20_000


class ProfileError(Exception):
    """Base class for errors raised by this package."""


class UnknownVertex(ProfileError):
    """A relation pair or label references an undeclared vertex."""


class InvalidProfile(ProfileError):
    """An operation required admissibility (V1-V5) and the profile fails it."""


class TooManyVertices(ProfileError):
    """A document or a product would have more than MAX_VERTICES vertices."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _successor_lists(
    vertices: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], list[list[int]]]:
    """Sort the distinct vertices and list, per vertex, the vertices that the pairs put above it."""
    # Checked before sorting or hashing, which would raise TypeError on names of
    # mixed or unhashable types; the least bad name by str is named, whatever
    # the order of the vertices.
    vertices = list(vertices)
    bad = [v for v in vertices if not isinstance(v, str) or not NAME_RE.match(v)]
    if bad:
        raise ValueError(f"bad vertex name {min(bad, key=str)!r}")
    names = sorted(set(vertices))
    index = {v: i for i, v in enumerate(names)}
    succ: list[list[int]] = [[] for _ in names]
    for pair in pairs:
        try:
            a, b = pair
            ia = index.get(a)
            ib = index.get(b)
        except (TypeError, ValueError):  # not two items, or an unhashable one
            raise ValueError(f"bad pair {pair!r}, expected two vertex names") from None
        if ia is None or ib is None:
            missing = a if ia is None else b
            raise UnknownVertex(f"relation references undeclared vertex {missing!r}")
        succ[ia].append(ib)
    return tuple(names), succ


class _ClassIndex(NamedTuple):
    """Domination classes by least member: each one's member mask, the masks
    of the classes strictly below and above it and of the classes that cover
    it; and the class position of every vertex."""

    masks: tuple[int, ...]
    position: tuple[int, ...]
    down: tuple[int, ...]
    up: tuple[int, ...]
    covers: tuple[int, ...]


def _class_index(
    comp: Sequence[int], successors: Sequence[Sequence[int]], sinks_first: Sequence[int]
) -> tuple[_ClassIndex, list[int]]:
    """The class index of a DAG of vertex classes, and each new class position's old id.

    Vertex v is in class comp[v]; successors[c] lists the classes above
    class c, maybe repeated or not covering it, but with every class that
    covers it; sinks_first lists every class after all the classes above
    it; all by old id, in any numbering.  Positions go by least member.  The
    closure is taken over the DAG, as in Nuutila's algorithm: up-sets sinks
    first, down-sets sources first, with one OR per successor class rather
    than one step per comparable pair.  A class's covers are its successor
    classes that lie above none of the others.  Nothing else depends on the
    old numbering or on the order of the lists.
    """
    k = len(successors)
    pos = [-1] * k
    old: list[int] = []
    masks: list[int] = []
    position = []
    for v, c in enumerate(comp):  # a class is first met at its least member
        q = pos[c]
        if q < 0:
            q = pos[c] = len(old)
            old.append(c)
            masks.append(0)
        masks[q] |= 1 << v
        position.append(q)
    up = [0] * k  # strictly above
    covers = [0] * k
    for c in sinks_first:  # successor classes are done
        direct = above = 0
        for d in successors[c]:
            q = pos[d]
            direct |= 1 << q
            above |= up[q]
        q = pos[c]
        # not direct & ~above, whose complement is as long as the up-set, per class
        up[q], covers[q] = direct | above, direct ^ (direct & above)
    down = [0] * k  # strictly below
    for c in reversed(sinks_first):  # predecessor classes are done
        q = pos[c]
        d_c = down[q] | 1 << q
        for d in successors[c]:
            down[pos[d]] |= d_c
    index = _ClassIndex(tuple(masks), tuple(position), tuple(down), tuple(up), tuple(covers))
    return index, old


def _closure_index(succ: Sequence[Sequence[int]]) -> _ClassIndex:
    """Class index of the reflexive-transitive closure of the successor lists.

    The classes are the strongly connected components, which Tarjan's walk
    emits sinks first; it keeps an explicit stack, so no input is too deep
    for it.  The walk only numbers the classes; one pass over the edges then
    lists, per class, the other classes that its members point to.  Every
    cover is an edge of the condensed graph (Aho, Garey and Ullman, 1972), so
    that list holds every cover.
    """
    n = len(succ)
    number = [0] * n  # DFS number from 1; 0 while unvisited
    low = [0] * n
    comp = [-1] * n  # emission index of the vertex's class once it is found
    pending = [iter(s) for s in succ]  # per vertex, the successors not yet looked at
    stack: list[int] = []
    classes = counter = 0
    for root in range(n):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            for w in pending[v]:
                if not number[w]:  # enter w; v resumes at its next successor
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append(w)
                    path.append(w)
                    break
                if comp[w] < 0 and number[w] < low[v]:  # on the stack, so in v's class
                    low[v] = number[w]
            else:  # v is finished
                path.pop()
                if low[v] == number[v]:
                    while True:
                        x = stack.pop()
                        comp[x] = classes
                        if x == v:
                            break
                    classes += 1
                elif low[v] < low[path[-1]]:  # a DFS root closes a class, so v has a parent
                    low[path[-1]] = low[v]
    successors: list[list[int]] = [[] for _ in range(classes)]  # maybe repeated
    for v, ws in enumerate(succ):
        c = comp[v]
        for w in ws:
            d = comp[w]
            if d != c:
                successors[c].append(d)
    return _class_index(comp, successors, range(classes))[0]


def _vertex_masks(index: _ClassIndex) -> tuple[int, ...]:
    """Per vertex, the mask of the vertices that dominate it, read off the class index.

    A class's reach is its member mask OR the reach of each class covering
    it.  A class's strict up-set is larger than that of any class covering
    it, so in increasing order of up-set size the covers' reach is done first.
    """
    reach = list(index.masks)
    for q in sorted(range(len(reach)), key=lambda q: index.up[q].bit_count()):
        r = reach[q]
        for c in _bits(index.covers[q]):
            r |= reach[c]
        reach[q] = r
    return tuple(reach[q] for q in index.position)


@dataclass(frozen=True, init=False)
class Preorder:
    """A finite reflexive transitive relation; ``(a, b) in leq`` reads "a is dominated by b".

    Stored as the sorted vertex names and the class index, ``_classes``;
    equality and hashing use both.  ``succ``, per name the bitmask of the
    names that dominate it, ``vertices`` and ``leq`` are derived from them on
    demand.
    """

    names: tuple[str, ...]
    _classes: _ClassIndex = field(repr=False)

    def __init__(self, vertices: Iterable[str], leq: Iterable[tuple[str, str]]) -> None:
        names, succ = _successor_lists(vertices, leq)
        masks = tuple(sum(1 << j for j in set(s)) for s in succ)
        for i, v in enumerate(names):
            if not masks[i] >> i & 1:
                raise ValueError(f"preorder is not reflexive at {v!r}")
        index = _closure_index(succ)
        if _vertex_masks(index) != masks:
            raise ValueError("preorder is not transitively closed")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_classes", index)

    @property
    def succ(self) -> tuple[int, ...]:
        return _vertex_masks(self._classes)

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def leq(self) -> frozenset[tuple[str, str]]:
        names = self.names
        return frozenset((v, names[j]) for v, s in zip(names, self.succ) for j in _bits(s))

    def holds(self, a: str, b: str) -> bool:
        return (a, b) in self.leq


def _closed_preorder(names: Sequence[str], index: _ClassIndex) -> Preorder:
    """The Preorder whose sorted names and class index these are."""
    order = object.__new__(Preorder)
    object.__setattr__(order, "names", tuple(names))
    object.__setattr__(order, "_classes", index)
    return order


def close_preorder(
    vertices: Iterable[str], generating_pairs: Iterable[tuple[str, str]]
) -> Preorder:
    """Least reflexive-transitive relation on the vertices containing the pairs."""
    names, succ = _successor_lists(vertices, generating_pairs)
    return _closed_preorder(names, _closure_index(succ))


def mutual_classes(order: Preorder) -> tuple[frozenset[str], ...]:
    """Domination-equivalence classes (a ~ b iff a leq b and b leq a), sorted by least member."""
    names = order.names
    return tuple(frozenset(names[j] for j in _bits(m)) for m in order._classes.masks)


@dataclass(frozen=True, init=False)
class RkProfile:
    """A preorder of isomorphism types plus the limit count of every domination class.

    The public constructor takes ``il`` keyed by the class member sets;
    :func:`make_profile` and the ``io`` parser offer friendlier construction
    paths.  The counts are stored by class position, in the order of the
    classes' least members; ``il`` is derived from them on demand.
    """

    order: Preorder
    limit_counts: tuple[int, ...]

    def __init__(self, order: Preorder, il: Mapping[frozenset[str], int]) -> None:
        il = {frozenset(k): v for k, v in dict(il).items()}
        position = {c: p for p, c in enumerate(mutual_classes(order))}
        if set(il) != set(position):
            raise ValueError("limit counts must cover every domination class exactly once")
        counts = _checked_counts(order, [position[c] for c in il], il.values())
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "limit_counts", counts)

    @property
    def il(self) -> dict[frozenset[str], int]:
        """Limit count by class member set."""
        return dict(zip(mutual_classes(self.order), self.limit_counts))

    @cached_property
    def _quotient(self) -> QuotientPoset:
        index = self.order._classes
        names = self.order.names
        summaries = tuple(
            ClassSummary(names[_least(m)], m.bit_count(), count)
            for m, count in zip(index.masks, self.limit_counts)
        )
        return QuotientPoset(summaries, index.down, index.up, index.covers)

    def il_of(self, vertex: str) -> int:
        try:
            i = self.order.names.index(vertex)
        except ValueError:
            raise UnknownVertex(f"no such vertex {vertex!r}") from None
        return self.limit_counts[self.order._classes.position[i]]


def _profile(order: Preorder, limit_counts: tuple[int, ...]) -> RkProfile:
    """The RkProfile with these counts by class position, already checked."""
    profile = object.__new__(RkProfile)
    object.__setattr__(profile, "order", order)
    object.__setattr__(profile, "limit_counts", limit_counts)
    return profile


def _checked_counts(
    order: Preorder, positions: Sequence[int], values: Iterable[object]
) -> tuple[int, ...]:
    """Counts by class position from one count per position; each must be a nonnegative integer."""
    counts = [0] * len(order._classes.masks)
    for p, v in zip(positions, values):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            rep = order.names[_least(order._classes.masks[p])]
            raise ValueError(f"limit count for class of {rep!r} must be a nonnegative integer")
        counts[p] = v
    return tuple(counts)


def make_profile(
    vertices: Iterable[str],
    generating_pairs: Iterable[tuple[str, str]],
    il_by_vertex: Mapping[str, int],
) -> RkProfile:
    """Close the relation and attach limit counts, each class named exactly once."""
    order = close_preorder(vertices, generating_pairs)
    class_of = dict(zip(order.names, order._classes.position))
    labelled = [False] * len(order._classes.masks)
    positions = []
    for v in il_by_vertex:
        p = class_of.get(v)
        if p is None:
            raise UnknownVertex(f"limit count references undeclared vertex {v!r}")
        if labelled[p]:
            raise ValueError(f"class of {v!r} was given two limit counts")
        labelled[p] = True
        positions.append(p)
    if False in labelled:
        missing = order.names[_least(order._classes.masks[labelled.index(False)])]
        raise ValueError(f"class of {missing!r} has no limit count")
    return _profile(order, _checked_counts(order, positions, il_by_vertex.values()))


@dataclass(frozen=True)
class ClassSummary:
    representative: str
    size: int
    limit_count: int


@dataclass(frozen=True)
class QuotientPoset:
    """The strict partial order of domination classes, with per-class size and limit count.

    Classes come in representative order; ``down[i]`` and ``up[i]`` are the
    bitmasks of the positions of the classes strictly below and above class i,
    and ``upper_covers[i]`` that of the classes covering it.
    """

    classes: tuple[ClassSummary, ...]
    down: tuple[int, ...]
    up: tuple[int, ...]
    upper_covers: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def below(self) -> frozenset[tuple[str, str]]:
        """Pairs of representatives (x, y) with class x strictly below class y."""
        reps = [c.representative for c in self.classes]
        return frozenset((reps[a], reps[b]) for b, d in enumerate(self.down) for a in _bits(d))

    def least(self) -> str | None:
        """The least class, if any; in a finite poset, the minimal class when it is unique."""
        minimal = [c.representative for c, d in zip(self.classes, self.down) if not d]
        return minimal[0] if len(minimal) == 1 else None

    def greatest(self) -> str | None:
        """The greatest class, if any; in a finite poset, the maximal class when it is unique."""
        maximal = [c.representative for c, u in zip(self.classes, self.up) if not u]
        return maximal[0] if len(maximal) == 1 else None

    def covers(self) -> tuple[tuple[str, str], ...]:
        """Hasse cover pairs: (a, b) with a strictly below b and nothing in between."""
        reps = [c.representative for c in self.classes]
        return tuple((reps[a], reps[b]) for a, b in _cover_pairs(self.upper_covers))

    def _linear_extension(self) -> list[int]:
        """Class positions bottom up, each time the lowest-positioned class that is ready.

        Kahn's walk over the covers, the ready and done classes in masks: as
        each class is done, each of its upper covers whose down mask is all
        done turns ready.
        """
        covers, down = self.upper_covers, self.down
        ready = sum(1 << i for i, d in enumerate(down) if not d)
        done = 0
        order: list[int] = []
        while ready:
            a = _least(ready)
            ready ^= 1 << a
            done |= 1 << a
            order.append(a)
            for b in _bits(covers[a]):
                if not down[b] & ~done:
                    ready |= 1 << b
        return order


def _cover_pairs(upper_covers: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted (lower, upper) positions of the cover pairs, from each class's upper-cover mask."""
    return [(a, b) for a, m in enumerate(upper_covers) for b in _bits(m)]


def quotient(profile: RkProfile) -> QuotientPoset:
    """Collapse mutual domination; class X sits below Y iff its members are dominated by Y's.

    The quotient is the class index with names; operations that print no class
    representative read the index and never build it.
    """
    return profile._quotient


@dataclass(frozen=True)
class ConditionReport:
    code: str
    passed: bool
    detail: str
    informational: bool = False


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def admissible(self) -> bool:
        """True when every non-informational condition (V1-V5) passes."""
        return all(c.passed for c in self.conditions if not c.informational)

    def condition(self, code: str) -> ConditionReport:
        for c in self.conditions:
            if c.code == code:
                return c
        raise KeyError(code)


def validate_profile(profile: RkProfile) -> ValidationReport:
    """Check the admissibility conditions V1-V5 and the informational V6.

    V1 unique least class; V2 the least class is a singleton with limit count
    0; V3 unique greatest class; V4 with more than one vertex the greatest
    class has a positive limit count; V5 every multi-member class has a
    positive limit count; V6 (informational) the total model count is at
    least 2.  The verdicts on V1-V5 are those of :func:`_failed`, which every
    operation's admissibility check reads too; this only words them, naming
    off the class index just the classes that the words mention.
    """
    failed = _failed(profile)
    index, names, ils = profile.order._classes, profile.order.names, profile.limit_counts

    def name(c: int) -> str:
        return names[_least(index.masks[c])]

    least, greatest = _extremes(index.down, index.up)
    if least is None:
        minimal = (name(c) for c, d in enumerate(index.down) if not d)
        v1 = f"no unique least class (minimal: {', '.join(minimal)})"
        v2 = "no unique least class"
    else:
        v1 = f"least class {name(least)}"
        if "V2" not in failed:
            v2 = f"least class {name(least)} is a singleton with limit count 0"
        elif (size := index.masks[least].bit_count()) != 1:
            v2 = f"least class {name(least)} has size {size}"
        else:
            v2 = f"least class {name(least)} has limit count {ils[least]}"
    if greatest is None:
        maximal = (name(c) for c, u in enumerate(index.up) if not u)
        v3 = f"no unique greatest class (maximal: {', '.join(maximal)})"
    else:
        v3 = f"greatest class {name(greatest)}"
    if len(names) <= 1:
        v4 = "single vertex, nothing required"
    elif greatest is None:
        v4 = "no unique greatest class"
    else:
        v4 = f"greatest class {name(greatest)} has limit count {ils[greatest]}"
    if "V5" in failed:
        bad = next(c for c, m in enumerate(index.masks) if m & (m - 1) and not ils[c])
        v5 = f"class {name(bad)} has size {index.masks[bad].bit_count()} but limit count 0"
    else:
        v5 = "every multi-member class has a positive limit count"
    details = {"V1": v1, "V2": v2, "V3": v3, "V4": v4, "V5": v5}
    conds = [ConditionReport(code, code not in failed, text) for code, text in details.items()]
    total = len(names) + sum(ils)
    conds.append(
        ConditionReport(
            "V6",
            total >= 2,
            f"total {total} is {'in' if total >= 2 else 'below'} the Ehrenfeucht range",
            informational=True,
        )
    )
    return ValidationReport(tuple(conds))


def _extremes(down: Sequence[int], up: Sequence[int]) -> tuple[int | None, int | None]:
    """The unique least and greatest classes, read off class masks; None where there is
    no unique one."""
    minimal = [i for i, d in enumerate(down) if not d]
    maximal = [i for i, u in enumerate(up) if not u]
    return minimal[0] if len(minimal) == 1 else None, maximal[0] if len(maximal) == 1 else None


def _failed_conditions(
    sizes: Sequence[int], ils: Sequence[int], least: int | None, greatest: int | None
) -> list[str]:
    """Codes of the conditions V1-V5 that fail, given the classes that ``_extremes``
    finds."""
    failed = []
    if least is None:
        failed.append("V1")
    if least is None or sizes[least] != 1 or ils[least] != 0:
        failed.append("V2")
    if greatest is None:
        failed.append("V3")
    if sum(sizes) > 1 and (greatest is None or ils[greatest] < 1):
        failed.append("V4")
    if any(s > 1 and il < 1 for s, il in zip(sizes, ils)):
        failed.append("V5")
    return failed


def _failed(profile: RkProfile) -> list[str]:
    """Codes of the conditions V1-V5 that the profile fails, read off its class index."""
    index = profile.order._classes
    sizes = [m.bit_count() for m in index.masks]
    return _failed_conditions(sizes, profile.limit_counts, *_extremes(index.down, index.up))


def _require_admissible(profile: RkProfile) -> None:
    """Raise InvalidProfile unless V1-V5 hold."""
    failed = _failed(profile)
    if failed:
        raise InvalidProfile("profile fails " + ", ".join(failed))


@dataclass(frozen=True)
class DecompositionReport:
    """Totals of the decomposition (total = prime + limit) with per-class terms."""

    prime_count: int
    limit_count: int
    total: int
    class_terms: tuple[tuple[int, int], ...]
    classes: tuple[ClassSummary, ...] = field(default=())


def counts(profile: RkProfile) -> DecompositionReport:
    """Prime, limit and total model counts; class terms in topological order."""
    _require_admissible(profile)
    q = quotient(profile)
    ordered = tuple(q.classes[i] for i in q._linear_extension())
    prime = sum(c.size for c in ordered)
    limit = sum(c.limit_count for c in ordered)
    return DecompositionReport(
        prime,
        limit,
        prime + limit,
        tuple((c.size, c.limit_count) for c in ordered),
        ordered,
    )


@dataclass(frozen=True)
class CanonicalProfile:
    """Serialized normal form; equal bytes iff the profiles are isomorphic."""

    canonical_text: bytes


def _class_structure(profile: RkProfile):
    """Per-class sizes, limit counts, strictly-below/above masks and Hasse cover pairs."""
    index = profile.order._classes
    sizes = [m.bit_count() for m in index.masks]
    return sizes, profile.limit_counts, index.down, index.up, _cover_pairs(index.covers)


def _cell_keys(
    sizes: list[int], ils: list[int], down: list[int], up: list[int]
) -> list[tuple[int, int, int, int]]:
    """(size, il, |down|, |up|) per class: the keys of the initial cells."""
    return list(zip(sizes, ils, map(int.bit_count, down), map(int.bit_count, up)))


def _refine(
    cells: list[int], down: list[int], up: list[int], fresh: Sequence[int] | None = None
) -> list[int]:
    """Equitable refinement: split cells by how many members of each cell lie below/above.

    Each cell is a mask of classes.  Each pass splits every cell by its
    members' signatures, their (below, above) counts against each cell in
    position order, and puts the pieces in increasing signature order;
    passes repeat until no cell splits or every cell is a singleton.

    A pass holds each column as bit planes over the classes: plane k of a
    cell's "below" column is the mask of the classes with bit k set in their
    count of its members below them.  A singleton f has the planes ``up[f]``
    and ``down[f]``; a larger cell sums its members' ``up`` masks, and their
    ``down`` masks, with a ripple carry.  A cell is split by the planes in
    signature order, "below" before "above" and most significant first,
    each piece into its members outside the plane, then those inside it:
    the numeric order of the counts.  A plane that holds all of the cell's
    members or none splits nothing and is skipped, so a column constant on
    the cell costs a mask test per plane and no per-member work.

    Only the columns of the fresh cells are computed.  Every other column is
    constant inside each cell, so it changes neither the grouping nor the
    order of the pieces.  That holds for a cell that the previous pass did
    not split, since that pass grouped by it, and, when ``fresh`` is given,
    for every cell but the pieces of one split cell of an equitable
    partition, as after individualization.  None means every cell is fresh,
    as at the root.  Of the pieces of a split cell, the last is not fresh
    either: inside a cell its counts are the old cell's constant counts minus
    those of the pieces just before it, so members that tie on the earlier
    columns tie on it.  No earlier piece may be dropped instead: its column
    is not a function of the columns before it, so dropping it can merge
    pieces or change their order.
    """
    fresh = range(len(cells)) if fresh is None else fresh
    while fresh and len(cells) < len(down):
        planes: list[int] = []
        for i in fresh:
            c = cells[i]
            if not c & (c - 1):
                e = c.bit_length() - 1
                planes += (up[e], down[e])
                continue
            below: list[int] = []
            above: list[int] = []
            for e in _bits(c):
                for sums, x in ((below, up[e]), (above, down[e])):
                    for k, p in enumerate(sums):
                        sums[k], x = p ^ x, p & x
                        if not x:
                            break
                    else:
                        sums.append(x)
            planes += below[::-1] + above[::-1]
        new_cells: list[int] = []
        fresh = []
        for c in cells:
            if not c & (c - 1):
                new_cells.append(c)
                continue
            pieces = [c]
            for p in planes:
                if 0 < p & c < c:
                    pieces = [h for g in pieces for h in (g & ~p, g & p) if h]
            if len(pieces) == 1:
                new_cells.append(c)
                continue
            fresh += range(len(new_cells), len(new_cells) + len(pieces) - 1)
            new_cells += pieces
        cells = new_cells
    return cells


# A leaf's certificate: its cover pairs relabelled to leaf positions, sorted.  A _Leaf
# adds the class sizes and limit counts in leaf order, which is sorted order, and fixes
# the leaf's document.
_Certificate = tuple[tuple[int, int], ...]
_Leaf = tuple[tuple[int, ...], tuple[int, ...], _Certificate]


def _initial_cells(keys: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The initial cells, each the mask of the classes of one key, in increasing key order."""
    initial: dict[tuple[int, ...], int] = {}
    for e, key in enumerate(keys):
        initial[key] = initial.get(key, 0) | 1 << e
    return tuple([initial[key] for key in sorted(initial)])


def _root_cells(keys: Sequence[tuple[int, ...]], down: list[int], up: list[int]) -> list[int]:
    """The refined partition into initial cells, the root of the search tree."""
    return _refine(list(_initial_cells(keys)), down, up)


def _certificate(order: Sequence[int], covers: list[tuple[int, int]]) -> _Certificate:
    pos = [0] * len(order)
    for p, e in enumerate(order):
        pos[e] = p
    return tuple(sorted([(pos[a], pos[b]) for a, b in covers]))


def _target(cells: list[int], start: int) -> int | None:
    """Index of the first non-singleton cell; None when the partition is discrete.

    The cells before ``start`` must be singletons.  In a node's children, the cells
    up to the node's target are, since cells split only in place."""
    return next((i for i, c in enumerate(cells[start:], start) if c & (c - 1)), None)


def _individualize(cells: list[int], t: int, e: int, down: list[int], up: list[int]) -> list[int]:
    """Split e off cell t of an equitable partition, just before the rest of the cell; refine."""
    return _refine(cells[:t] + [1 << e, cells[t] ^ 1 << e] + cells[t + 1 :], down, up, [t])


@dataclass
class _Node:
    """An inner node of the search tree: its cells, target cell, untried children (a mask),
    prefix (the mask of the classes individualized above it) and the child it explores."""

    cells: list[int]
    target: int
    children: int
    prefix: int
    chosen: int = -1


def _orbit(mask: int, generators: Sequence[list[int]]) -> int:
    """The union of the orbits of the classes in the mask under the group the generators span."""
    orbit = frontier = mask
    while frontier:
        image = 0
        for x in _bits(frontier):
            for g in generators:
                image |= 1 << g[x]
        frontier = image & ~orbit
        orbit |= frontier
    return orbit


class _leaf_certificates(Iterator[_Certificate]):
    """Each distinct leaf certificate of the individualization-refinement tree, when first
    found; the StopIteration that ends the walk carries the number of leaves visited.

    A certificate is the leaf's cover list relabelled to leaf positions.  The
    labels need no place in it: the root cells come in the order of their keys,
    and cells split only in place, so every leaf lists the same class sizes and
    limit counts.

    The root is ``cells``, the refined partition into initial cells, each a
    mask of classes; a node's children individualize, in increasing order,
    each member of its first non-singleton cell, then refine.  The walk is
    depth first, with an explicit stack.  A leaf whose certificate was seen
    before gives an automorphism (the map from the earlier leaf order to this
    one), and the walk backjumps to the deepest common ancestor of the two
    leaves, since the rest of the current subtree there is the automorphism's
    image of an explored one.  A child in the orbit of a tried sibling is
    skipped for the same reason.  The orbits are those of the known
    automorphisms that fix the node's prefix, the classes individualized above
    it: those whose support, the mask of the classes they move, misses the
    prefix.  One closure under them clears the tried children's orbits from
    the untried ones.  The known automorphisms are those recorded so far and
    ``seed``, automorphisms of the labelled classes that the caller holds
    already.  Only automorphic images of explored subtrees are skipped, so
    every certificate of the whole tree is found (McKay and Piperno,
    "Practical graph isomorphism, II", 2014).  A caller that stops early skips
    the rest of the walk.  The first certificate is always the first leaf's,
    reached by individualizing the least member of each target cell, since a
    node's first child has no tried sibling and so is never skipped, whatever
    automorphisms are known.

    The walk keeps what it finds: ``generators``, the seed and the recorded
    automorphisms as class maps, and ``least_order()``, the leaf order of
    the least certificate so far.  After the whole walk the generators span
    the automorphism group.  On the first leaf's path, the first leaf of each
    explored sibling subtree repeats a certificate of the first child's
    subtree, so the walk records an automorphism that fixes the path above
    and maps the first child to the sibling; the skipped siblings lie in the
    orbits of explored ones; and at the first leaf only the identity is left.
    """

    def __init__(
        self,
        down: list[int],
        up: list[int],
        covers: list[tuple[int, int]],
        cells: list[int],
        seed: Sequence[list[int]] = (),
    ) -> None:
        # certificate -> (leaf order, individualized class per level) of its first leaf
        self._seen: dict[_Certificate, tuple[list[int], list[int]]] = {}
        self.generators: list[list[int]] = list(seed)
        self._walk = self._leaves(down, up, covers, cells)

    def __next__(self) -> _Certificate:
        return next(self._walk)

    def least_order(self) -> list[int]:
        """The leaf order of the first leaf with the least certificate found so far."""
        return self._seen[min(self._seen)][0]

    def _leaves(
        self, down: list[int], up: list[int], covers: list[tuple[int, int]], cells: list[int]
    ) -> Generator[_Certificate, None, int]:
        seen, generators = self._seen, self.generators
        supports = [sum(1 << x for x, y in enumerate(g) if x != y) for g in generators]
        path: list[_Node] = []
        leaves = 0
        while True:
            target = _target(cells, path[-1].target + 1 if path else 0)
            if target is not None:
                prefix = path[-1].prefix | 1 << path[-1].chosen if path else 0
                path.append(_Node(cells, target, cells[target], prefix))
            else:
                leaves += 1
                order = [c.bit_length() - 1 for c in cells]
                cert = _certificate(order, covers)
                chosen = [node.chosen for node in path]
                first = seen.get(cert)
                if first is None:
                    seen[cert] = (order, chosen)
                    yield cert
                else:
                    first_order, first_chosen = first
                    gamma, support = [0] * len(order), 0
                    for a, b in zip(first_order, order):
                        gamma[a] = b
                        if a != b:
                            support |= 1 << a
                    generators.append(gamma)
                    supports.append(support)
                    depth = 0
                    while first_chosen[depth] == chosen[depth]:
                        depth += 1
                    del path[depth + 1 :]
            while path:
                node = path[-1]
                child = _next_child(node, generators, supports)
                if child is not None:
                    break
                path.pop()
            else:
                return leaves
            cells = _individualize(node.cells, node.target, child, down, up)


def _next_child(node: _Node, generators: list[list[int]], supports: list[int]) -> int | None:
    """The node's least untried child outside the orbits of its tried ones, now its chosen one."""
    if node.children:
        fixing = [g for g, s in zip(generators, supports) if not s & node.prefix]
        if fixing:
            node.children &= ~_orbit(node.cells[node.target] & ~node.children, fixing)
    if not node.children:
        return None
    node.chosen = _least(node.children)
    node.children ^= 1 << node.chosen
    return node.chosen


def _least_leaf(
    initial: Sequence[int],
    down: list[int],
    up: list[int],
    covers: list[tuple[int, int]],
    seed: Sequence[list[int]],
) -> _Certificate:
    """The least leaf certificate of the tree rooted at the refined initial cells; a
    discrete root is the only leaf.  ``seed`` are automorphisms that map each initial cell
    onto itself.  The walk reads no labels, so every labelling with these initial cells
    has this least certificate."""
    cells = _refine(list(initial), down, up)
    if len(cells) == len(down):
        return _certificate([c.bit_length() - 1 for c in cells], covers)
    return min(_leaf_certificates(down, up, covers, cells, seed))


def _least_certificate(
    sizes: list[int], ils: list[int], down: list[int], up: list[int], covers: list[tuple[int, int]]
) -> _Leaf:
    """The sorted class sizes and limit counts and the least leaf certificate.  Every leaf
    lists the classes' labels sorted, so leaf documents differ only in cover lines, and
    the least certificate's is the least."""
    initial = _initial_cells(_cell_keys(sizes, ils, down, up))
    cert = _least_leaf(initial, down, up, covers, ())
    return (*zip(*sorted(zip(sizes, ils))), cert)


def _keeping_labels(
    automorphisms: Sequence[list[int]], sizes: Sequence[int], ils: Sequence[int]
) -> list[list[int]]:
    """The class maps under which the sizes and limit counts are invariant."""
    return [
        g
        for g in automorphisms
        if all(sizes[x] == s and ils[x] == c for x, s, c in zip(g, sizes, ils))
    ]


# Class sizes -> document head, class representatives, and the il blocks kept for them.
_Heads = dict[tuple[int, ...], tuple[bytes, list[str], dict[tuple[int, ...], bytes]]]


def _document(leaf: _Leaf, heads: _Heads | None = None) -> bytes:
    """Class p named n{p}, or n{p}_{j} per member, with fixed widths: sorted by position.

    The head depends only on the class sizes and the il lines on the sizes and limit
    counts; ``heads`` keeps both as written so far, so only the cover lines are new."""
    sizes, ils, covers = leaf
    if heads is None:
        heads = {}
    if sizes not in heads:
        cw = max(2, len(str(len(sizes) - 1)))
        mw = max(2, len(str(max(sizes) - 1)))
        members = [
            [f"n{p:0{cw}d}"] if size == 1 else [f"n{p:0{cw}d}_{j:0{mw}d}" for j in range(size)]
            for p, size in enumerate(sizes)
        ]
        names = [v for ms in members for v in ms]
        heads[sizes] = _format.head(names, members), [ms[0] for ms in members], {}
    head, reps, blocks = heads[sizes]
    if ils not in blocks:
        blocks[ils] = _format.tail(reps, ils, ())
    return head + _format.tail(reps, (), covers) + blocks[ils]


def canonical_form(profile: RkProfile) -> CanonicalProfile:
    """Serialize the relabelling by the class order of the least leaf certificate."""
    _require_admissible(profile)
    return CanonicalProfile(_document(_least_certificate(*_class_structure(profile))))


def is_isomorphic(a: RkProfile, b: RkProfile) -> bool:
    """True iff the profiles are isomorphic as IL-labeled preorders.

    Profiles whose multisets of initial cell keys, which fix the vertex and
    class counts, or whose refined root partitions differ are told apart
    without a search.  Otherwise the search over a stops at the first leaf
    whose certificate is b's first.  The two checks make that exact: a leaf lists
    its classes root cell by root cell, so the leaves of both trees give each
    position a class of the same key, and so of the same size and limit count.
    """
    _require_admissible(a)
    _require_admissible(b)
    sa, sb = _class_structure(a), _class_structure(b)
    ka, kb = _cell_keys(*sa[:4]), _cell_keys(*sb[:4])
    if sorted(ka) != sorted(kb):
        return False
    # Refinement is isomorphism-invariant, and the search starts from these cells.
    ra, rb = _root_cells(ka, *sa[2:4]), _root_cells(kb, *sb[2:4])
    if [(ka[_least(c)], c.bit_count()) for c in ra] != [(kb[_least(c)], c.bit_count()) for c in rb]:
        return False
    # Isomorphic profiles have the same certificates over their whole search trees,
    # so one leaf of b decides, and the walk over a stops at the first match.
    target = next(_leaf_certificates(*sb[2:], rb))
    return target in _leaf_certificates(*sa[2:], ra)
