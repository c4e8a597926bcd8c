"""Pareto products of profiles and order-theoretic predicates on quotients.

The product models the disjoint union of two theories: vertices are pairs,
ordered coordinatewise, and each product class combines the factor classes'
sizes and limit counts.  ``oracle_product`` recomputes the limit counts by
brute-force token enumeration and exists purely as an independent cross-check
of the closed per-class formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    MAX_VERTICES,
    DecompositionReport,
    Preorder,
    ProfileError,
    QuotientPoset,
    RkProfile,
    TooManyVertices,
    _bits,
    _class_index,
    _class_structure,
    _closed_preorder,
    _profile,
    _require_admissible,
    counts,
    is_isomorphic,
    quotient,
)

__all__ = [
    "EmptyFactorList",
    "FactorMismatch",
    "NameCollision",
    "NotALattice",
    "ProductDecomposition",
    "decomposition",
    "is_boolean_lattice",
    "is_lattice",
    "monotonicity",
    "oracle_product",
    "pareto_product",
    "product_many",
]


class EmptyFactorList(ProfileError):
    """product_many was given no factors."""


class FactorMismatch(ProfileError):
    """The factors' product is not isomorphic to the given profile."""


class NameCollision(ProfileError):
    """Two vertex pairs of a product get the same name; the factors need renaming."""


class NotALattice(ProfileError):
    """A lattice-only predicate was applied to a non-lattice quotient."""


def pareto_product(a: RkProfile, b: RkProfile) -> RkProfile:
    """Coordinatewise product; class (X, Y) gets limit count Xl*|Y| + |X|*Yl + Xl*Yl."""
    names = _product_names(a, b)
    ia, ib = a.order._classes, b.order._classes
    kb = len(ib.masks)
    # Class (X, Y) is X*kb + Y here; _class_index renumbers the classes by least member.
    ils = [
        xl * y.bit_count() + (x.bit_count() + xl) * yl
        for x, xl in zip(ia.masks, a.limit_counts)
        for y, yl in zip(ib.masks, b.limit_counts)
    ]
    # (X, Y) is covered by (X', Y) for X' covering X and (X, Y') for Y' covering Y.
    covers_b = [list(_bits(m)) for m in ib.covers]
    covers = []
    for x, cx in enumerate(ia.covers):
        above = [d * kb for d in _bits(cx)]
        for y, cy in enumerate(covers_b):
            covers.append([d + y for d in above] + [x * kb + d for d in cy])
    # A class above another has a smaller |up(X)| + |up(Y)|: sorted by it, sinks come first.
    up_b = [y.bit_count() for y in ib.up]
    height = [x + y for x in map(int.bit_count, ia.up) for y in up_b]
    sinks_first = sorted(range(len(height)), key=height.__getitem__)
    # A factor name with "*" can break pair order; the vertices go by name.
    position = [x * kb + y for x in ia.position for y in ib.position]
    pair = sorted(range(len(names)), key=names.__getitem__)
    index, old = _class_index([position[v] for v in pair], covers, sinks_first)
    return _profile(
        _closed_preorder([names[v] for v in pair], index), tuple(ils[c] for c in old)
    )


def _product_names(a: RkProfile, b: RkProfile) -> list[str]:
    """Names x*y of the product's vertices in factor name order; both factors must be admissible."""
    _require_admissible(a)
    _require_admissible(b)
    n = len(a.order.names) * len(b.order.names)
    if n > MAX_VERTICES:
        raise TooManyVertices(f"the product would have {n} vertices, more than {MAX_VERTICES}")
    names = [f"{x}*{y}" for x in a.order.names for y in b.order.names]
    if len(set(names)) != len(names):
        raise NameCollision("vertex name collision in product; rename factor vertices")
    return names


def product_many(factors: Sequence[RkProfile]) -> RkProfile:
    """Left fold of pareto_product; the result is independent of fold order up to isomorphism."""
    factors = list(factors)
    if not factors:
        raise EmptyFactorList("at least one factor is required")
    result = factors[0]
    _require_admissible(result)
    for f in factors[1:]:
        result = pareto_product(result, f)
    return result


def oracle_product(a: RkProfile, b: RkProfile) -> RkProfile:
    """Product with limit counts found by enumerating explicit model tokens.

    Per factor class, |X| prime tokens and Xl limit tokens are materialized;
    a token pair is prime iff both components are prime, and the class limit
    count is the number of pairs with at least one limit component, counted
    one pair at a time.  No closed formula is used.
    """
    vertices = frozenset(_product_names(a, b))
    leq = set()
    for x1 in a.order.vertices:
        for x2 in a.order.vertices:
            if not a.order.holds(x1, x2):
                continue
            for y1 in b.order.vertices:
                for y2 in b.order.vertices:
                    if b.order.holds(y1, y2):
                        leq.add((f"{x1}*{y1}", f"{x2}*{y2}"))
    il = {}
    for xcls, xl in a.il.items():
        xtokens = [("prime", v) for v in sorted(xcls)] + [("limit", i) for i in range(xl)]
        for ycls, yl in b.il.items():
            ytokens = [("prime", v) for v in sorted(ycls)] + [("limit", i) for i in range(yl)]
            limit_pairs = 0
            for tx in xtokens:
                for ty in ytokens:
                    if tx[0] == "limit" or ty[0] == "limit":
                        limit_pairs += 1
            il[frozenset(f"{x}*{y}" for x in xcls for y in ycls)] = limit_pairs
    return RkProfile(Preorder(vertices, frozenset(leq)), il)


@dataclass(frozen=True)
class ProductDecomposition:
    """Factor reports, the product report, and the per-class term table.

    Each term row is (factor class representatives, product class size,
    product class limit count), sorted lexicographically by the
    representative tuple.
    """

    factor_reports: tuple[DecompositionReport, ...]
    product_report: DecompositionReport
    term_table: tuple[tuple[tuple[str, ...], int, int], ...]


def decomposition(
    profile: RkProfile, factors: Iterable[RkProfile] | None = None
) -> ProductDecomposition:
    """Full decomposition term table; with factors given, they must multiply to the profile."""
    _require_admissible(profile)
    if factors is None:
        flist = [profile]
        product = profile
    else:
        flist = list(factors)
        product = product_many(flist)
        if not is_isomorphic(product, profile):
            raise FactorMismatch("the factors' product is not isomorphic to the profile")
    factor_reports = tuple(counts(f) for f in flist)
    factor_classes = [quotient(f).classes for f in flist]
    table = []
    for combo in itertools.product(*factor_classes):
        reps = tuple(c.representative for c in combo)
        size, lim = combo[0].size, combo[0].limit_count
        for c in combo[1:]:
            lim = lim * c.size + size * c.limit_count + lim * c.limit_count
            size = size * c.size
        table.append((reps, size, lim))
    table.sort(key=lambda row: row[0])
    product_report = counts(product)
    total = 1
    for r in factor_reports:
        total *= r.total
    if (
        product_report.prime_count != sum(row[1] for row in table)
        or product_report.limit_count != sum(row[2] for row in table)
        or product_report.total != total
    ):
        raise ProfileError("the term table disagrees with the product's counts")
    return ProductDecomposition(factor_reports, product_report, tuple(table))


def _reflexive(strict: Sequence[int]) -> list[int]:
    """Strictly-above (or below) class masks with each class added to its own mask."""
    return [m | 1 << i for i, m in enumerate(strict)]


def is_lattice(q: QuotientPoset) -> bool:
    """True iff every pair of classes has a unique join and a unique meet."""
    return _is_lattice(q.down, q.up, q.upper_covers)


def _is_lattice(down: Sequence[int], up: Sequence[int], covers: Sequence[int]) -> bool:
    """:func:`is_lattice` on class masks: strictly below, strictly above and upper covers.

    A finite poset with a greatest class is a lattice once every pair has a
    meet: the join of x and y is the meet of their common upper bounds, of
    which the greatest class is one.  And every pair has a meet once every
    two lower covers of one class do.  By induction on the height of a
    common upper bound w of x and y (x, y < w), take x <= x' and y <= y',
    both covered by w.  If x' = y', it is a common upper bound below w.
    Otherwise m = meet(x', y') exists, and meet(x, y) is
    meet(meet(x, m), meet(y, m)), where each of the three meets has a
    common upper bound strictly below w.  So the meet, the class whose
    down-set is the intersection of the two down-sets, is tested only for
    pairs of lower covers of one class.

    In a lattice two classes share at most one upper cover, their join, so
    the pairs of lower covers number at most the pairs of classes; a poset
    with more is not a lattice, and the test never makes more meet checks
    than testing all pairs does.
    """
    if up.count(0) != 1:  # no greatest class
        return False
    lower: list[list[int]] = [[] for _ in covers]
    for c, m in enumerate(covers):
        for d in _bits(m):
            lower[d].append(c)
    k = len(lower)
    if sum(len(cs) * (len(cs) - 1) for cs in lower) > k * (k - 1):
        return False
    down = _reflexive(down)
    at = set(down)
    return all(
        down[a] & down[b] in at for cs in lower for i, a in enumerate(cs) for b in cs[i + 1 :]
    )


def is_boolean_lattice(q: QuotientPoset) -> bool:
    """True iff the lattice is Boolean; raises on non-lattices."""
    return _is_boolean_lattice(q.down, q.up, q.upper_covers)


def _is_boolean_lattice(down: Sequence[int], up: Sequence[int], covers: Sequence[int]) -> bool:
    """:func:`is_boolean_lattice` on the class masks that :func:`_is_lattice` reads.

    A finite lattice is Boolean iff mapping each class to the set of atoms
    below it is a bijection onto all sets of atoms that reflects the order.
    The map preserves the order, so a class's down-set lies inside the
    classes whose atoms are among its own, 2**(its atoms) of them under a
    bijection; the order is reflected exactly when the two have equal sizes.
    """
    if not _is_lattice(down, up, covers):
        raise NotALattice("quotient is not a lattice")
    bottom = 1 << down.index(0)
    atoms = sum(1 << i for i, d in enumerate(down) if d == bottom)
    down = _reflexive(down)
    below = [d & atoms for d in down]
    return (
        len(down) == 1 << atoms.bit_count()
        and len(set(below)) == len(down)
        and all(d.bit_count() == 1 << a.bit_count() for d, a in zip(down, below))
    )


def monotonicity(profile: RkProfile) -> tuple[str, str]:
    """(size flag, limit flag), each "strict", "weak" or "none".

    A flag is strict when the quantity strictly increases along every strictly
    comparable pair of classes, weak when it never decreases, none otherwise;
    incomparable classes impose no constraint.  Every comparable pair is a
    chain of covers, so the covers decide.
    """
    _require_admissible(profile)
    sizes, ils, _, _, covers = _class_structure(profile)
    size_strict = size_weak = limit_strict = limit_weak = True
    for a, b in covers:
        size_strict = size_strict and sizes[a] < sizes[b]
        size_weak = size_weak and sizes[a] <= sizes[b]
        limit_strict = limit_strict and ils[a] < ils[b]
        limit_weak = limit_weak and ils[a] <= ils[b]

    def flag(strict: bool, weak: bool) -> str:
        return "strict" if strict else "weak" if weak else "none"

    return flag(size_strict, size_weak), flag(limit_strict, limit_weak)
