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
    DecompositionReport,
    Preorder,
    ProfileError,
    QuotientPoset,
    RkProfile,
    _bits,
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
    vertices = _product_vertices(a, b)
    leq = frozenset(
        (f"{x1}*{y1}", f"{x2}*{y2}")
        for (x1, x2) in a.order.leq
        for (y1, y2) in b.order.leq
    )
    il = {}
    for xcls, xl in a.il.items():
        for ycls, yl in b.il.items():
            zcls = frozenset(f"{x}*{y}" for x in xcls for y in ycls)
            il[zcls] = xl * len(ycls) + len(xcls) * yl + xl * yl
    return RkProfile(Preorder(vertices, leq), il)


def _product_vertices(a: RkProfile, b: RkProfile) -> frozenset[str]:
    """Names x*y of the product's vertices, once both factors are admissible."""
    _require_admissible(a)
    _require_admissible(b)
    vertices = frozenset(f"{x}*{y}" for x in a.order.vertices for y in b.order.vertices)
    if len(vertices) != len(a.order.vertices) * len(b.order.vertices):
        raise NameCollision("vertex name collision in product; rename factor vertices")
    return vertices


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
    vertices = _product_vertices(a, b)
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


def _reflexive(strict: tuple[int, ...]) -> list[int]:
    """Strictly-above (or below) class masks with each class added to its own mask."""
    return [m | 1 << i for i, m in enumerate(strict)]


def _bound_table(vecs: list[int]) -> list[list[int | None]]:
    """Per pair of classes, the class whose mask is the pair's common mask, if any.

    On reflexive down (or up) masks that class is the pair's greatest lower
    (or least upper) bound: the common lower bounds form a down-set, and a
    class is their greatest exactly when its own down-set is that set.
    """
    at = {m: t for t, m in enumerate(vecs)}
    return [[at.get(a & b) for b in vecs] for a in vecs]


def is_lattice(q: QuotientPoset) -> bool:
    """True iff every pair of classes has a unique join and a unique meet.

    A finite poset with a greatest class is a lattice once every pair has a
    meet: the join of x and y is the meet of their common upper bounds, of
    which the greatest class is one.
    """
    if q.greatest() is None:
        return False
    down = _reflexive(q.down)
    at = set(down)
    return all(a & b in at for i, a in enumerate(down) for b in down[i + 1 :])


def is_boolean_lattice(q: QuotientPoset) -> bool:
    """True iff the lattice is distributive and complemented; raises on non-lattices."""
    join = _bound_table(_reflexive(q.up))
    meet = _bound_table(_reflexive(q.down))
    if any(None in row for row in join) or any(None in row for row in meet):
        raise NotALattice("quotient is not a lattice")
    k = len(join)
    bottom = next(i for i in range(k) if not q.down[i])
    top = next(i for i in range(k) if not q.up[i])
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False
    return all(
        any(meet[x][y] == bottom and join[x][y] == top for y in range(k)) for x in range(k)
    )


def monotonicity(profile: RkProfile) -> tuple[str, str]:
    """(size flag, limit flag), each "strict", "weak" or "none".

    A flag is strict when the quantity strictly increases along every strictly
    comparable pair of classes, weak when it never decreases, none otherwise;
    incomparable classes impose no constraint.
    """
    q = _require_admissible(profile)
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
