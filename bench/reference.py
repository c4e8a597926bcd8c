"""Independent reference used to check the outputs of every benchmark op.

Nothing here imports rkdist.  The "rkp 1" reader, the closure, the
admissibility test (V1-V5), the base-catalog table and the Pareto-product
class formula are written from the format and the definitions, so a defect
in the code under test cannot hide itself by agreeing with its own check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# Profile counts of `enumerate --total t`, t = 2..9.  No profile has total 2
# (Vaught's never-two theorem); the rest is the sequence in ROADMAP.md.
ENUMERATION_COUNTS = {2: 0, 3: 1, 4: 3, 5: 8, 6: 23, 7: 76, 8: 291, 9: 1336}


@dataclass(frozen=True)
class Factor:
    """A base catalog entry as quotient data: per class (size, limit count) and
    the strict order on class indices (i, j) = "class i lies below class j"."""

    classes: tuple[tuple[int, int], ...]
    below: frozenset[tuple[int, int]]

    @property
    def vertices(self) -> int:
        return sum(s for s, _ in self.classes)

    @property
    def total(self) -> int:
        return sum(s + il for s, il in self.classes)

    @property
    def covers(self) -> int:
        return sum(
            1
            for a, b in self.below
            if not any((a, t) in self.below and (t, b) in self.below for t in range(len(self.classes)))
        )

    @property
    def height(self) -> int:
        """Edges on a longest chain of classes."""
        depth = [0] * len(self.classes)
        for b in range(len(self.classes)):  # classes are listed in a linear extension
            depth[b] = max((depth[a] + 1 for a in range(b) if (a, b) in self.below), default=0)
        return max(depth)


def _chain(*ils: int) -> Factor:
    below = frozenset((i, j) for j in range(len(ils)) for i in range(j))
    return Factor(tuple((1, il) for il in ils), below)


def _least_plus(size: int, il: int) -> Factor:
    return Factor(((1, 0), (size, il)), frozenset({(0, 1)}))


# Transcribed from the figure descriptions of the paper, not read from rkdist.
BASE: dict[str, Factor] = {
    "fig1a": _chain(0, 1),
    "fig1b.1": _chain(0, 2),
    "fig1b.2": _least_plus(2, 1),
    "fig1b.3": _chain(0, 0, 1),
    "fig2.1": _chain(0, 3),
    "fig2.2": _chain(0, 1, 1),
    "fig2.3": _chain(0, 0, 2),
    "fig2.4": _chain(0, 0, 0, 1),
    "fig2.5": _least_plus(2, 2),
    "fig2.6": _least_plus(3, 1),
    "fig2.7": Factor(((1, 0), (1, 0), (2, 1)), frozenset({(0, 1), (0, 2), (1, 2)})),
    "fig2.8": Factor(
        ((1, 0), (1, 0), (1, 0), (1, 1)),
        frozenset({(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}),
    ),
}


@dataclass(frozen=True)
class ProductRef:
    """What any correct Pareto product of the named base factors must show."""

    names: tuple[str, ...]

    @property
    def factors(self) -> list[Factor]:
        return [BASE[n] for n in self.names]

    @property
    def vertices(self) -> int:
        return math.prod(f.vertices for f in self.factors)

    @property
    def total(self) -> int:
        return math.prod(f.total for f in self.factors)

    @property
    def class_count(self) -> int:
        return math.prod(len(f.classes) for f in self.factors)

    @property
    def covers(self) -> int:
        """A product cover moves one coordinate along a factor cover."""
        fs = self.factors
        return sum(
            f.covers * math.prod(len(g.classes) for j, g in enumerate(fs) if j != i)
            for i, f in enumerate(fs)
        )

    @property
    def height(self) -> int:
        return sum(f.height for f in self.factors)

    @property
    def comparable_pairs(self) -> int:
        """Strictly comparable pairs of product classes."""
        fs = self.factors
        return math.prod(len(f.classes) + len(f.below) for f in fs) - self.class_count

    def invariants(self) -> tuple:
        """Isomorphism invariants: profiles that differ in any are not isomorphic."""
        return (self.vertices, self.total, tuple(self.labels()), self.comparable_pairs, self.covers)

    def labels(self) -> list[tuple[int, int]]:
        """Sorted (size, limit count) of every product class."""
        return sorted(_combine(combo) for combo in itertools.product(*(f.classes for f in self.factors)))

    def monotonicity(self) -> tuple[str, str]:
        """(size flag, limit flag) over strictly comparable product classes."""
        fs = self.factors
        le = [
            [[a == b or (a, b) in f.below for b in range(len(f.classes))] for a in range(len(f.classes))]
            for f in fs
        ]
        tuples = list(itertools.product(*(range(len(f.classes)) for f in fs)))
        label = {t: _combine(tuple(f.classes[i] for f, i in zip(fs, t))) for t in tuples}
        size_strict = size_weak = limit_strict = limit_weak = True
        for x in tuples:
            for y in tuples:
                if x != y and all(le[k][x[k]][y[k]] for k in range(len(fs))):
                    (sx, lx), (sy, ly) = label[x], label[y]
                    size_strict = size_strict and sx < sy
                    size_weak = size_weak and sx <= sy
                    limit_strict = limit_strict and lx < ly
                    limit_weak = limit_weak and lx <= ly
        return _flag(size_strict, size_weak), _flag(limit_strict, limit_weak)


def _combine(classes: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Pareto class formula: size multiplies, limit count is Xl*|Y| + |X|*Yl + Xl*Yl."""
    size, il = classes[0]
    for s, l in classes[1:]:
        size, il = size * s, il * s + size * l + il * l
    return size, il


def _flag(strict: bool, weak: bool) -> str:
    return "strict" if strict else "weak" if weak else "none"


class Mismatch(ValueError):
    """A document does not satisfy what the reference expects of it."""


@dataclass(frozen=True)
class Document:
    """A parsed "rkp 1" document: names in declaration order, le pairs, il statements."""

    vertices: tuple[str, ...]
    le: tuple[tuple[str, str], ...]
    il: tuple[tuple[str, int], ...]


def parse(text: bytes) -> Document:
    vertices: list[str] = []
    le: list[tuple[str, str]] = []
    il: list[tuple[str, int]] = []
    lines = [ln.split("#", 1)[0].split() for ln in text.decode("utf-8").split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["rkp", "1"]:
        raise Mismatch("missing rkp 1 header")
    for toks in lines[1:]:
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "le" and len(toks) == 3:
            le.append((toks[1], toks[2]))
        elif toks[0] == "il" and len(toks) == 3 and toks[2].isascii() and toks[2].isdigit():
            il.append((toks[1], int(toks[2])))
        else:
            raise Mismatch(f"bad statement {' '.join(toks)!r}")
    if len(set(vertices)) != len(vertices):
        raise Mismatch("duplicate vertex")
    return Document(tuple(vertices), tuple(le), tuple(il))


@dataclass(frozen=True)
class Structure:
    """Quotient of a document: classes as (members, limit count), strict order on indices."""

    classes: tuple[tuple[frozenset[str], int], ...]
    below: frozenset[tuple[int, int]]

    @property
    def vertices(self) -> int:
        return sum(len(m) for m, _ in self.classes)

    @property
    def total(self) -> int:
        return self.vertices + sum(il for _, il in self.classes)

    def labels(self) -> list[tuple[int, int]]:
        return sorted((len(m), il) for m, il in self.classes)

    def admissible(self) -> bool:
        """V1-V5: unique least class, a singleton with limit 0; unique greatest
        class, with positive limit when there are two or more vertices; every
        class of two or more members has a positive limit count."""
        k = len(self.classes)
        least = [i for i in range(k) if all(j == i or (i, j) in self.below for j in range(k))]
        greatest = [i for i in range(k) if all(j == i or (j, i) in self.below for j in range(k))]
        if len(least) != 1 or len(greatest) != 1:
            return False
        members, il = self.classes[least[0]]
        if len(members) != 1 or il != 0:
            return False
        if self.vertices > 1 and self.classes[greatest[0]][1] < 1:
            return False
        return all(il > 0 for m, il in self.classes if len(m) > 1)


def structure(doc: Document) -> Structure:
    """Reflexive-transitive closure by search from every vertex, then collapse."""
    names = set(doc.vertices)
    succ: dict[str, set[str]] = {v: set() for v in doc.vertices}
    for a, b in doc.le:
        if a not in names or b not in names:
            raise Mismatch(f"le names an undeclared vertex in {a} {b}")
        succ[a].add(b)
    reach: dict[str, frozenset[str]] = {}
    for v in doc.vertices:
        seen = {v}
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = frozenset(seen)
    cls_of: dict[str, frozenset[str]] = {}
    for v in doc.vertices:
        cls_of[v] = frozenset(w for w in reach[v] if v in reach[w])
    classes = sorted(set(cls_of.values()), key=min)
    index = {c: i for i, c in enumerate(classes)}
    il: dict[int, int] = {}
    for name, count in doc.il:
        if name not in names:
            raise Mismatch(f"il names an undeclared vertex {name}")
        i = index[cls_of[name]]
        if i in il:
            raise Mismatch(f"second il for the class of {name}")
        il[i] = count
    if len(il) != len(classes):
        raise Mismatch("a class has no il")
    below = frozenset(
        (index[cls_of[a]], index[cls_of[b]])
        for a in doc.vertices
        for b in reach[a]
        if cls_of[a] != cls_of[b]
    )
    return Structure(tuple((c, il[index[c]]) for c in classes), below)


def relabel(doc: Document, rng, prefix: str) -> bytes:
    """An isomorphic copy: fresh names in a random bijection, each il moved to a
    random member of its class, statements shuffled after the header."""
    order = list(range(len(doc.vertices)))
    rng.shuffle(order)
    new = {v: f"{prefix}{order[i]}" for i, v in enumerate(doc.vertices)}
    st = structure(doc)
    cls_of = {v: members for members, _ in st.classes for v in members}
    statements = [f"vertex {new[v]}" for v in doc.vertices]
    statements += [f"le {new[a]} {new[b]}" for a, b in doc.le]
    statements += [f"il {new[rng.choice(sorted(cls_of[name]))]} {count}" for name, count in doc.il]
    rng.shuffle(statements)
    return ("\n".join(["rkp 1", *statements]) + "\n").encode("utf-8")
