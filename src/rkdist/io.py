"""Textual profile format ("rkp 1") and Hasse-diagram renderers.

Document grammar, line based, "#" starting a comment, blank lines ignored:

    rkp 1
    vertex NAME
    le NAME NAME          # left is dominated by right; closure is taken
    il NAME COUNT         # limit count of the class containing NAME

Statements may come in any order after the header.  Every domination class
must receive exactly one il declaration.  Identifiers match [A-Za-z0-9_]+;
"*" additionally appears in names generated by products so that their
serializations round-trip.  Serialized output is deterministic: sorted vertex
lines, one directed cycle per multi-member class, Hasse cover edges between
representatives, il lines on representatives, LF endings, trailing newline.
A document in exactly that layout, in any statement order, is read with
three whole-line regular expressions; every other document, and every faulty
one, is read line by line, and only that reader raises parse errors.
"""

from __future__ import annotations

import re

from . import _format, core
from .core import (
    MAX_VERTICES,
    NAME_CHAR,
    NAME_RE,
    ClassSummary,
    ProfileError,
    RkProfile,
    TooManyVertices,
    UnknownVertex,
    _bits,
    _closed_preorder,
    _cover_pairs,
    _least,
    _profile,
    _require_admissible,
    quotient,
)

__all__ = [
    "BadHeader",
    "DuplicateIl",
    "DuplicateVertex",
    "MalformedLine",
    "MissingIl",
    "ParseError",
    "parse",
    "render_ascii",
    "render_dot",
    "serialize",
]


# ASCII digits only: str.isdigit and int() also take other scripts' digits.
COUNT_RE = re.compile(r"[0-9]+\Z")


class ParseError(ProfileError):
    """A document could not be parsed; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class BadHeader(ParseError):
    pass


class DuplicateVertex(ParseError):
    pass


class DuplicateIl(ParseError):
    pass


class MissingIl(ParseError):
    pass


class MalformedLine(ParseError):
    pass


def parse(text: bytes | str) -> RkProfile:
    """Parse a document into a profile.  Admissibility is not checked here."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedLine("document is not valid UTF-8") from exc
    profile = _read_plain(text)
    return _read_lines(text) if profile is None else profile


_NAME = f"{NAME_CHAR}+"
# Each match is one whole statement line, from the LF before it; no line matches two.
_VERTEX_RE = re.compile(rf"\nvertex ({_NAME})(?=\n)")
_LE_RE = re.compile(rf"\nle ({_NAME}) ({_NAME})(?=\n)")
_IL_RE = re.compile(rf"\nil ({_NAME}) ([0-9]+)(?=\n)")


def _read_plain(text: str) -> RkProfile | None:
    """The profile of a fault-free document in the plain layout, else None.

    One regular expression per statement kind reads whole lines in any order,
    and the layout is plain when they match every line after the header.  Any
    fault gives None, and _read_lines reads the document again to name it.
    """
    if not (text.startswith("rkp 1\n") and text.endswith("\n")):
        return None
    names = _VERTEX_RE.findall(text)
    if len(names) > MAX_VERTICES:
        return None
    les, ils = _LE_RE.findall(text), _IL_RE.findall(text)
    if 1 + len(names) + len(les) + len(ils) != text.count("\n"):
        return None
    names.sort()
    vertex = {v: i for i, v in enumerate(names)}
    if len(vertex) < len(names):  # a duplicate vertex
        return None
    succ: list[list[int]] = [[] for _ in names]
    try:
        for a, b in les:
            succ[vertex[a]].append(vertex[b])
        ils = [(vertex[name], int(count)) for name, count in ils]
    except (KeyError, ValueError):  # an undeclared name, or a count past the digit limit
        return None
    del les  # its strings, two per le line, are not needed while the closure is built
    index = core._closure_index(succ)
    if len(ils) != len(index.masks):
        return None
    position = index.position
    limit_counts: list[int | None] = [None] * len(ils)
    for i, count in ils:
        limit_counts[position[i]] = count
    if None in limit_counts:  # one class given two counts, so another given none
        return None
    return _profile(_closed_preorder(names, index), tuple(limit_counts))


def _read_lines(text: str) -> RkProfile:
    """Parse a decoded document line by line, raising the first of its faults."""
    header_seen = False
    vertices: dict[str, int] = {}  # name -> line of its vertex statement
    les: list[tuple[str, str, int]] = []
    ils: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not toks:
            continue
        if not header_seen:
            if toks != ["rkp", "1"]:
                raise BadHeader(f'expected "rkp 1", got {" ".join(toks)!r}', line=lineno)
            header_seen = True
            continue
        kw = toks[0]
        # A declared vertex's name has matched NAME_RE already.
        if kw == "le":
            if len(toks) != 3 or not (
                (toks[1] in vertices or NAME_RE.match(toks[1]))
                and (toks[2] in vertices or NAME_RE.match(toks[2]))
            ):
                raise MalformedLine("expected: le NAME NAME", line=lineno)
            les.append((toks[1], toks[2], lineno))
        elif kw == "vertex":
            if len(toks) != 2 or not NAME_RE.match(toks[1]):
                raise MalformedLine("expected: vertex NAME", line=lineno)
            if toks[1] in vertices:
                raise DuplicateVertex(
                    f"vertex {toks[1]!r} already declared on line {vertices[toks[1]]}",
                    line=lineno,
                )
            vertices[toks[1]] = lineno
            if len(vertices) > MAX_VERTICES:
                raise TooManyVertices(f"line {lineno}: more than {MAX_VERTICES} vertices")
        elif kw == "il":
            if (
                len(toks) != 3
                or not (toks[1] in vertices or NAME_RE.match(toks[1]))
                or not COUNT_RE.match(toks[2])
            ):
                raise MalformedLine("expected: il NAME COUNT", line=lineno)
            try:
                count = int(toks[2])
            except ValueError:  # beyond the interpreter's limit on digits
                raise MalformedLine("limit count has too many digits", line=lineno) from None
            ils.append((toks[1], count, lineno))
        else:
            raise MalformedLine(f"unknown statement {kw!r}", line=lineno)
    if not header_seen:
        raise BadHeader('expected "rkp 1" header in empty document')

    # Undeclared names in statement order: every le pair, then the il lines.
    names = sorted(vertices)
    vertex = {v: i for i, v in enumerate(names)}
    succ: list[list[int]] = [[] for _ in names]
    for a, b, lineno in les:
        ia = vertex.get(a, -1)
        ib = vertex.get(b, -1)
        if ia < 0 or ib < 0:
            raise UnknownVertex(f"line {lineno}: undeclared vertex {a if ia < 0 else b!r}")
        succ[ia].append(ib)
    labels = [vertex.get(name, -1) for name, _, _ in ils]
    if -1 in labels:
        name, _, lineno = ils[labels.index(-1)]
        raise UnknownVertex(f"line {lineno}: undeclared vertex {name!r}")

    index = core._closure_index(succ)
    claim = [0] * len(index.masks)  # per class position, the line of its il; 0 for none yet
    limit_counts = [0] * len(claim)
    for i, (_, count, lineno) in zip(labels, ils):
        p = index.position[i]
        if claim[p]:
            raise DuplicateIl(
                f"class of {names[i]!r} already has a limit count (line {claim[p]})", line=lineno
            )
        claim[p] = lineno
        limit_counts[p] = count
    if 0 in claim:
        missing = names[_least(index.masks[claim.index(0)])]
        raise MissingIl(f"no il declaration for the class of {missing!r}")
    return _profile(_closed_preorder(names, index), tuple(limit_counts))


def serialize(profile: RkProfile) -> bytes:
    """Deterministic canonical document for a valid profile."""
    _require_admissible(profile)
    names = profile.order.names
    index = profile.order._classes
    members = [[names[j] for j in _bits(m)] for m in index.masks]
    reps = [ms[0] for ms in members]
    covers = _cover_pairs(index.covers)
    return _format.head(names, members) + _format.tail(reps, profile.limit_counts, covers)


def render_dot(profile: RkProfile) -> bytes:
    """Directed-graph document: one node per class, one edge per Hasse cover, bottom to top."""
    _require_admissible(profile)
    q = quotient(profile)
    lines = ["digraph rk {", "  rankdir=BT;"]
    for c in q.classes:
        lines.append(
            f'  "{c.representative}" '
            f'[label="{c.representative} | size={c.size} | IL={c.limit_count}"];'
        )
    for a, b in q.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_ascii(profile: RkProfile) -> bytes:
    """Leveled drawing by longest-chain depth from the least class, bottom line last."""
    _require_admissible(profile)
    q = quotient(profile)
    # Bottom up, a class's depth is final before it passes it on to its covers.
    depth = [0] * len(q.classes)
    for a in q._linear_extension():
        for b in _bits(q.upper_covers[a]):
            depth[b] = max(depth[b], depth[a] + 1)
    levels: dict[int, list[ClassSummary]] = {}
    for c, d in zip(q.classes, depth):
        levels.setdefault(d, []).append(c)
    lines = [
        " ".join(f"{c.representative}({c.size},{c.limit_count})" for c in levels[d])
        for d in sorted(levels, reverse=True)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
