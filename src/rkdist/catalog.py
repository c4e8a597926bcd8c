"""Named profile constructors: the figure variants and the parametric families.

The twelve base entries (fig1a, fig1b.1-.3, fig2.1-.8) are the regression
corpus; diamond4 is an alias for the four-class diamond, and the param.*
entries take positive integer parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import ProfileError, RkProfile, make_profile
from .product import pareto_product

__all__ = [
    "AdmissibilityViolation",
    "CatalogError",
    "CatalogEntry",
    "MissingParameter",
    "UnknownEntry",
    "UnknownParameter",
    "BASE_NAMES",
    "chain_profile",
    "entries",
    "get",
    "least_plus_class",
]


class CatalogError(ProfileError):
    """Base class for catalog lookup errors."""


class UnknownEntry(CatalogError):
    """No catalog entry with that name."""


class MissingParameter(CatalogError):
    """A required parameter was not supplied."""


class UnknownParameter(CatalogError):
    """A parameter name the entry does not take."""


class AdmissibilityViolation(ProfileError):
    """The requested construction would break one of the conditions V1-V5."""


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _names(n: int) -> list[str]:
    if n <= len(_LETTERS):
        return list(_LETTERS[:n])
    return [f"v{i:02d}" for i in range(n)]


def _check_count(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise AdmissibilityViolation(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def chain_profile(limit_counts: list[int]) -> RkProfile:
    """Linear order of singleton classes with the given limit counts, bottom to top."""
    levels = [
        _check_count(c, f"limit count at level {i}") for i, c in enumerate(limit_counts)
    ]
    if not levels:
        raise AdmissibilityViolation("a chain needs at least one level")
    if levels[0] != 0:
        raise AdmissibilityViolation("the bottom level must have limit count 0")
    if len(levels) > 1 and levels[-1] < 1:
        raise AdmissibilityViolation("the top level must have a positive limit count")
    names = _names(len(levels))
    pairs = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return make_profile(names, pairs, dict(zip(names, levels)))


def least_plus_class(class_size: int, class_limit: int) -> RkProfile:
    """A least singleton below one class of mutually dominated vertices."""
    if not isinstance(class_size, int) or isinstance(class_size, bool) or class_size < 2:
        raise AdmissibilityViolation(f"class size must be an integer >= 2, got {class_size!r}")
    if not isinstance(class_limit, int) or isinstance(class_limit, bool) or class_limit < 1:
        raise AdmissibilityViolation(f"class limit must be an integer >= 1, got {class_limit!r}")
    names = _names(class_size + 1)
    least, members = names[0], names[1:]
    pairs = [(least, members[0])]
    pairs += [(members[i], members[(i + 1) % len(members)]) for i in range(len(members))]
    return make_profile(names, pairs, {least: 0, members[0]: class_limit})


def _stacked_two_class() -> RkProfile:
    # singleton, singleton, then a 2-element top class (limit counts 0, 0, 1)
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "c")]
    return make_profile("abcd", pairs, {"a": 0, "b": 0, "c": 1})


def _diamond4() -> RkProfile:
    # four singleton classes in a diamond (limit counts 0, 0, 0, 1)
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return make_profile("abcd", pairs, {"a": 0, "b": 0, "c": 0, "d": 1})


def _ex11(k: int, m: int) -> RkProfile:
    return pareto_product(least_plus_class(2, k), chain_profile([0, m]))


def _ex12(k: int, m: int) -> RkProfile:
    return pareto_product(least_plus_class(2, k), least_plus_class(2, m))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple[str, ...]
    description: str
    build: Callable[..., RkProfile]


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry("fig1a", (), "2-chain, limit counts 0,1 (total 3)", lambda: chain_profile([0, 1])),
    CatalogEntry("fig1b.1", (), "2-chain, limit counts 0,2 (total 4)", lambda: chain_profile([0, 2])),
    CatalogEntry(
        "fig1b.2", (), "least vertex below a 2-class with limit count 1 (total 4)",
        lambda: least_plus_class(2, 1),
    ),
    CatalogEntry("fig1b.3", (), "3-chain, limit counts 0,0,1 (total 4)", lambda: chain_profile([0, 0, 1])),
    CatalogEntry("fig2.1", (), "2-chain, limit counts 0,3 (total 5)", lambda: chain_profile([0, 3])),
    CatalogEntry("fig2.2", (), "3-chain, limit counts 0,1,1 (total 5)", lambda: chain_profile([0, 1, 1])),
    CatalogEntry("fig2.3", (), "3-chain, limit counts 0,0,2 (total 5)", lambda: chain_profile([0, 0, 2])),
    CatalogEntry("fig2.4", (), "4-chain, limit counts 0,0,0,1 (total 5)", lambda: chain_profile([0, 0, 0, 1])),
    CatalogEntry(
        "fig2.5", (), "least vertex below a 2-class with limit count 2 (total 5)",
        lambda: least_plus_class(2, 2),
    ),
    CatalogEntry(
        "fig2.6", (), "least vertex below a 3-class with limit count 1 (total 5)",
        lambda: least_plus_class(3, 1),
    ),
    CatalogEntry(
        "fig2.7", (), "two singletons below a 2-class with limit count 1 (total 5)",
        _stacked_two_class,
    ),
    CatalogEntry(
        "fig2.8", (), "diamond of four singleton classes, limit counts 0,0,0,1 (total 5)",
        _diamond4,
    ),
    CatalogEntry("diamond4", (), "alias of fig2.8", _diamond4),
    CatalogEntry("param.chain2", ("k",), "2-chain with k limit models on top", lambda k: chain_profile([0, k])),
    CatalogEntry("param.chain3end", ("k",), "3-chain with k limit models on top", lambda k: chain_profile([0, 0, k])),
    CatalogEntry(
        "param.ex11", ("k", "m"),
        "union of a least-plus-2-class(k) with a 2-chain(m); total (k+3)(m+2)",
        _ex11,
    ),
    CatalogEntry(
        "param.ex12", ("k", "m"),
        "union of least-plus-2-class(k) with least-plus-2-class(m); total (k+3)(m+3)",
        _ex12,
    ),
)

BASE_NAMES: tuple[str, ...] = (
    "fig1a", "fig1b.1", "fig1b.2", "fig1b.3",
    "fig2.1", "fig2.2", "fig2.3", "fig2.4", "fig2.5", "fig2.6", "fig2.7", "fig2.8",
)


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def get(name: str, parameters: Mapping[str, int] | None = None) -> RkProfile:
    """Build the named profile; parametric entries need their k/m values."""
    entry = next((e for e in _ENTRIES if e.name == name), None)
    if entry is None:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    params = dict(parameters or {})
    missing = [p for p in entry.parameters if p not in params]
    if missing:
        raise MissingParameter(f"{name} requires parameter {missing[0]!r}")
    extra = sorted(set(params) - set(entry.parameters))
    if extra:
        raise UnknownParameter(f"{name} does not take parameter {extra[0]!r}")
    for p in entry.parameters:
        v = params[p]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise AdmissibilityViolation(
                f"parameter {p}={v!r} must be a positive integer"
            )
    return entry.build(**{p: params[p] for p in entry.parameters})
