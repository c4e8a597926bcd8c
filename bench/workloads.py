"""Seeded inputs, ops and output checks of the three benchmark workloads.

`build(name, seed, workdir, run)` writes the input files into `workdir` and
returns the ops.  `run` is `rkdist.cli.run`; generation goes through the
command line (catalog show, product) just as a user would make the files.
The seed only picks among inputs of equal cost (factors of one structural
group, factor order, vertex names, statement order, op order), so every
seed asks the program for the same amount of work.  Checks compare against
`reference`, never against rkdist.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

NAMES = ("enumerate", "product_report", "iso")


@dataclass(frozen=True)
class Result:
    out: bytes
    err: bytes
    code: int
    file: bytes | None = None  # what the op wrote to its -o path


@dataclass
class Op:
    argv: list[str]
    check: Callable[[Result], str | None]  # None when the output is right
    out_path: Path | None = None


@dataclass
class Workload:
    ops: list[Op]  # checked in this order; run in `order`
    warmup: list[list[str]]  # run once during set-up, not timed
    top_enumerate: int | None = None  # index of `enumerate --total 9`
    inputs: list[Path] = field(default_factory=list)  # every file generated
    order: list[int] = field(default_factory=list)


def build(name: str, seed: int, workdir: Path, run) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "enumerate":
        wl = _enumerate()
    elif name == "product_report":
        wl = _product_report(rng, workdir, run)
    elif name == "iso":
        wl = _iso(rng, workdir, run)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.order = list(range(len(wl.ops)))
    rng.shuffle(wl.order)
    return wl


def _cli(run, argv: list[str]) -> None:
    _, err, code = run(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv} exited {code}: {err.decode(errors='replace')}")


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise ref.Mismatch(why)


def _guard(check: Callable[[Result], None]) -> Callable[[Result], str | None]:
    def wrapped(r: Result) -> str | None:
        try:
            check(r)
        except (ValueError, IndexError, KeyError) as exc:  # ref.Mismatch is a ValueError
            return f"{type(exc).__name__}: {exc}"
        return None

    return wrapped


def _clean(r: Result, code: int = 0) -> None:
    _expect(r.code == code, f"exit code {r.code}, expected {code}")
    _expect(r.err == b"", f"stderr {r.err[:200]!r}")


# ---------------------------------------------------------------- enumerate

TOP_TOTAL = 9


def _enumerate() -> Workload:
    """The sweep t = 2..9, plus --max-vertices cuts of it so that a round has
    enough distinct ops for a tail latency.  Cuts above six vertices are left
    out, because for t = 8 and 9 they cost nearly as much as the full total.
    The warm-up is the top total, so that every per-k cache of the
    enumerator is built during set-up, not in the timed rounds."""
    full_docs: dict[int, list[tuple[bytes, int]]] = {}  # (document, vertex count)
    ops = [Op(["enumerate", "--total", str(t)], _guard(_enum_full(t, full_docs))) for t in range(2, TOP_TOTAL + 1)]
    for t in range(3, TOP_TOTAL + 1):
        for m in range(2, min(t - 1, 6) + 1):
            argv = ["enumerate", "--total", str(t), "--max-vertices", str(m)]
            ops.append(Op(argv, _guard(_enum_cut(t, m, full_docs))))
    return Workload(ops, [ops[TOP_TOTAL - 2].argv], top_enumerate=TOP_TOTAL - 2)


def _enum_docs(r: Result, total: int) -> list[tuple[bytes, int]]:
    _clean(r)
    head, _, body = r.out.partition(b"\n")
    count = int(head)
    docs = body.split(b"---\n") if body else []
    _expect(len(docs) == count, f"count line says {count}, found {len(docs)} documents")
    parsed = []
    for d in docs:
        st = ref.structure(ref.parse(d))
        _expect(st.admissible(), f"inadmissible document {d[:80]!r}")
        _expect(st.total == total, f"document has total {st.total}, expected {total}")
        parsed.append((d, st.vertices))
    _expect(all(a[0] < b[0] for a, b in zip(parsed, parsed[1:])), "documents are not strictly sorted")
    return parsed


def _enum_full(total: int, full_docs: dict[int, list[tuple[bytes, int]]]):
    def check(r: Result) -> None:
        parsed = _enum_docs(r, total)
        _expect(len(parsed) == ref.ENUMERATION_COUNTS[total], f"{len(parsed)} profiles, expected {ref.ENUMERATION_COUNTS[total]}")
        full_docs[total] = parsed

    return check


def _enum_cut(total: int, max_vertices: int, full_docs: dict[int, list[tuple[bytes, int]]]):
    def check(r: Result) -> None:
        got = [d for d, _ in _enum_docs(r, total)]
        _expect(total in full_docs, f"no checked output of --total {total} to compare with")
        want = [d for d, vertices in full_docs[total] if vertices <= max_vertices]
        _expect(got == want, f"not the profiles of --total {total} with at most {max_vertices} vertices")

    return check


# ----------------------------------------------------------- product_report

# Factors in one group share their preorder and differ only in limit counts.
GROUPS = {
    "C2": ("fig1a", "fig1b.1", "fig2.1"),
    "C3": ("fig1b.3", "fig2.2", "fig2.3"),
    "L2": ("fig1b.2", "fig2.5"),
}

# 16 to 288 vertices; between them they use every base entry.
SHAPES = (
    ("C2", "C2", "C2", "C2"),
    ("fig2.8", "fig2.6"),
    ("C3", "C3", "C2"),
    ("L2", "C2", "fig2.7"),
    ("C3", "C3", "C3"),
    ("C2", "C2", "C2", "C2", "C2"),
    ("fig2.4", "fig2.8", "C2"),
    ("C3", "L2", "C2", "C2"),
    ("fig2.8", "fig2.8", "C3"),
    ("C2", "C2", "C2", "C3", "L2"),
    ("C3", "C3", "C3", "C3"),
    ("fig2.7", "fig2.6", "L2", "C2"),
    ("fig2.4", "C3", "L2", "C2", "C2"),
    ("C3", "C3", "C3", "C3", "C3"),
    ("fig2.8", "fig2.4", "C3", "C3", "C2"),
)


def _base_files(names, workdir: Path, run) -> dict[str, Path]:
    files = {}
    for name in sorted(set(names)):
        path = workdir / f"{name}.rkp"
        _cli(run, ["catalog", "show", name, "-o", str(path)])
        files[name] = path
    return files


def _product_report(rng: random.Random, workdir: Path, run) -> Workload:
    products = []
    for shape in SHAPES:
        names = [rng.choice(GROUPS[s]) if s in GROUPS else s for s in shape]
        rng.shuffle(names)
        products.append(tuple(names))
    files = _base_files([n for p in products for n in p], workdir, run)
    ops: list[Op] = []
    inputs = list(files.values())
    for k, names in enumerate(products):
        pr = ref.ProductRef(names)
        factor_files = [str(files[n]) for n in names]
        path = workdir / f"p{k:02d}.rkp"
        _cli(run, ["product", *factor_files, "-o", str(path)])
        inputs.append(path)
        out_path = workdir / f"p{k:02d}.out.rkp"
        p = str(path)
        ops += [
            Op(["product", *factor_files, "-o", str(out_path)], _guard(_check_product(pr)), out_path),
            Op(["report", p], _guard(_check_report(pr))),
            Op(["validate", p], _guard(_check_validate)),
            Op(["render", p, "--format", "dot"], _guard(_check_dot(pr))),
            Op(["render", p, "--format", "ascii"], _guard(_check_ascii(pr))),
            Op(["check", p, "--lattice"], _guard(_check_lattice)),
            Op(["check", p, "--monotone"], _guard(_check_monotone(pr))),
        ]
    smallest = min(range(len(products)), key=lambda k: ref.ProductRef(products[k]).vertices)
    warmup = [op.argv[:-1] + [str(workdir / "warmup.rkp")] if op.out_path else op.argv for op in ops[7 * smallest : 7 * smallest + 7]]
    return Workload(ops, warmup, inputs=inputs)


def _check_product(pr: ref.ProductRef):
    def check(r: Result) -> None:
        _clean(r)
        _expect(r.out == b"", "product with -o wrote to stdout")
        _expect(r.file is not None, "no output file")
        st = ref.structure(ref.parse(r.file))
        _expect(st.vertices == pr.vertices, f"{st.vertices} vertices, expected {pr.vertices}")
        _expect(st.labels() == pr.labels(), "class sizes and limit counts differ from the product formula")
        _expect(len(st.below) == pr.comparable_pairs, "class order is not the coordinatewise order")
        _expect(st.admissible(), "product is not admissible")

    return check


def _check_report(pr: ref.ProductRef):
    def check(r: Result) -> None:
        _clean(r)
        lines = r.out.decode("utf-8").splitlines()
        limit = pr.total - pr.vertices
        _expect(lines[0] == f"{pr.total} = {pr.vertices} + {limit}", f"equation {lines[0]!r}")
        rows = [re.fullmatch(r"class \S+ size (\d+) il (\d+)", ln) for ln in lines[1:]]
        _expect(all(rows), "malformed class line")
        _expect(sorted((int(m[1]), int(m[2])) for m in rows) == pr.labels(), "class lines differ from the product formula")

    return check


def _check_validate(r: Result) -> None:
    _clean(r)
    lines = r.out.decode("utf-8").splitlines()
    _expect([ln.split()[:2] for ln in lines] == [[f"V{i}", "pass"] for i in range(1, 7)], f"validate said {lines}")


def _check_dot(pr: ref.ProductRef):
    def check(r: Result) -> None:
        _clean(r)
        text = r.out.decode("utf-8")
        _expect(text.startswith("digraph rk {\n") and text.endswith("}\n"), "not a digraph document")
        labels = sorted((int(a), int(b)) for a, b in re.findall(r"size=(\d+) \| IL=(\d+)", text))
        _expect(labels == pr.labels(), "node labels differ from the product formula")
        _expect(text.count(" -> ") == pr.covers, f"{text.count(' -> ')} edges, expected {pr.covers} covers")

    return check


def _check_ascii(pr: ref.ProductRef):
    def check(r: Result) -> None:
        _clean(r)
        lines = r.out.decode("utf-8").splitlines()
        _expect(len(lines) == pr.height + 1, f"{len(lines)} levels, expected {pr.height + 1}")
        labels = sorted((int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", r.out.decode("utf-8")))
        _expect(labels == pr.labels(), "drawn classes differ from the product formula")

    return check


def _check_lattice(r: Result) -> None:
    # every base quotient is a lattice, and so is any product of lattices
    _clean(r)
    _expect(r.out == b"true\n", f"check --lattice said {r.out!r}")


def _check_monotone(pr: ref.ProductRef):
    def check(r: Result) -> None:
        _clean(r)
        size, limit = pr.monotonicity()
        _expect(r.out == f"size={size} limit={limit}\n".encode(), f"check --monotone said {r.out!r}")

    return check


# ---------------------------------------------------------------------- iso

# Products of 32 to 128 vertices; |Aut| of the quotient in the comment.
POOL = (
    ("fig1a",) * 6,  # 720
    ("fig1a",) * 5,  # 120
    ("fig1a",) * 3 + ("fig1b.1",) * 2 + ("fig2.1",) * 2,  # 24, 128 vertices
    ("fig2.8",) * 3,  # 48
    ("fig1b.3",) * 4,  # 24
    ("fig1a", "fig1b.1", "fig2.1", "fig1b.2", "fig2.5"),  # 1
    ("fig1b.3", "fig1b.3", "fig2.2", "fig1a"),  # 2
    ("fig1a",) * 4 + ("fig1b.2",),  # 24
    ("fig2.8", "fig2.8", "fig1a", "fig1a"),  # 16
    ("fig2.2", "fig2.2", "fig2.3", "fig2.3"),  # 4
    ("fig2.6", "fig1a", "fig1a", "fig1a"),  # 6
    ("fig2.7", "fig2.4", "fig1b.2", "fig1a"),  # 1
)

WARMUP_ENTRY = 10  # the smallest, cheapest pool entry

# Pool index and the factor swap that makes a non-isomorphic partner.  The
# first four keep the total and the class count, the first three also the
# vertex count.
NON_ISO = (
    (6, "fig2.2", "fig2.3"),
    (9, "fig2.3", "fig2.2"),
    (3, "fig2.8", "fig2.4"),
    (7, "fig1b.2", "fig1b.1"),
    (2, "fig2.1", "fig1b.2"),
    (1, "fig1a", "fig1b.1"),
)


def _swap(names: tuple[str, ...], old: str, new: str) -> tuple[str, ...]:
    i = names.index(old)
    return names[:i] + (new,) + names[i + 1 :]


def _iso(rng: random.Random, workdir: Path, run) -> Workload:
    partners = [_swap(POOL[k], old, new) for k, old, new in NON_ISO]
    files = _base_files([n for p in POOL + tuple(partners) for n in p], workdir, run)
    inputs = list(files.values())
    serial = itertools.count()

    def make(names: tuple[str, ...]) -> tuple[Path, list[str]]:
        """The program's product in a seeded factor order, and a relabelled copy."""
        order = list(names)
        rng.shuffle(order)
        path = workdir / f"q{next(serial):02d}.rkp"
        _cli(run, ["product", *(str(files[n]) for n in order), "-o", str(path)])
        copy = path.with_suffix(".relabel.rkp")
        copy.write_bytes(ref.relabel(ref.parse(path.read_bytes()), rng, rng.choice("uvwxyz")))
        inputs.extend((path, copy))
        return path, [str(files[n]) for n in order]

    ops: list[Op] = []
    warmup: list[list[str]] = []
    made = [make(names) for names in POOL]
    for k, (path, factor_files) in enumerate(made):
        copy = str(path.with_suffix(".relabel.rkp"))
        ops.append(Op(["iso", str(path), copy], _guard(_check_iso(True))))
        if k:  # the 720-automorphism product runs once per round, not three times
            other, _ = make(POOL[k])
            ops.append(Op(["iso", copy, str(other.with_suffix(".relabel.rkp"))], _guard(_check_iso(True))))
            argv = ["report", copy]
            for f in factor_files:
                argv += ["--factor", f]
            ops.append(Op(argv, _guard(_check_factored(ref.ProductRef(POOL[k]), factor_files, files))))
        if k == WARMUP_ENTRY:
            warmup += [ops[-3].argv, ops[-1].argv]
    for (k, _, _), names in zip(NON_ISO, partners):
        a, b = ref.ProductRef(POOL[k]), ref.ProductRef(names)
        if a.invariants() == b.invariants():
            raise AssertionError(f"pool entry {k} and its partner are not provably non-isomorphic")
        other, _ = make(names)
        ops.append(
            Op(
                ["iso", str(made[k][0].with_suffix(".relabel.rkp")), str(other.with_suffix(".relabel.rkp"))],
                _guard(_check_iso(False)),
            )
        )
    return Workload(ops, warmup, inputs=inputs)


def _check_iso(same: bool):
    def check(r: Result) -> None:
        _clean(r, 0 if same else 1)
        _expect(r.out == (b"isomorphic\n" if same else b"not isomorphic\n"), f"iso said {r.out!r}")

    return check


def _check_factored(pr: ref.ProductRef, factor_files: list[str], files: dict[str, Path]):
    by_path = {str(p): n for n, p in files.items()}
    given = [ref.BASE[by_path[f]] for f in factor_files]

    def check(r: Result) -> None:
        _clean(r)
        lines = r.out.decode("utf-8").splitlines()
        totals = "·".join(str(f.total) for f in given)
        primes = "·".join(str(f.vertices) for f in given)
        limits = "+".join(str(il) for il in sorted(il for _, il in pr.labels()))
        want = f"{totals}={pr.vertices}+{pr.total - pr.vertices}={primes}+({limits})"
        _expect(lines[0] == want, f"equation {lines[0][:120]!r}")
        rows = [re.fullmatch(r"term \S+ size (\d+) il (\d+)", ln) for ln in lines[1:]]
        _expect(all(rows), "malformed term line")
        _expect(sorted((int(m[1]), int(m[2])) for m in rows) == pr.labels(), "terms differ from the product formula")

    return check
