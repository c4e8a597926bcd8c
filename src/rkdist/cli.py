"""Command-line front end.

Exit codes: 0 success, 1 a validation or check failed, 2 usage, file, parse
and other library errors.  All output is deterministic given the arguments
and file contents.

A command is parsed once, by its own parser; only an argv that names no
command, or leaves words over, goes through the top-level parser, which
keeps its usage and wording.  `run` writes usage, help and error messages
into its own buffers and leaves `sys.stdout` and `sys.stderr` alone, so
runs may go on in several threads at once.  An argument that is not UTF-8
comes back as its bytes in error messages.
"""

from __future__ import annotations

import argparse
import contextvars
import enum
import functools
import io as _io
import itertools
import re
import sys
from collections.abc import Callable

from . import catalog, enumeration, io, product
from .core import (
    InvalidProfile,
    ProfileError,
    RkProfile,
    _require_admissible,
    counts,
    is_isomorphic,
    validate_profile,
)

__all__ = ["ExitStatus", "main", "run"]


# ASCII only: int() also takes other scripts' digits, "_" and "+".
INTEGER_RE = re.compile(r"-?[0-9]+\Z")

# The most model-token pairs `oracle` may enumerate, the product of the
# factors' totals; README gives the measured cost.
ORACLE_BUDGET = 1000


class ExitStatus(enum.IntEnum):
    OK = 0
    CHECK_FAILED = 1
    USAGE = 2


class _Usage(Exception):
    """Wraps errors that should exit with the usage status."""


def _load(path: str, stdin: Callable[[], bytes]) -> RkProfile:
    if path == "-":
        return io.parse(stdin())
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # open() refuses a path with a NUL byte
        raise _Usage(f"cannot read {path}: {exc}") from exc
    return io.parse(data)


def _write_out(data: bytes, dest: str | None, out) -> None:
    if dest is None or dest == "-":
        out.write(data)
        return
    try:
        with open(dest, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _Usage(f"cannot write {dest}: {exc.strerror}") from exc
    except ValueError as exc:  # open() refuses a path with a NUL byte
        raise _Usage(f"cannot write {dest}: {exc}") from exc


def _emit(out, text: str) -> None:
    # An argument that is not UTF-8 arrives with lone surrogates; write its bytes back.
    out.write((text + "\n").encode("utf-8", "surrogateescape"))


def _equation(report) -> str:
    return f"{report.total} = {report.prime_count} + {report.limit_count}"


def _cmd_validate(args, stdin, out, err) -> int:
    report = validate_profile(_load(args.file, stdin))
    for c in report.conditions:
        suffix = " (informational)" if c.informational else ""
        _emit(out, f"{c.code} {'pass' if c.passed else 'fail'} {c.detail}{suffix}")
    return ExitStatus.OK if report.admissible else ExitStatus.CHECK_FAILED


def _cmd_report(args, stdin, out, err) -> int:
    profile = _load(args.file, stdin)
    if not args.factor:
        report = counts(profile)
        _emit(out, _equation(report))
        for c in report.classes:
            _emit(out, f"class {c.representative} size {c.size} il {c.limit_count}")
        return ExitStatus.OK
    factors = [_load(f, stdin) for f in args.factor]
    dec = product.decomposition(profile, factors)
    totals = "·".join(str(r.total) for r in dec.factor_reports)
    primes = "·".join(str(r.prime_count) for r in dec.factor_reports)
    limits = "+".join(str(v) for v in sorted(row[2] for row in dec.term_table))
    _emit(
        out,
        f"{totals}={dec.product_report.prime_count}+{dec.product_report.limit_count}"
        f"={primes}+({limits})",
    )
    for reps, size, lim in dec.term_table:
        _emit(out, f"term {','.join(reps)} size {size} il {lim}")
    return ExitStatus.OK


def _cmd_product(args, stdin, out, err) -> int:
    factors = [_load(f, stdin) for f in args.files]
    _write_out(io.serialize(product.product_many(factors)), args.output, out)
    return ExitStatus.OK


def _cmd_oracle(args, stdin, out, err) -> int:
    a = _load(args.file_a, stdin)
    b = _load(args.file_b, stdin)
    if counts(a).total * counts(b).total > ORACLE_BUDGET:
        raise _Usage(
            f"the factors' totals multiply to more than {ORACLE_BUDGET}, the oracle's budget"
        )
    pareto = product.pareto_product(a, b)
    oracle = product.oracle_product(a, b)
    _emit(out, f"pareto {_equation(counts(pareto))}")
    _emit(out, f"oracle {_equation(counts(oracle))}")
    same = is_isomorphic(pareto, oracle)
    _emit(out, "isomorphic" if same else "not isomorphic")
    return ExitStatus.OK if same else ExitStatus.CHECK_FAILED


def _cmd_render(args, stdin, out, err) -> int:
    profile = _load(args.file, stdin)
    render = io.render_dot if args.format == "dot" else io.render_ascii
    out.write(render(profile))
    return ExitStatus.OK


def _cmd_catalog(args, stdin, out, err) -> int:
    if args.catalog_cmd == "list":
        for entry in catalog.entries():
            params = (" " + " ".join(entry.parameters)) if entry.parameters else ""
            _emit(out, f"{entry.name}{params}")
        return ExitStatus.OK
    params: dict[str, int] = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep or not key or not INTEGER_RE.match(value):
            raise _Usage(f"bad --param {item!r}, expected NAME=INTEGER")
        if key in params:
            raise _Usage(f"--param {key} is given more than once")
        try:
            params[key] = int(value)
        except ValueError:  # beyond the interpreter's limit on digits
            raise _Usage(f"bad --param {key}=..., the integer has too many digits") from None
    profile = catalog.get(args.name, params)
    _write_out(io.serialize(profile), args.output, out)
    return ExitStatus.OK


def _cmd_enumerate(args, stdin, out, err) -> int:
    result = enumeration.enumerate_profiles(args.total, args.max_vertices)
    _emit(out, str(len(result.profiles)))
    framed = zip(itertools.repeat(b"---\n"), (cf.canonical_text for cf in result.profiles))
    out.writelines(itertools.islice(itertools.chain.from_iterable(framed), 1, None))
    return ExitStatus.OK


def _cmd_check(args, stdin, out, err) -> int:
    profile = _load(args.file, stdin)
    if args.monotone:
        size_flag, limit_flag = product.monotonicity(profile)
        _emit(out, f"size={size_flag} limit={limit_flag}")
        return ExitStatus.OK
    _require_admissible(profile)
    index = profile.order._classes
    if args.lattice:
        ok = product._is_lattice(index.down, index.up, index.covers)
    else:
        try:
            ok = product._is_boolean_lattice(index.down, index.up, index.covers)
        except product.NotALattice:
            _emit(err, "not a lattice")
            ok = False
    _emit(out, "true" if ok else "false")
    return ExitStatus.OK if ok else ExitStatus.CHECK_FAILED


def _cmd_iso(args, stdin, out, err) -> int:
    same = is_isomorphic(_load(args.file_a, stdin), _load(args.file_b, stdin))
    _emit(out, "isomorphic" if same else "not isomorphic")
    return ExitStatus.OK if same else ExitStatus.CHECK_FAILED


def _integer(text: str) -> int:
    if not INTEGER_RE.match(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's limit on digits
        raise argparse.ArgumentTypeError("the integer has too many digits") from None


def _nonnegative_integer(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


# The (stdout, stderr) buffers of the `run` call under way in this context.
_STREAMS: contextvars.ContextVar[tuple[_io.BytesIO, _io.BytesIO]] = contextvars.ContextVar(
    "rkdist_cli_streams"
)


class _Parser(argparse.ArgumentParser):
    """Writes usage, help and errors into the running `run`'s buffers, as `_emit` does.

    Outside `run` it writes where argparse does.
    """

    commands: dict[str, _Parser]  # the top-level parser's: each command's parser, by name

    def _print_message(self, message, file=None):
        streams = _STREAMS.get(None)
        if streams is None:
            super()._print_message(message, file)
        elif message:
            out, err = streams
            buffer = out if file is sys.stdout else err  # help to stdout, the rest to stderr
            buffer.write(message.encode("utf-8", "surrogateescape"))


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="rkdist",
        description="Countable-model distribution calculus over finite Rudin-Keisler preorders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("validate", help="check admissibility conditions V1-V6")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="decomposition counts (total = prime + limit)")
    p.add_argument("file")
    p.add_argument(
        "--factor",
        action="append",
        metavar="FILE",
        help="factor profile; repeat to print the factored decomposition",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("product", help="Pareto product of profiles")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("oracle", help="cross-check the product against token enumeration")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="draw the Hasse diagram")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "ascii"), required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("catalog", help="built-in profiles")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    c = csub.add_parser("list", help="list entry names")
    c.set_defaults(func=_cmd_catalog)
    c = csub.add_parser("show", help="serialize an entry")
    c.add_argument("name")
    c.add_argument("--param", action="append", metavar="NAME=VALUE")
    c.add_argument("-o", "--output", metavar="OUT")
    c.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("enumerate", help="all admissible profiles with a given total")
    p.add_argument("--total", type=_integer, required=True)
    p.add_argument("--max-vertices", type=_nonnegative_integer, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="lattice and monotonicity predicates")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", action="store_true")
    group.add_argument("--boolean", action="store_true")
    group.add_argument("--monotone", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("iso", help="test two profiles for isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_iso)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with its command's parser alone, when argv[0] names one.

    Any other argv, and one that leaves words over, goes through the
    top-level parser, so its usage and "unrecognized arguments" message
    stay as they are.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def run(argv: list[str], stdin: bytes | Callable[[], bytes] = b"") -> tuple[bytes, bytes, int]:
    """Run one command; returns (stdout, stderr, exit code).

    An input file "-" reads stdin: the bytes given, or those the callable
    returns, called once and only if a command loads "-".  The command is
    parsed once, by its own parser.  Usage, help and error messages go into
    the returned bytes, never through `sys.stdout` or `sys.stderr`, which
    stay as they are, so runs may go on in several threads at once.  An
    argument that is not UTF-8 (lone surrogates, as `sys.argv` holds it)
    comes back as its bytes.
    """
    read_stdin = functools.cache(stdin) if callable(stdin) else lambda: stdin
    out = _io.BytesIO()
    err = _io.BytesIO()
    code: int
    token = _STREAMS.set((out, err))
    try:
        args = _parse(argv)
        code = int(args.func(args, read_stdin, out, err))
    except SystemExit as exc:  # argparse usage errors and --help
        code = int(exc.code or 0)
    except (InvalidProfile, product.FactorMismatch) as exc:
        _emit(err, f"error: {exc}")
        code = ExitStatus.CHECK_FAILED
    except (_Usage, ProfileError) as exc:
        _emit(err, f"error: {exc}")
        code = ExitStatus.USAGE
    except ValueError as exc:
        # Counts add up and multiply in products past the interpreter's
        # limit on the digits str(int) writes; any other ValueError is a bug.
        if "integer string conversion" not in str(exc):
            raise
        out.seek(0)
        out.truncate()
        limit = sys.get_int_max_str_digits()
        _emit(err, f"error: a count has more than {limit} digits, too many to write")
        code = ExitStatus.USAGE
    finally:
        _STREAMS.reset(token)
    return out.getvalue(), err.getvalue(), code


def main() -> None:
    # "-o -" is stdout, so stdin is read only when a command loads "-".
    out, err, code = run(sys.argv[1:], lambda: sys.stdin.buffer.read())
    sys.stdout.buffer.write(out)
    sys.stderr.buffer.write(err)
    sys.exit(code)
