"""The two parse paths of the command line agree.

``rkdist.cli.run`` parses a command with that command's own parser and
sends only an argv that names no command, or that leaves words over,
through the top-level parser.  ``parse_both`` parses one argv both ways:
with ``cli._parse`` as ``run`` does, and with the top-level parser alone,
as ``run`` did before.  The two must give the same namespace, apart from
``command``, or exit with the same code and the same message bytes.

argparse's internals differ between Python versions, so the module needs
only the standard library and runs on interpreters without pytest:

    PYTHONPATH=src python tests/parse_paths.py   # compare on ARGVS; exit 1 on a mismatch
"""

import contextlib
import io
import sys

from rkdist import cli

FILE = "x.rkp"

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--"],
    ["--", "report", FILE],
    ["bogus"],
    ["-x", "report", FILE],
    ["report"],
    ["report", "-h"],
    ["report", "--he"],
    ["report", FILE],
    ["report", FILE, "extra"],
    ["report", FILE, "--factor", FILE, "--factor=y.rkp"],
    ["report", FILE, "--fact", FILE],
    ["report", "--", FILE],
    ["report", FILE, "--", "-h"],
    ["report", "2", "--\udcff"],
    ["report", "list", "a\udcffb"],
    ["iso", "x", "y", "z\udcff"],
    ["iso", FILE],
    ["validate", "a\x00b"],
    ["product", FILE, FILE, "-o", "-"],
    ["product", "-o", "out.rkp"],
    ["oracle", FILE, FILE, FILE],
    ["render", FILE, "--format", "dot"],
    ["render", FILE, "--form", "ascii"],
    ["render", FILE, "--format", "png"],
    ["render", FILE],
    ["catalog"],
    ["catalog", "list"],
    ["catalog", "list", "extra"],
    ["catalog", "show", "param.ex11", "--param", "k=2", "--param", "m=1", "-o", "-"],
    ["catalog", "show", "fig1a", "--x"],
    ["catalog", "bogus"],
    ["enumerate", "--total", "3"],
    ["enumerate", "--tot", "3", "--max-v", "2"],
    ["enumerate", "--total", "-1"],
    ["enumerate", "--total", "x"],
    ["enumerate", "--total", "1", "--max-vertices", "-1"],
    ["enumerate", "--total"],
    ["enumerate", "--", "--total", "3"],
    ["check", FILE, "--lattice"],
    ["check", FILE, "--lattice", "--boolean"],
    ["check", FILE],
    ["check", FILE, "--mono"],
]


def _outcome(parse):
    """parse() as (namespace minus command, None, b"", b"") or (None, code, stdout, stderr)."""
    out, err = io.BytesIO(), io.BytesIO()
    try:
        args = parse(out, err)
    except SystemExit as exc:
        return None, exc.code, out.getvalue(), err.getvalue()
    fields = {key: value for key, value in vars(args).items() if key != "command"}
    return fields, None, out.getvalue(), err.getvalue()


def _per_command(argv, out, err):
    token = cli._STREAMS.set((out, err))
    try:
        return cli._parse(argv)
    finally:
        cli._STREAMS.reset(token)


def _top_level(argv, out, err):
    out_text, err_text = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
            return cli._build_parser().parse_args(argv)
    finally:
        out.write(out_text.getvalue().encode("utf-8", "surrogateescape"))
        err.write(err_text.getvalue().encode("utf-8", "surrogateescape"))


def parse_both(argv):
    """(per-command outcome, top-level outcome) of parsing argv."""
    return (
        _outcome(lambda out, err: _per_command(argv, out, err)),
        _outcome(lambda out, err: _top_level(argv, out, err)),
    )


if __name__ == "__main__":
    mismatches = 0
    for argv in ARGVS:
        per_command, top_level = parse_both(argv)
        if per_command != top_level:
            mismatches += 1
            print(f"{argv!r}: mismatch\n  per command {per_command!r}\n  top level   {top_level!r}")
    agree = len(ARGVS) - mismatches
    print(f"Python {sys.version.split()[0]}: {agree} of {len(ARGVS)} argv lists agree")
    sys.exit(1 if mismatches else 0)
