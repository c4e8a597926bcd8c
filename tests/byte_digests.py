"""Byte-identity fence: sha256 digests of enumeration and catalog output.

The goldens pin only total 4, and the labelled-route tests compare the
enumerator with the library's own ``canonical_form``, so a writer change
that altered bytes on both sides would pass them.  These digests were taken
before the document writer stopped sorting its input, and the starred
products' digest before ``pareto_product`` stopped building cover masks,
the command digests before the plain reader dropped its layout regular
expression, the total-10 digests before the candidate loop took its
per-poset and per-k work out, and the total-11 digest before V1-V5 were
checked once per labelling; any change to the bytes of a document,
canonical or serialized, or to what a command prints about a product
document, fails here.
The module needs only the standard library, so it runs on interpreters
without pytest:

    PYTHONPATH=src python tests/byte_digests.py   # check every digest; exit 1 on a mismatch
    PYTHONPATH=src python tests/byte_digests.py --total-11   # and total 11 (about 3 s more)
"""

import argparse
import hashlib
import os
import sys
import tempfile

from rkdist import canonical_form, make_profile, pareto_product, serialize
from rkdist.catalog import BASE_NAMES, get
from rkdist.cli import run

TOTALS = range(2, 10)

# Per --max-vertices cut (None: uncapped), over `enumerate --total t` for t = 2..9.
ENUMERATE_DIGESTS = {
    None: "2a0f289b627909ba9015c34519549acf86cc21c1acb781f53672f8c8051309e9",
    2: "79efaae14e9e61952fa0f149a609ec05638995c23b61e2092e2a6cd34d965865",
    3: "5f8d9be47a92409ce231ab612dbdeee43371a77e1c5400f7f5b7714af91aaa8a",
    4: "b9dc1194141bec68a8b8800dc6ce7b388f7050c3ef34b2aa343760bd9e29e40f",
    5: "a8317b732af1d2f11b5bb73e37b187d4f895db7c0bba6a9612b05a879a2afa84",
    6: "4551bd326f892b52d16293eac20a5e19f9fa35a4412724e9d84ce87e9764ba18",
}

# Per --max-vertices cut, over `enumerate --total 10` alone: 2451 of its 7525
# candidates are uniform, one vertex per class and a limit count on the top alone.
TOTAL_10_DIGESTS = {
    None: "f2bf516411a4508db35d743d109f3e9f4f8741d9cbc30207b27740f5ab8ef506",
    5: "410bec2e182766c8002c1f6aeeca43df12344db9adddc344f42a2ce151456cb2",
}

# `enumerate --total 11` alone, uncapped: 53531 profiles.
TOTAL_11_DIGESTS = {
    None: "caaa9ca373aa3d84c6ee669eb09bdfdef5a5c3297cc7011dd586f00e5c9e9e7c",
}

# serialize then canonical_form of each base entry, of each ordered pair's
# product, and of each base entry times each starred factor, in both orders.
CATALOG_DIGESTS = {
    "base": "f3dbb72ee87a10a5e99dd60b33562e317e22bcf6e5827c976d7f3b35128d1e77",
    "products": "fc31082e6971f1fb141ea2a62aac341bf3f708026c728714ced892e673cd5aca",
    "starred": "9b40bc5f1bc00d7e07556c69e467049ba9efb3c3e80eb9166f1746612784cb37",
}

# Per command, its stdout, stderr and exit code on each ordered pair's
# product document, read from stdin; "A" and "B" stand for the factors' files.
COMMANDS = {
    "report": ["report", "-"],
    "report --factor": ["report", "-", "--factor", "A", "--factor", "B"],
    "render --format dot": ["render", "-", "--format", "dot"],
    "render --format ascii": ["render", "-", "--format", "ascii"],
    "validate": ["validate", "-"],
    "check --lattice": ["check", "-", "--lattice"],
    "check --monotone": ["check", "-", "--monotone"],
}

COMMAND_DIGESTS = {
    "report": "e9ee6681559160d6b2ebbf08f8c98396f25ae198b1e87ad935154acfd63e26f7",
    "report --factor": "165e28e5ef0d880f05e03f64f7626b393208716a6cb22f4f867f91946aece7b2",
    "render --format dot": "68e584c6d497da46772a878a86e75992dabe8b6d4082aca8d129f6ccb0c83fb9",
    "render --format ascii": "7c0d1f3a2a87825ca675fd718644ffc8e74d47163a3b298dec4247d631b5f7f3",
    "validate": "ed50896e7017335b57471fbc512940ce34491a05324141024f5a40a19e8bdf8e",
    "check --lattice": "b0234b64a35ef8ec13b37032ad8b3bddd82ca907ecd0f191dde052c2948b1e62",
    "check --monotone": "e27ce686a4ecec3d0a8a2d98cf5e0370b8d04fb3626dac775fb7b49037931ce2",
}

# Factors whose names break pair order on the left of a product: "s*0*a"
# sorts before "s*a", so the product renumbers all of its classes or, for
# the first, all but one.
STARRED = (
    make_profile(
        ["b", "b*a", "b*a*a", "b*a*a*a"],
        [("b", "b*a"), ("b*a", "b*a*a"), ("b*a*a", "b*a"), ("b*a*a", "b*a*a*a")],
        {"b": 0, "b*a": 1, "b*a*a*a": 1},
    ),
    make_profile(
        ["s", "s*0", "s*1", "s*2", "s*3"],
        [("s", "s*0"), ("s*0", "s*1"), ("s*1", "s*0"), ("s", "s*2")]
        + [("s*0", "s*3"), ("s*2", "s*3")],
        {"s": 0, "s*0": 1, "s*2": 0, "s*3": 1},
    ),
)


def enumerate_digest(max_vertices, totals=TOTALS):
    h = hashlib.sha256()
    for total in totals:
        argv = ["enumerate", "--total", str(total)]
        if max_vertices is not None:
            argv += ["--max-vertices", str(max_vertices)]
        out, err, code = run(argv)
        assert code == 0 and err == b""
        h.update(out)
    return h.hexdigest()


def total_10_digest(max_vertices):
    return enumerate_digest(max_vertices, [10])


def total_11_digest(max_vertices):
    return enumerate_digest(max_vertices, [11])


def catalog_digest(kind):
    base = [get(name) for name in BASE_NAMES]
    if kind == "base":
        profiles = base
    elif kind == "products":
        profiles = [pareto_product(a, b) for a in base for b in base]
    else:
        pairs = [(s, b) for s in STARRED for b in base]
        profiles = [p for s, b in pairs for p in (pareto_product(s, b), pareto_product(b, s))]
    h = hashlib.sha256()
    for profile in profiles:
        h.update(serialize(profile))
        h.update(canonical_form(profile).canonical_text)
    return h.hexdigest()


def command_digest(command):
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        files = {}
        for name in BASE_NAMES:
            files[name] = os.path.join(root, f"{name}.rkp")
            with open(files[name], "wb") as fh:
                fh.write(serialize(get(name)))
        for a in BASE_NAMES:
            for b in BASE_NAMES:
                argv = [{"A": files[a], "B": files[b]}.get(w, w) for w in COMMANDS[command]]
                out, err, code = run(argv, serialize(pareto_product(get(a), get(b))))
                h.update(out + b"\0" + err + b"\0" + bytes([code]))
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--total-11", action="store_true", help="also check `enumerate --total 11` (about 3 s)"
    )
    args = parser.parse_args()
    checks = [(m, enumerate_digest, ENUMERATE_DIGESTS) for m in ENUMERATE_DIGESTS]
    checks += [(m, total_10_digest, TOTAL_10_DIGESTS) for m in TOTAL_10_DIGESTS]
    if args.total_11:
        checks += [(m, total_11_digest, TOTAL_11_DIGESTS) for m in TOTAL_11_DIGESTS]
    checks += [(kind, catalog_digest, CATALOG_DIGESTS) for kind in CATALOG_DIGESTS]
    checks += [(command, command_digest, COMMAND_DIGESTS) for command in COMMAND_DIGESTS]
    mismatches = 0
    for key, digest, expected in checks:
        got = digest(key)
        mismatches += got != expected[key]
        verdict = "ok" if got == expected[key] else f"mismatch, got {got}"
        print(f"{digest.__name__}({key!r}): {verdict}")
    print(f"Python {sys.version.split()[0]}: {len(checks) - mismatches} of {len(checks)} match")
    sys.exit(1 if mismatches else 0)
