"""Algebraic invariants checked over randomly generated admissible profiles."""

import os
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from canon_oracle import oracle_canonical_text
from closure_oracle import class_index, relation_masks, warshall_close
from enum_oracle import iso_by_permutation
from lattice_oracle import boolean_by_tables as _oracle_is_boolean
from lattice_oracle import lattice_tables as _oracle_lattice_tables
from parse_paths import ARGVS, parse_both
from rkdist import (
    InvalidProfile,
    Preorder,
    ProfileError,
    RkProfile,
    canonical_form,
    close_preorder,
    counts,
    is_boolean_lattice,
    is_isomorphic,
    is_lattice,
    make_profile,
    monotonicity,
    oracle_product,
    pareto_product,
    parse,
    product_many,
    quotient,
    serialize,
    validate_profile,
)
from rkdist import catalog, cli
from rkdist.core import (
    NAME_CHAR,
    _bits,
    _extremes,
    _failed_conditions,
    _require_admissible,
    mutual_classes,
)
from rkdist.io import _read_lines, _read_plain
from rkdist.product import NotALattice

FLAG_RANK = {"none": 0, "weak": 1, "strict": 2}


@st.composite
def admissible_profiles(draw, max_classes=4, max_size=3):
    k = draw(st.integers(min_value=1, max_value=max_classes))
    if k == 1:
        return make_profile(["r"], [], {"r": 0})
    rel = set()
    for i in range(1, k - 1):
        for j in range(i + 1, k - 1):
            if draw(st.booleans()):
                rel.add((i, j))
    sizes = [1] + [draw(st.integers(1, max_size)) for _ in range(k - 1)]
    ils = [0]
    for i in range(1, k):
        floor = 1 if sizes[i] > 1 or i == k - 1 else 0
        ils.append(draw(st.integers(floor, floor + 3)))
    names = [[f"c{i}m{j}" for j in range(sizes[i])] for i in range(k)]
    pairs = []
    for ms in names:
        if len(ms) > 1:
            pairs += [(ms[j], ms[(j + 1) % len(ms)]) for j in range(len(ms))]
    for i in range(1, k):
        pairs.append((names[0][0], names[i][0]))
        pairs.append((names[i][0], names[k - 1][0]))
    for i, j in rel:
        pairs.append((names[i][0], names[j][0]))
    return make_profile(
        [v for ms in names for v in ms],
        pairs,
        {names[i][0]: ils[i] for i in range(k)},
    )


@given(admissible_profiles())
@settings(max_examples=60, deadline=None)
def test_decomposition_identity(profile):
    assert validate_profile(profile).admissible
    r = counts(profile)
    assert r.total == r.prime_count + r.limit_count
    assert r.prime_count == len(profile.order.vertices)
    assert r.limit_count == sum(profile.il.values())
    assert sum(c.size for c in quotient(profile).classes) == r.prime_count


@given(admissible_profiles())
@settings(max_examples=60, deadline=None)
def test_least_class_is_singleton_with_zero(profile):
    q = quotient(profile)
    least = q.least()
    c = next(c for c in q.classes if c.representative == least)
    assert c.size == 1 and c.limit_count == 0


@given(
    st.one_of(
        admissible_profiles(),
        st.lists(admissible_profiles(), min_size=2, max_size=2).map(product_many),
    )
)
@settings(max_examples=60, deadline=None)
def test_canonical_idempotent_and_round_trip(profile):
    text = canonical_form(profile).canonical_text
    assert canonical_form(parse(text)).canonical_text == text
    data = serialize(profile)
    again = parse(data)
    assert is_isomorphic(again, profile)
    assert serialize(again) == data


@given(admissible_profiles(), admissible_profiles())
@settings(max_examples=40, deadline=None)
def test_product_count_identities(a, b):
    ra, rb = counts(a), counts(b)
    p = pareto_product(a, b)
    assert validate_profile(p).admissible
    rp = counts(p)
    assert rp.prime_count == ra.prime_count * rb.prime_count
    assert rp.total == ra.total * rb.total
    assert rp.limit_count == (
        ra.limit_count * rb.prime_count
        + ra.prime_count * rb.limit_count
        + ra.limit_count * rb.limit_count
    )


@given(admissible_profiles(), admissible_profiles())
@settings(max_examples=30, deadline=None)
def test_oracle_agrees_and_product_commutes(a, b):
    assert is_isomorphic(pareto_product(a, b), oracle_product(a, b))
    assert is_isomorphic(pareto_product(a, b), pareto_product(b, a))


def _relabeled(profile, mapping):
    order = Preorder(
        frozenset(mapping[v] for v in profile.order.vertices),
        frozenset((mapping[a], mapping[b]) for a, b in profile.order.leq),
    )
    return RkProfile(
        order, {frozenset(mapping[v] for v in cls): n for cls, n in profile.il.items()}
    )


@given(admissible_profiles(), st.data())
@settings(max_examples=40, deadline=None)
def test_iso_routes_agree_on_relabelings(profile, data):
    vs = sorted(profile.order.vertices)
    perm = data.draw(st.permutations(range(len(vs))))
    twin = _relabeled(profile, {v: f"w{perm[i]}" for i, v in enumerate(vs)})
    assert is_isomorphic(profile, twin)
    assert iso_by_permutation(profile, twin)


@given(st.lists(admissible_profiles(), min_size=1, max_size=2), st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_unpruned_oracle_on_relabelings(factors, data):
    # products of equal or symmetric factors have automorphisms to prune by
    profile = product_many(factors)
    vs = sorted(profile.order.vertices)
    perm = data.draw(st.permutations(range(len(vs))))
    twin = _relabeled(profile, {v: f"w{perm[i]}" for i, v in enumerate(vs)})
    expected = oracle_canonical_text(profile)
    assert canonical_form(profile).canonical_text == expected
    assert canonical_form(twin).canonical_text == expected


@given(admissible_profiles(), admissible_profiles())
@settings(max_examples=40, deadline=None)
def test_iso_routes_agree_on_pairs(a, b):
    assert is_isomorphic(a, b) == iso_by_permutation(a, b)


@given(admissible_profiles(), admissible_profiles())
@settings(max_examples=30, deadline=None)
def test_monotonicity_transfer(a, b):
    fa, fb = monotonicity(a), monotonicity(b)
    ps, pl = monotonicity(pareto_product(a, b))
    if min(FLAG_RANK[fa[0]], FLAG_RANK[fb[0]]) >= 1:
        if min(FLAG_RANK[fa[1]], FLAG_RANK[fb[1]]) >= 2:
            assert pl == "strict"
        elif min(FLAG_RANK[fa[1]], FLAG_RANK[fb[1]]) >= 1:
            assert FLAG_RANK[pl] >= 1
    # each factor embeds via pairing with the other's least vertex
    for f in (fa, fb):
        assert FLAG_RANK[f[0]] >= FLAG_RANK[ps]
        assert FLAG_RANK[f[1]] >= FLAG_RANK[pl]


@st.composite
def random_profiles(draw):
    """Any preorder on up to six vertices, admissible or not, with random limit counts."""
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8))
    order = close_preorder(names, pairs)
    return RkProfile(order, {cls: draw(st.integers(0, 2)) for cls in mutual_classes(order)})


@given(random_profiles(), admissible_profiles(), admissible_profiles())
@settings(max_examples=100, deadline=None)
def test_seeded_masks_equal_rederived_masks(profile, a, b):
    # "b", "b*a", "b*a*a", ... keep their order, but "b*a*c0m0" sorts before
    # "b*c0m0", so the product's names are not in factor pair order
    starred = _relabeled(a, {v: "b" + "*a" * i for i, v in enumerate(sorted(a.order.vertices))})
    products = [pareto_product(a, b), pareto_product(starred, b)]
    for order in [profile.order] + [p.order for p in products]:
        assert (order.names, order.succ) == relation_masks(order.vertices, order.leq)
        assert Preorder(order.vertices, order.leq) == order
    assert products[1] == oracle_product(starred, b)


@st.composite
def digraphs(draw):
    """Vertex names and listed pairs of any digraph on up to 40 vertices, pairs in drawn order.

    Besides random pairs, it may hold self-loops, repeated pairs and a long
    cycle; vertices that no pair names stay isolated.
    """
    n = draw(st.integers(1, 40))
    names = [f"v{i}" for i in range(n)]  # "v10" sorts before "v2"
    vertex = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    cycle = draw(st.lists(vertex, unique=True, max_size=n))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    return names, draw(st.permutations(pairs))


@given(digraphs())
@settings(max_examples=200, deadline=None)
def test_closure_matches_warshall_oracle(graph):
    names, pairs = graph
    order = close_preorder(names, pairs)
    sorted_names, generating = relation_masks(names, pairs)
    closed = warshall_close(generating)
    assert order.names == sorted_names
    assert list(order.succ) == closed
    assert order._classes == class_index(closed)
    assert Preorder(order.vertices, order.leq)._classes == order._classes


@given(digraphs(), st.sampled_from(["as drawn", "loops added", "closed"]))
@settings(max_examples=200, deadline=None)
def test_public_preorder_checks_against_warshall_oracle(graph, shape):
    names, pairs = graph
    if shape != "as drawn":
        pairs = pairs + [(v, v) for v in names]
    sorted_names, generating = relation_masks(names, pairs)
    closed = warshall_close(generating)
    if shape == "closed":
        pairs = [
            (v, w)
            for v, s in zip(sorted_names, closed)
            for j, w in enumerate(sorted_names)
            if s >> j & 1
        ]
        generating = tuple(closed)
    unlooped = [v for i, v in enumerate(sorted_names) if not generating[i] >> i & 1]
    if unlooped or closed != list(generating):
        with pytest.raises(ValueError) as info:
            Preorder(names, pairs)
        if unlooped:
            assert str(info.value) == f"preorder is not reflexive at {unlooped[0]!r}"
        else:
            assert str(info.value) == "preorder is not transitively closed"
        return
    order = Preorder(names, pairs)
    expected = close_preorder(names, pairs)
    assert order == expected
    assert order._classes == expected._classes


@st.composite
def shortcut_digraphs(draw):
    """A digraph of digraphs() that also lists pairs of its own closure.

    The added pairs jump over classes, so they are redundant and no covers,
    or join members of one class; the covers must leave them out.
    """
    names, pairs = draw(digraphs())
    sorted_names, generating = relation_masks(names, pairs)
    closed = warshall_close(generating)
    implied = [(v, sorted_names[j]) for v, s in zip(sorted_names, closed) for j in _bits(s)]
    pairs = pairs + draw(st.lists(st.sampled_from(implied), max_size=12))
    return names, draw(st.permutations(pairs))


@given(shortcut_digraphs())
@example(
    (
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "d")]
        + [("a", "d"), ("b", "e"), ("d", "e"), ("a", "e")],
    )
)
@settings(max_examples=200, deadline=None)
def test_covers_leave_out_redundant_pairs(graph):
    names, pairs = graph
    order = close_preorder(names, pairs)
    index = class_index(warshall_close(relation_masks(names, pairs)[1]))
    assert order._classes == index
    assert Preorder(order.vertices, order.leq)._classes == index
    q = quotient(RkProfile(order, {c: 1 for c in mutual_classes(order)}))
    assert q.upper_covers == index.covers


@given(
    st.lists(admissible_profiles(), min_size=2, max_size=3),
    st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_product_index_matches_oracle(factors, starred):
    if starred:
        # the starred factor of test_seeded_masks_equal_rederived_masks, which
        # breaks pair order when it comes first
        f = factors[starred - 1]
        factors[starred - 1] = _relabeled(
            f, {v: "b" + "*a" * i for i, v in enumerate(sorted(f.order.vertices))}
        )
    product = product_many(factors)
    assert list(product.order.succ) == warshall_close(product.order.succ)
    assert product.order._classes == class_index(product.order.succ)
    assert product == oracle_product(product_many(factors[:-1]), factors[-1])


def _brute_quotient(profile):
    """Representatives, strict order, least, greatest, covers and bottom-up order, from leq."""
    leq = profile.order.leq
    vs = profile.order.vertices
    reps = sorted({min(u for u in vs if (u, v) in leq and (v, u) in leq) for v in vs})
    below = {(x, y) for x in reps for y in reps if x != y and (x, y) in leq}
    least = next((r for r in reps if all(r == s or (r, s) in below for s in reps)), None)
    greatest = next((r for r in reps if all(r == s or (s, r) in below for s in reps)), None)
    covers = sorted(
        (x, y) for x, y in below if not any((x, t) in below and (t, y) in below for t in reps)
    )
    bottom_up = []
    while len(bottom_up) < len(reps):
        ready = [
            r for r in reps
            if r not in bottom_up and all(x in bottom_up for x, y in below if y == r)
        ]
        bottom_up.append(ready[0])
    return reps, below, least, greatest, covers, bottom_up


@given(st.one_of(random_profiles(), admissible_profiles()))
@settings(max_examples=150, deadline=None)
def test_class_masks_agree_with_brute_force(profile):
    reps, below, least, greatest, covers, bottom_up = _brute_quotient(profile)
    q = quotient(profile)
    assert [c.representative for c in q.classes] == reps
    assert q.below == below
    assert q.least() == least and q.greatest() == greatest
    assert list(q.covers()) == covers
    if validate_profile(profile).admissible:
        assert [c.representative for c in counts(profile).classes] == bottom_up


def _brute_failed(profile):
    """Codes of the conditions V1-V5 that fail, from leq, the class members and il_of."""
    leq = profile.order.leq
    vs = profile.order.vertices
    reps, _, least, greatest, _, _ = _brute_quotient(profile)
    size = {r: sum((u, r) in leq and (r, u) in leq for u in vs) for r in reps}
    holds = {
        "V1": least is not None,
        "V2": least is not None and size[least] == 1 and profile.il_of(least) == 0,
        "V3": greatest is not None,
        "V4": len(vs) <= 1 or (greatest is not None and profile.il_of(greatest) >= 1),
        "V5": all(size[r] == 1 or profile.il_of(r) >= 1 for r in reps),
    }
    return [code for code, ok in holds.items() if not ok]


@given(st.one_of(random_profiles(), admissible_profiles(), st.just(parse(b"rkp 1\n"))))
@settings(max_examples=150, deadline=None)
def test_verdicts_agree_with_brute_force(profile):
    failed = _brute_failed(profile)
    report = validate_profile(profile)
    assert [(c.code, c.passed) for c in report.conditions if not c.informational] == [
        (code, code not in failed) for code in ("V1", "V2", "V3", "V4", "V5")
    ]
    assert report.admissible == (not failed)
    if failed:
        with pytest.raises(InvalidProfile) as info:
            _require_admissible(profile)
        assert str(info.value) == "profile fails " + ", ".join(failed)
    else:
        assert _require_admissible(profile) is None


@given(st.one_of(random_profiles(), admissible_profiles()))
@settings(max_examples=150, deadline=None)
def test_mask_conditions_agree_with_validation_report(profile):
    q = quotient(profile)
    sizes = [c.size for c in q.classes]
    ils = [c.limit_count for c in q.classes]
    report = validate_profile(profile)
    expected = [c.code for c in report.conditions if not c.passed and not c.informational]
    assert _failed_conditions(sizes, ils, *_extremes(q.down, q.up)) == expected
    if expected:
        with pytest.raises(InvalidProfile) as info:
            _require_admissible(profile)
        assert str(info.value) == "profile fails " + ", ".join(expected)
    else:
        assert _require_admissible(profile) is None


@given(
    st.one_of(
        random_profiles(),
        admissible_profiles(),
        st.lists(admissible_profiles(), min_size=2, max_size=2).map(product_many),
    )
)
@settings(max_examples=150, deadline=None)
def test_lattice_checks_agree_with_all_pairs_definition(profile):
    q = quotient(profile)
    tables = _oracle_lattice_tables(q)
    assert is_lattice(q) == (tables is not None)
    if tables is None:
        with pytest.raises(NotALattice):
            is_boolean_lattice(q)
    else:
        assert is_boolean_lattice(q) == _oracle_is_boolean(q, *tables)


# A bottom, up to ten inner classes under random relations, and a top: tall enough
# that a meetless pair can sit below the lower covers that is_lattice tests.
_BOUNDED_POSETS = admissible_profiles(max_classes=12, max_size=1)


@given(
    st.one_of(
        _BOUNDED_POSETS,
        st.lists(_BOUNDED_POSETS, min_size=2, max_size=2).map(product_many),
    )
)
@settings(max_examples=150, deadline=None)
def test_lattice_checks_agree_with_all_pairs_on_bounded_posets(profile):
    q = quotient(profile)
    tables = _oracle_lattice_tables(q)
    assert is_lattice(q) == (tables is not None)
    if tables is None:
        with pytest.raises(NotALattice):
            is_boolean_lattice(q)
    else:
        assert is_boolean_lattice(q) == _oracle_is_boolean(q, *tables)


# Lines built from the format's own tokens reach past the header and the
# statement checks far more often than arbitrary bytes do.
_DOC_WORDS = ["a", "b", "c", "a*b", "1", "0", "12", "-1", "\u0661", "x y"]
_DOC_LINES = st.lists(
    st.tuples(
        st.sampled_from(["vertex", "le", "il", "rkp", "#", ""]),
        st.lists(st.sampled_from(_DOC_WORDS), max_size=3),
    ).map(lambda t: " ".join([t[0], *t[1]])),
    max_size=10,
).map(lambda lines: "\n".join(["rkp 1", *lines]).encode())


@st.composite
def relation_documents(draw):
    """Vertices, pairs and one limit count per class, admissible or not, and a document of them.

    The classes come from the Warshall oracle; each class's il line names any
    of its members. The document's statements are shuffled, and comments,
    blank lines, tabs and carriage returns are spread through it.
    """
    pool = ["a", "b", "v2", "v10", "b*a", "b*a*a", "Z_9", "c0m0"]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    vertex = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    sorted_names, generating = relation_masks(names, pairs)
    labels = {}
    for m in class_index(warshall_close(generating)).masks:
        labels[draw(st.sampled_from([sorted_names[j] for j in _bits(m)]))] = draw(st.integers(0, 3))
    statements = [["vertex", v] for v in names] + [["le", a, b] for a, b in pairs]
    statements += [["il", v, str(n)] for v, n in labels.items()]
    statements += [[] for _ in range(draw(st.integers(0, 3)))]
    lines = ["rkp 1"]
    for toks in draw(st.permutations(statements)):
        line = draw(st.sampled_from(["", " ", "\t"]))
        line += draw(st.sampled_from([" ", "\t", " \t ", "  "])).join(toks)
        line += draw(st.sampled_from(["", " # note", "#", "\t# le x y", "\r", " \r"]))
        lines.append(line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return names, pairs, labels, draw(st.sampled_from([text, text.encode()]))


@given(relation_documents())
@settings(max_examples=200, deadline=None)
def test_parse_equals_make_profile(drawn):
    names, pairs, labels, text = drawn
    parsed = parse(text)
    made = make_profile(names, pairs, labels)
    assert parsed.order.names == made.order.names
    assert parsed.order._classes == made.order._classes
    assert parsed.limit_counts == made.limit_counts


def _perturbations(lines):
    """Copies of a plain document's lines, each off the plain layout or faulty or both."""
    header, statements = lines[0], lines[1:]
    at = len(statements) // 2
    il = next(i for i, line in enumerate(statements) if line.startswith("il "))
    vertex = next(line for line in statements if line.startswith("vertex "))
    name = statements[il].split(" ")[1]
    declared = vertex[7:]
    long_count = "7" * (max(sys.get_int_max_str_digits(), 4300) + 1)  # past the digit limit

    def replaced(i, *new):
        return [header, *statements[:i], *new, *statements[i + 1 :]]

    return {
        "tab": replaced(at, statements[at].replace(" ", "\t", 1)),
        "double space": replaced(at, statements[at].replace(" ", "  ")),
        "crlf": [f"{line}\r" for line in lines],
        "comment": replaced(at, f"{statements[at]} # note"),
        "comment line": [header, "# note", *statements],
        "blank line": replaced(at, "", statements[at]),
        "duplicate vertex": [*lines, vertex],
        "undeclared name": [*lines, f"le {declared} undeclared_q"],
        "undeclared il": [*lines, "il undeclared_q 0"],
        "duplicate il": [*lines, statements[il]],
        "missing il": replaced(il),
        "long count": replaced(il, f"il {name} {long_count}"),
        # Faults that a scan reading a line's first tokens only would let through.
        "vertex extra token": replaced(statements.index(vertex), f"{vertex} {declared}"),
        "le extra token": [*lines, f"le {declared} {declared} {declared}"],
        "il extra token": replaced(il, f"{statements[il]} 2"),
        "leading space": replaced(at, f" {statements[at]}"),
        "bad header": ["rkp 2", *statements],
    }


_PLAIN_SOURCES = st.one_of(
    admissible_profiles(),
    st.lists(st.sampled_from(catalog.BASE_NAMES), min_size=1, max_size=3).map(
        lambda names: product_many([catalog.get(n) for n in names])
    ),
)


@given(_PLAIN_SOURCES, st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_plain_route_agrees_with_the_line_loop(profile, rng, trailing_newline):
    """Both readers on serialized documents, shuffled ones and perturbed copies."""
    header, *statements = serialize(profile).decode().splitlines()
    shuffled = statements[:]
    rng.shuffle(shuffled)
    docs = {"plain": [header, *statements], "shuffled": [header, *shuffled]}
    docs.update(_perturbations(docs["shuffled"]))
    for kind, lines in docs.items():
        text = "\n".join(lines) + ("\n" if trailing_newline else "")
        fast = _read_plain(text)
        try:
            slow = _read_lines(text)
        except ProfileError as exc:
            assert fast is None, kind
            with pytest.raises(ProfileError) as info:
                parse(text.encode())
            assert type(info.value) is type(exc), kind
            assert str(info.value) == str(exc), kind
            assert getattr(info.value, "line", None) == getattr(exc, "line", None), kind
            continue
        assert fast is None or fast == slow, kind
        assert parse(text.encode()) == slow, kind
        if kind in ("plain", "shuffled") and trailing_newline:
            assert fast == slow == profile, kind


# The plain layout as one regular expression over the whole text: a reference
# independent of _read_plain's whole-line scans and LF count.
_NAME = f"{NAME_CHAR}+"
_PLAIN_RE = re.compile(rf"rkp 1\n(?:(?:vertex {_NAME}|le {_NAME} {_NAME}|il {_NAME} [0-9]+)\n)*")

_LINE_EDITS = {
    "extra token": lambda line, token: f"{line} {token}",
    "double space": lambda line, token: line.replace(" ", "  ", 1),
    "tab": lambda line, token: line.replace(" ", "\t", 1),
    "cr": lambda line, token: f"{line}\r",
    "comment": lambda line, token: f"{line} # {token}",
    "leading space": lambda line, token: f" {line}",
    "blank line before": lambda line, token: f"\n{line}",
    "comment line before": lambda line, token: f"# {token}\n{line}",
}


@st.composite
def near_plain_texts(draw):
    """A plain document, shuffled, with a few of its lines edited off the layout."""
    header, *statements = serialize(draw(_PLAIN_SOURCES)).decode().splitlines()
    header = draw(st.sampled_from([header, "rkp 1 ", "rkp 2"]))
    lines = [header, *draw(st.permutations(statements))]
    edit = st.tuples(
        st.sampled_from(sorted(_LINE_EDITS)),
        st.integers(0, len(lines) - 1),
        st.sampled_from(["a", "r", "7", "a*b", "rkp"]),
    )
    for kind, at, token in draw(st.lists(edit, max_size=3)):
        lines[at] = _LINE_EDITS[kind](lines[at], token)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@given(near_plain_texts())
@settings(max_examples=300, deadline=None)
def test_plain_route_takes_exactly_the_reference_layout(text):
    fast = _read_plain(text)
    if not _PLAIN_RE.fullmatch(text):
        assert fast is None
        return
    try:
        slow = _read_lines(text)
    except ProfileError:
        assert fast is None
        return
    # A fault-free document in the layout is never left to the line loop.
    assert fast == slow


@given(st.one_of(st.binary(max_size=300), _DOC_LINES))
@settings(max_examples=300, deadline=None)
def test_parse_returns_a_profile_or_raises_profile_error(data):
    try:
        profile = parse(data)
    except ProfileError:
        return
    assert isinstance(profile, RkProfile)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Paths of a few profile files, with their contents, for driving the command line."""
    root = tmp_path_factory.mktemp("cli")
    names = ("fig1a", "fig1b.2", "fig2.8")
    contents = {root / f"{name}.rkp": serialize(catalog.get(name)) for name in names}
    contents[root / "bad.rkp"] = b"rkp 1\nvertex a\nvertex b\nil a 0\nil b 0\n"
    return root, contents


_CLI_WORDS = [
    "validate", "report", "product", "oracle", "render", "catalog", "list", "show",
    "enumerate", "check", "iso", "--factor", "-o", "--output", "--format", "dot", "ascii",
    "--param", "--total", "--max-vertices", "--lattice", "--boolean", "--monotone", "--help",
    "fig1a", "param.chain2", "param.ex11", "k=2", "m=1", "k=0", "-", "a\x00b",
    # Not UTF-8, as sys.argv holds such bytes; abbreviations; and "--".
    "a\udcffb", "--\udcff", "--tot", "--form", "--",
    # No integer above 8, so no example starts a long enumeration.
    "-1", "0", "1", "2", "3", "5", "8",
]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cli_never_raises_on_drawn_argv(cli_files, data):
    root, contents = cli_files
    # Written afresh for every example, since -o may overwrite any of them.
    for path, body in contents.items():
        path.write_bytes(body)
    words = st.sampled_from(_CLI_WORDS + [str(root)] + [str(p) for p in contents])
    # At most five factors, so no product passes 1024 vertices.
    argv = data.draw(st.lists(words, max_size=6))
    stdin = data.draw(st.one_of(st.binary(max_size=200), st.sampled_from(list(contents.values()))))
    # A bare word drawn as an -o target names a file in the working directory.
    cwd = os.getcwd()
    os.chdir(root)
    try:
        out, err, code = cli.run(argv, stdin)
    finally:
        os.chdir(cwd)
    assert isinstance(out, bytes) and isinstance(err, bytes)
    assert code in (0, 1, 2)


@given(st.lists(st.sampled_from(_CLI_WORDS + ["x.rkp"]), max_size=6))
@settings(max_examples=300, deadline=None)
def test_per_command_parse_agrees_with_the_top_level_parser(argv):
    per_command, top_level = parse_both(argv)
    assert per_command == top_level


@pytest.mark.parametrize("argv", ARGVS, ids=repr)
def test_per_command_parse_agrees_on_the_fixed_argv_lists(argv):
    per_command, top_level = parse_both(argv)
    assert per_command == top_level
