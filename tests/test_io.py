import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from canon_oracle import position_document, sorting_document
from closure_oracle import class_index, relation_masks, warshall_close
from rkdist import (
    InvalidProfile,
    UnknownVertex,
    _format,
    catalog,
    cli,
    close_preorder,
    core,
    counts,
    is_isomorphic,
    make_profile,
    pareto_product,
    product_many,
    quotient,
)
from rkdist.catalog import chain_profile, get, least_plus_class
from rkdist.core import MAX_VERTICES
from rkdist.io import (
    BadHeader,
    DuplicateIl,
    DuplicateVertex,
    MalformedLine,
    MissingIl,
    _read_lines,
    _read_plain,
    parse,
    render_ascii,
    render_dot,
    serialize,
)

FIG1A_TEXT = b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b 1\n"


def test_parse_fig1a():
    profile = parse(FIG1A_TEXT)
    assert is_isomorphic(profile, get("fig1a"))
    assert profile.order.holds("a", "b")


def test_parse_single_vertex():
    profile = parse(b"rkp 1\nvertex a\nil a 0\n")
    assert counts(profile).total == 1


def test_parse_duplicate_il_on_shared_class():
    text = b"rkp 1\nvertex a\nvertex b\nle a b\nle b a\nil a 0\nil b 1\n"
    with pytest.raises(DuplicateIl):
        parse(text)


def test_parse_accepts_comments_blanks_and_any_order():
    text = "# chain\n\nrkp 1\nil b 1   # top\nle a b\nvertex b\nvertex a\nil a 0\n"
    assert is_isomorphic(parse(text), get("fig1a"))


def test_parse_does_not_validate_admissibility():
    profile = parse(b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\nil b 0\n")
    assert counts is not None  # parse succeeded; V4 fails only under validation
    assert profile.il_of("b") == 0


def test_parse_bad_header():
    with pytest.raises(BadHeader):
        parse(b"")
    with pytest.raises(BadHeader):
        parse(b"# only a comment\n")
    with pytest.raises(BadHeader):
        parse(b"rkp 2\nvertex a\nil a 0\n")
    with pytest.raises(BadHeader):
        parse(b"vertex a\nil a 0\n")


@pytest.mark.parametrize("count", ["\u00b2", "\u0661", "+1", "1_0", "-1"])
def test_parse_accepts_only_ascii_digit_counts(count):
    # "\u00b2" (superscript two) passes str.isdigit but not int();
    # "\u0661" (Arabic-Indic one) passes both
    with pytest.raises(MalformedLine) as exc:
        parse(f"rkp 1\nvertex a\nil a {count}\n")
    assert exc.value.line == 3


def test_parse_count_beyond_digit_limit_is_malformed(digit_limit):
    long_count = "1" * (digit_limit + 700)
    with pytest.raises(MalformedLine, match="too many digits") as exc:
        parse(f"rkp 1\nvertex a\nil a {long_count}\n")
    assert exc.value.line == 3
    # a count within the limit is still read exactly
    assert parse(f"rkp 1\nvertex a\nil a {'1' * digit_limit}\n").il_of("a") == int("1" * digit_limit)


def test_parse_malformed_lines_carry_numbers():
    with pytest.raises(MalformedLine) as exc:
        parse(b"rkp 1\nvertex a\nnonsense b\n")
    assert exc.value.line == 3
    with pytest.raises(MalformedLine):
        parse(b"rkp 1\nvertex a b\n")
    with pytest.raises(MalformedLine):
        parse(b"rkp 1\nvertex a\nil a -1\n")
    with pytest.raises(MalformedLine):
        parse(b"rkp 1\nvertex a\nil a x\n")
    with pytest.raises(MalformedLine):
        parse(b"rkp 1\nvertex a\nle a\n")
    with pytest.raises(MalformedLine):
        parse(b"rkp 1\nvertex a?\nil a 0\n")


def test_parse_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        parse(b"rkp 1\nvertex a\nvertex a\nil a 0\n")


def test_parse_unknown_vertex():
    with pytest.raises(UnknownVertex):
        parse(b"rkp 1\nvertex a\nle a b\nil a 0\n")
    with pytest.raises(UnknownVertex):
        parse(b"rkp 1\nvertex a\nil a 0\nil b 0\n")


def test_parse_missing_il():
    with pytest.raises(MissingIl):
        parse(b"rkp 1\nvertex a\nvertex b\nle a b\nil a 0\n")


# Documents with two faults: the one reported is fixed by the order of the
# checks. Every line is read first; then undeclared names, every le pair
# (left name, then right) before the il lines; then duplicate il lines in
# order; then the least member of the lowest class that no il line labels.
TWO_FAULTS = [
    (
        b"rkp 1\nvertex a\nil z 0\nle a y\nil a 0\n",
        UnknownVertex, "line 4: undeclared vertex 'y'", None,
    ),
    (
        b"rkp 1\nvertex a\nvertex b\nvertex c\nle a b\nle b a\nil b 1\nil a 2\n",
        DuplicateIl, "line 8: class of 'a' already has a limit count (line 7)", 8,
    ),
    (b"rkp 1\nvertex a\nle x y\nil a 0\n", UnknownVertex, "line 3: undeclared vertex 'x'", None),
    (
        b"rkp 1\nvertex a\nle a q\nle p a\nil a 0\n",
        UnknownVertex, "line 3: undeclared vertex 'q'", None,
    ),
    (b"rkp 1\nle a z\nvertex a\nle a\nil a 0\n", MalformedLine, "line 4: expected: le NAME NAME", 4),
    (
        b"rkp 1\nvertex a\nle a z\nvertex a\nil a 0\n",
        DuplicateVertex, "line 4: vertex 'a' already declared on line 2", 4,
    ),
    (
        b"rkp 1\nvertex a\nvertex b\nil a 0\nil a 1\nil q 1\nil b 1\n",
        UnknownVertex, "line 6: undeclared vertex 'q'", None,
    ),
    (
        b"rkp 1\nvertex d\nvertex c\nvertex b\nvertex a\nle c a\nle a c\nil d 0\n",
        MissingIl, "no il declaration for the class of 'a'", None,
    ),
    (
        b"rkp 1\r\nvertex b\t# x\nvertex a\nle b a\nle a b\nil b 1\nil a 1\n",
        DuplicateIl, "line 7: class of 'a' already has a limit count (line 6)", 7,
    ),
    (b"\n# c\nrkp 2\nvertex a\nle a z\n", BadHeader, "line 3: expected \"rkp 1\", got 'rkp 2'", 3),
    (
        b"rkp 1\nvertex a\nvertex b\nil b 1\nle b a\nil a 1\nil z 1\n",
        UnknownVertex, "line 7: undeclared vertex 'z'", None,
    ),
    (
        b"rkp 1\nvertex a\nvertex b\nvertex c\nle a c\nil c 1\nil b 1\n",
        MissingIl, "no il declaration for the class of 'a'", None,
    ),
]


@pytest.mark.parametrize("doc, error, message, line", TWO_FAULTS)
def test_parse_reports_the_first_of_two_faults(doc, error, message, line):
    with pytest.raises(error) as info:
        parse(doc)
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line


def _renamed_shuffled(profile, rng, prefix):
    """serialize(profile) with fresh names in a random bijection and its
    statements shuffled after the header, like the benchmark's relabelled copies."""
    header, *statements = serialize(profile).decode().splitlines()
    order = list(range(len(profile.order.names)))
    rng.shuffle(order)
    new = {v: f"{prefix}{order[i]}" for i, v in enumerate(profile.order.names)}
    renamed = []
    for line in statements:
        kw, *toks = line.split(" ")
        named = 2 if kw == "le" else 1  # an il line's second token is its count
        renamed.append(" ".join([kw, *(new[t] for t in toks[:named]), *toks[named:]]))
    rng.shuffle(renamed)
    return "\n".join([header, *renamed]) + "\n"


def test_plain_documents_take_the_plain_route():
    profiles = {
        (e.name, n): catalog.get(e.name, dict.fromkeys(e.parameters, n))
        for e in catalog.entries()
        for n in (1, 2)
    }
    for n in range(2, 6):
        profiles[("fig1a", "power", n)] = product_many([get("fig1a")] * n)
    factors = ("fig2.8", "fig2.4", "fig1b.2")
    profiles[factors] = product_many([get(name) for name in factors])
    rng = random.Random(22)
    for name, profile in profiles.items():
        text = serialize(profile).decode()
        assert _read_plain(text) == profile == _read_lines(text), name
        copy = _renamed_shuffled(profile, rng, rng.choice("uvwxyz"))
        assert copy != text, name
        fast = _read_plain(copy)
        assert fast is not None and fast == _read_lines(copy), name
        assert is_isomorphic(fast, profile), name


@pytest.mark.parametrize("doc, error, message, line", TWO_FAULTS)
def test_faulty_documents_leave_the_plain_route(doc, error, message, line):
    assert _read_plain(doc.decode()) is None


def test_plain_document_over_the_vertex_limit_leaves_the_plain_route(monkeypatch):
    closed = []
    monkeypatch.setattr(core, "_closure_index", closed.append)
    doc = "".join(["rkp 1\n", *(f"vertex v{i}\n" for i in range(MAX_VERTICES + 1))])
    assert _read_plain(doc) is None and closed == []


def test_serialize_fig1a_exact_bytes():
    assert serialize(get("fig1a")) == FIG1A_TEXT
    assert serialize(parse(FIG1A_TEXT)) == FIG1A_TEXT


def test_serialize_oval_contains_cycle():
    text = serialize(get("fig1b.2"))
    assert b"le b c\n" in text and b"le c b\n" in text


def test_serialize_requires_admissible():
    profile = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
    with pytest.raises(InvalidProfile):
        serialize(profile)


def test_round_trip_catalog(base):
    for name, profile in base.items():
        text = serialize(profile)
        again = parse(text)
        assert is_isomorphic(again, profile), name
        assert serialize(again) == text, name


def test_round_trip_product_names():
    product = pareto_product(get("fig1a"), get("fig1b.2"))
    text = serialize(product)
    assert is_isomorphic(parse(text), product)
    assert serialize(parse(text)) == text


def test_profile_document_parts():
    text = serialize(get("fig1a"))
    lines = text.decode().split("\n")
    assert lines[0] == "rkp 1"
    assert [line for line in lines if line.startswith("vertex ")] == ["vertex a", "vertex b"]
    assert [line for line in lines if line.startswith("le ")] == ["le a b"]
    assert [line for line in lines if line.startswith("il ")] == ["il a 0", "il b 1"]
    assert text == FIG1A_TEXT


def test_render_dot_fig1a():
    expected = (
        b'digraph rk {\n'
        b'  rankdir=BT;\n'
        b'  "a" [label="a | size=1 | IL=0"];\n'
        b'  "b" [label="b | size=1 | IL=1"];\n'
        b'  "a" -> "b";\n'
        b'}\n'
    )
    assert render_dot(get("fig1a")) == expected


def test_render_dot_example_1_diamond():
    text = render_dot(pareto_product(get("fig1a"), get("fig1b.1"))).decode()
    for label in ("IL=0", "IL=1", "IL=2", "IL=5"):
        assert label in text
    assert text.count("->") == 4


def test_render_dot_single_vertex():
    text = render_dot(chain_profile([0])).decode()
    assert text.count("label") == 1 and "->" not in text


def test_render_ascii_chain():
    lines = render_ascii(get("fig1b.3")).decode().splitlines()
    assert len(lines) == 3
    assert "(1,1)" in lines[0]
    assert lines[-1] == "a(1,0)"


def test_render_ascii_example_1_levels():
    lines = render_ascii(pareto_product(get("fig1a"), get("fig1b.1"))).decode().splitlines()
    assert lines == ["b*b(1,5)", "a*b(1,2) b*a(1,1)", "a*a(1,0)"]


def test_render_ascii_single_vertex():
    assert render_ascii(chain_profile([0])) == b"a(1,0)\n"


def test_render_oval_sizes():
    lines = render_ascii(get("fig2.6")).decode().splitlines()
    assert lines == ["b(3,1)", "a(1,0)"]


def test_render_dot_depends_only_on_structure():
    # same labeled structure reached through different generating pairs
    p = make_profile({"a", "b", "c"}, [("a", "b"), ("b", "c")], {"a": 0, "b": 0, "c": 1})
    q = make_profile(
        {"a", "b", "c"}, [("a", "b"), ("b", "c"), ("a", "c")], {"a": 0, "b": 0, "c": 1}
    )
    assert render_dot(p) == render_dot(q)
    assert serialize(p) == serialize(q)


_DEEP_SHAPES = ("chain", "cycle", "lasso", "figure-eight")


def _deep_documents(n=3000):
    """Names and, per shape, its le pairs, document and class count: a chain of n
    vertices with its le lines top-down; one n-member le cycle; a lasso, the
    chain's path whose last vertex points back to its middle; and a figure-eight,
    two cycles of n/2 members that share the first vertex."""
    names = [f"v{i:04d}" for i in range(n)]
    mid = n // 2
    path = [(i, i + 1) for i in range(n - 1)]
    shapes = {
        "chain": (path[::-1], [(i, int(i == n - 1)) for i in range(n)], n),
        "cycle": (path + [(n - 1, 0)], [(0, 1)], 1),
        "lasso": (path + [(n - 1, mid)], [(i, 0) for i in range(mid)] + [(mid, 1)], mid + 1),
        "figure-eight": (
            path[: mid - 1] + [(mid - 1, 0), (0, mid)] + path[mid:] + [(n - 1, 0)],
            [(0, 1)],
            1,
        ),
    }
    vertices = "".join(f"vertex {v}\n" for v in names)
    documents = {}
    for shape, (les, ils, classes) in shapes.items():
        pairs = [(names[a], names[b]) for a, b in les]
        text = vertices + "".join(f"le {a} {b}\n" for a, b in pairs)
        text += "".join(f"il {names[i]} {count}\n" for i, count in ils)
        documents[shape] = pairs, f"rkp 1\n{text}".encode(), classes
    return names, documents


def test_deep_documents_parse_without_recursion():
    # the closure walks with an explicit stack, so depth is bounded by memory only
    names, documents = _deep_documents()
    q = quotient(parse(documents["chain"][1]))
    assert q.least() == names[0] and q.greatest() == names[-1]
    for shape, (_, doc, classes) in documents.items():
        assert len(quotient(parse(doc)).classes) == classes, shape
        out, err, code = cli.run(["validate", "-"], doc)
        assert code in (0, 1)
        assert b"Traceback" not in out + err


@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_deep_shapes_match_closure_oracle(shape):
    # low-links pass up a long path, then emissions chain back down it
    names, documents = _deep_documents(300)
    pairs, _, classes = documents[shape]
    index = close_preorder(names, pairs)._classes
    assert index == class_index(warshall_close(relation_masks(names, pairs)[1]))
    assert len(index.masks) == classes


def test_deep_chain_reports_and_renders():
    # the bottom-up order and the depths walk the covers, one per class here
    names, documents = _deep_documents()
    chain = documents["chain"][1]

    def lines(*argv):
        out, err, code = cli.run([*argv, "-"], chain)
        assert (code, err) == (0, b"")
        return out.decode().splitlines()

    ils = [int(v == names[-1]) for v in names]
    report = lines("report")
    assert report[0] == "3001 = 3000 + 1"
    assert report[1:] == [f"class {v} size 1 il {n}" for v, n in zip(names, ils)]
    dot = lines("render", "--format", "dot")
    assert sum("[label=" in line for line in dot) == 3000
    edges = [line for line in dot if "->" in line]
    assert edges == [f'  "{a}" -> "{b}";' for a, b in zip(names, names[1:])]
    levels = lines("render", "--format", "ascii")
    assert levels == [f"{v}(1,{n})" for v, n in zip(reversed(names), reversed(ils))]


def test_document_and_product_at_the_vertex_limit():
    # One class: only v0's successor mask and the class's member mask hold many bits.
    names = [f"v{i}" for i in range(MAX_VERTICES)]
    lines = ["rkp 1", *(f"vertex {v}" for v in names), "il v0 1"]
    lines += [f"le {v} v0\nle v0 {v}" for v in names[1:]]
    p = parse("\n".join(lines))
    assert len(p.order.names) == MAX_VERTICES and len(p.order._classes.masks) == 1
    half = least_plus_class(MAX_VERTICES // 2 - 1, 1)
    product = pareto_product(half, chain_profile([0, 1]))
    assert len(product.order.names) == MAX_VERTICES
    assert counts(product).prime_count == MAX_VERTICES


# Names that mix lengths, digits, case, "_" and "*", among them prefix pairs
# such as "a", "a_" and "ab", whose order the writer's cover lines must keep.
_NAMES = st.one_of(
    st.sampled_from(["a", "a_", "ab", "a*", "a0", "A", "b", "b_a", "b*a", "Z9", "_", "*"]),
    st.text(alphabet="aAbZ09_*", min_size=1, max_size=4),
)


@st.composite
def named_documents(draw):
    """An admissible profile's classes, limit counts and covers, and a document of it.

    Classes are drawn bottom first, the bottom a singleton with count 0; the
    classes between it and the top lie under a random strict order.  Names
    are dealt to the classes in a shuffled order, and the document's
    statements are shuffled too.  Returns (members by class, limit counts,
    cover pairs between class indices in shuffled order, the document).
    """
    k = draw(st.integers(1, 6))
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(k - 1)]
    names = draw(st.lists(_NAMES, min_size=sum(sizes), max_size=sum(sizes), unique=True))
    members, start = [], 0
    for size in sizes:
        members.append(names[start : start + size])
        start += size
    # V2, V4 and V5: the bottom's count is 0, the top's and a larger class's positive
    ils = [draw(st.integers(int(s > 1 or i == k - 1), 3)) if i else 0 for i, s in enumerate(sizes)]
    below = [[False] * k for _ in range(k)]  # below[a][b]: class a strictly under class b
    for b in range(1, k):
        below[0][b] = True
    for a in range(1, k - 1):
        below[a][k - 1] = True
        for b in range(a + 1, k - 1):
            below[a][b] = draw(st.booleans())
    for c in range(k):  # transitive closure, Warshall's order
        for a in range(k):
            for b in range(k):
                below[a][b] = below[a][b] or (below[a][c] and below[c][b])
    covers = [
        (a, b)
        for a in range(k)
        for b in range(k)
        if below[a][b] and not any(below[a][c] and below[c][b] for c in range(k))
    ]
    statements = [f"vertex {v}" for v in names]
    statements += [f"le {ms[j]} {ms[(j + 1) % len(ms)]}" for ms in members for j in range(len(ms))]
    statements += [f"le {members[a][-1]} {members[b][0]}" for a, b in covers]
    statements += [f"il {draw(st.sampled_from(ms))} {n}" for ms, n in zip(members, ils)]
    text = "\n".join(["rkp 1", *draw(st.permutations(statements))])
    return members, ils, draw(st.permutations(covers)), text


@given(named_documents())
@settings(max_examples=200, deadline=None)
def test_serialize_meets_the_sorting_writer(drawn):
    # serialize hands the writer sorted names, classes in representative order
    # and sorted covers, which it writes as they come; the oracle sorts them
    members, ils, covers, text = drawn
    assert serialize(parse(text)) == sorting_document(members, ils, covers)


@st.composite
def certificates(draw):
    """Class sizes, limit counts and sorted cover pairs by leaf position, any of them;
    up to 110 classes or members, so that names take two digits or three."""
    counts = st.one_of(st.integers(1, 12), st.integers(99, 110))
    k = draw(counts)
    sizes = draw(st.lists(counts, min_size=k, max_size=k))
    ils = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda c: c[0] != c[1])
    covers = draw(st.lists(pairs, max_size=3 * k, unique=True))
    return tuple(sizes), tuple(ils), tuple(sorted(covers))


@given(certificates(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_certificate_document_meets_the_sorting_writer(cert, rng):
    sizes, ils, covers = cert
    shuffled = rng.sample(covers, len(covers))
    assert core._document(cert) == position_document(sizes, ils, shuffled)


@st.composite
def certificates_sharing_sizes(draw):
    """One to four certificates on each of one to three size vectors, in any order."""
    certs = []
    for sizes, _, _ in draw(st.lists(certificates(), min_size=1, max_size=3)):
        k = len(sizes)
        position = st.integers(0, k - 1)
        pairs = st.tuples(position, position).filter(lambda c: c[0] != c[1])
        for _ in range(draw(st.integers(1, 4))):
            ils = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
            covers = draw(st.lists(pairs, max_size=3 * k, unique=True))
            certs.append((sizes, tuple(ils), tuple(sorted(covers))))
    return draw(st.permutations(certs))


@given(certificates_sharing_sizes())
@settings(max_examples=50, deadline=None)
def test_documents_through_one_heads_dict_meet_the_sorting_writer(certs):
    heads = {}
    with mock.patch.object(_format, "head", wraps=_format.head) as head:
        for sizes, ils, covers in certs:
            document = core._document((sizes, ils, covers), heads)
            assert document == position_document(sizes, ils, covers)
    assert set(heads) == {sizes for sizes, _, _ in certs}
    assert head.call_count == len(heads)
