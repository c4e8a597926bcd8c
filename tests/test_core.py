import pytest

from rkdist import core
from rkdist import (
    InvalidProfile,
    Preorder,
    RkProfile,
    UnknownVertex,
    canonical_form,
    close_preorder,
    counts,
    is_isomorphic,
    make_profile,
    monotonicity,
    pareto_product,
    product_many,
    quotient,
    validate_profile,
)
from rkdist.catalog import chain_profile, get
from rkdist.cli import run
from rkdist.io import parse, render_ascii, render_dot, serialize


def test_close_preorder_reflexive_only():
    order = close_preorder({"a"}, [])
    assert order.leq == frozenset({("a", "a")})


def test_close_preorder_transitivity():
    order = close_preorder({"a", "b", "c"}, [("a", "b"), ("b", "c")])
    assert order.holds("a", "c")
    assert not order.holds("c", "a")


def test_close_preorder_symmetric_cycle_one_class():
    profile = make_profile({"a", "b"}, [("a", "b"), ("b", "a")], {"a": 1})
    assert quotient(profile).classes[0].size == 2


def test_close_preorder_unknown_vertex():
    with pytest.raises(UnknownVertex):
        close_preorder({"a"}, [("a", "b")])


def test_preorder_invariants_rejected():
    with pytest.raises(ValueError):
        Preorder(frozenset({"a"}), frozenset())  # not reflexive
    with pytest.raises(ValueError):
        Preorder(
            frozenset({"a", "b", "c"}),
            frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}),
        )  # not transitive
    with pytest.raises(ValueError):
        Preorder(frozenset({"bad name"}), frozenset({("bad name", "bad name")}))
    # Names are checked before they are sorted, so a name that is no string
    # is a bad name, not a TypeError from comparing it with a string.
    with pytest.raises(ValueError, match="^bad vertex name 1$"):
        close_preorder([1, "a"], [])
    with pytest.raises(ValueError, match="^bad vertex name None$"):
        make_profile(["a", None], [], {})
    with pytest.raises(ValueError, match="^bad vertex name 2$"):
        Preorder(["a", 2], [("a", "a")])
    # An unhashable name, or a pair that is not two hashable items, is a
    # ValueError naming it, not a TypeError or an unpacking error.
    with pytest.raises(ValueError, match=r"^bad vertex name \['a'\]$"):
        close_preorder([["a"]], [])
    bad_pairs = [
        (close_preorder, ["a"], [("a", ["b"])], r"\('a', \['b'\]\)"),
        (close_preorder, ["a"], [("a",)], r"\('a',\)"),
        (Preorder, ["a"], [("a", "a", "a")], r"\('a', 'a', 'a'\)"),
        (close_preorder, ["a"], [3], "3"),
    ]
    for build, vertices, pairs, shown in bad_pairs:
        with pytest.raises(ValueError, match=f"^bad pair {shown}, expected two vertex names$"):
            build(vertices, pairs)
    with pytest.raises(ValueError, match=r"^bad pair \('a',\), expected two vertex names$"):
        make_profile(["a"], [("a",)], {"a": 0})


def test_profile_il_must_cover_classes():
    order = close_preorder({"a", "b"}, [("a", "b")])
    with pytest.raises(ValueError):
        RkProfile(order, {frozenset({"a"}): 0})
    with pytest.raises(ValueError):
        RkProfile(order, {frozenset({"a"}): 0, frozenset({"b"}): -1})
    with pytest.raises(ValueError):
        RkProfile(order, {frozenset({"a", "b"}): 0})


def test_make_profile_errors():
    with pytest.raises(UnknownVertex):
        make_profile({"a"}, [], {"z": 0})
    with pytest.raises(ValueError):
        make_profile({"a", "b"}, [("a", "b"), ("b", "a")], {"a": 1, "b": 1})
    with pytest.raises(ValueError):
        make_profile({"a", "b"}, [("a", "b")], {"a": 0})


@pytest.mark.parametrize(
    "labels, kind, message",
    [
        # The first faulty label wins, an undeclared one or a class's second.
        ({"z": 0, "a": 0, "b": 1}, UnknownVertex, "limit count references undeclared vertex 'z'"),
        ({"a": 0, "b": 1, "c": 1, "z": 0}, ValueError, "class of 'c' was given two limit counts"),
        ({"a": 0, "c": 1, "b": 1, "z": 0}, ValueError, "class of 'b' was given two limit counts"),
        ({"a": 0, "z": 0, "c": 1}, UnknownVertex, "limit count references undeclared vertex 'z'"),
        # A fault wins over a class without a label.
        ({"y": 0}, UnknownVertex, "limit count references undeclared vertex 'y'"),
        ({"d": 1, "c": 1}, ValueError, "class of 'c' was given two limit counts"),
        # Otherwise the least member of the lowest class without a label is named.
        ({"d": 1}, ValueError, "class of 'a' has no limit count"),
        ({"a": 0, "e": 1}, ValueError, "class of 'b' has no limit count"),
        ({"e": 1, "a": 0}, ValueError, "class of 'b' has no limit count"),
    ],
)
def test_make_profile_error_messages(labels, kind, message):
    # Classes {a} < {b, c, d} < {e}.
    pairs = [("a", "d"), ("d", "b"), ("b", "c"), ("c", "d"), ("c", "e")]
    with pytest.raises((UnknownVertex, ValueError)) as info:
        make_profile({"a", "b", "c", "d", "e"}, pairs, labels)
    assert (info.type, str(info.value)) == (kind, message)


def test_il_of_undeclared_vertex():
    with pytest.raises(UnknownVertex):
        get("fig1a").il_of("z")


def test_unknown_condition_code():
    with pytest.raises(KeyError):
        validate_profile(get("fig1a")).condition("V7")


def test_quotient_two_singleton_classes():
    q = quotient(get("fig1a"))
    assert [(c.representative, c.size, c.limit_count) for c in q.classes] == [
        ("a", 1, 0),
        ("b", 1, 1),
    ]
    assert q.below == frozenset({("a", "b")})
    assert q.least() == "a" and q.greatest() == "b"


def test_quotient_oval_variant_class_sizes():
    q = quotient(get("fig1b.2"))
    assert sorted(c.size for c in q.classes) == [1, 2]
    assert next(c for c in q.classes if c.representative == "b").limit_count == 1


def test_quotient_single_vertex():
    q = quotient(chain_profile([0]))
    assert len(q.classes) == 1 and q.below == frozenset()


def test_validate_fig1a_all_pass():
    report = validate_profile(get("fig1a"))
    assert report.admissible
    assert all(c.passed for c in report.conditions)


def test_validate_v4_failure():
    profile = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
    report = validate_profile(profile)
    assert not report.condition("V4").passed
    assert "b" in report.condition("V4").detail
    assert not report.admissible


def test_validate_v3_failure_two_maximal():
    profile = make_profile(
        {"a", "b", "c"}, [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1}
    )
    report = validate_profile(profile)
    assert report.condition("V1").passed
    assert not report.condition("V3").passed


def test_validate_v2_failure_fat_least_class():
    profile = make_profile({"a", "b"}, [("a", "b"), ("b", "a")], {"a": 1})
    report = validate_profile(profile)
    assert not report.condition("V2").passed


def test_validate_v5_failure():
    profile = make_profile(
        {"a", "b", "c", "d"},
        [("a", "b"), ("b", "c"), ("c", "b"), ("b", "d"), ("c", "d")],
        {"a": 0, "b": 0, "d": 1},
    )
    report = validate_profile(profile)
    assert not report.condition("V5").passed
    assert "b" in report.condition("V5").detail


def test_validate_v6_informational_only():
    report = validate_profile(chain_profile([0]))
    assert not report.condition("V6").passed
    assert report.condition("V6").informational
    assert report.admissible  # V6 does not gate admissibility


_TWO_MINIMAL = ({"a", "b", "c"}, [("a", "c"), ("b", "c")], {"a": 0, "b": 0, "c": 1})
_TWO_MAXIMAL = ({"a", "b", "c"}, [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1})
_FAT_LEAST = ({"a", "b"}, [("a", "b"), ("b", "a")], {"a": 1})
_COUNTED_LEAST = ({"a", "b"}, [("a", "b")], {"a": 1, "b": 1})
_UNCOUNTED_TOP = ({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
# Two multi-member classes with limit count 0; the detail names the first.
_TWO_UNCOUNTED = (
    {"a", "b", "c", "d", "e"},
    [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("d", "e"), ("e", "d")],
    {"a": 0, "b": 0, "d": 0},
)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: get("fig1a"), ("V1", True, "least class a", False)),
        (
            lambda: make_profile(*_TWO_MINIMAL),
            ("V1", False, "no unique least class (minimal: a, b)", False),
        ),
        (lambda: make_profile(*_TWO_MINIMAL), ("V2", False, "no unique least class", False)),
        (lambda: make_profile(*_FAT_LEAST), ("V2", False, "least class a has size 2", False)),
        (
            lambda: make_profile(*_COUNTED_LEAST),
            ("V2", False, "least class a has limit count 1", False),
        ),
        (
            lambda: get("fig1a"),
            ("V2", True, "least class a is a singleton with limit count 0", False),
        ),
        (lambda: get("fig1a"), ("V3", True, "greatest class b", False)),
        (
            lambda: make_profile(*_TWO_MAXIMAL),
            ("V3", False, "no unique greatest class (maximal: b, c)", False),
        ),
        (lambda: chain_profile([0]), ("V4", True, "single vertex, nothing required", False)),
        (lambda: parse(b"rkp 1\n"), ("V4", True, "single vertex, nothing required", False)),
        (lambda: make_profile(*_TWO_MAXIMAL), ("V4", False, "no unique greatest class", False)),
        (
            lambda: make_profile(*_UNCOUNTED_TOP),
            ("V4", False, "greatest class b has limit count 0", False),
        ),
        (lambda: get("fig1a"), ("V4", True, "greatest class b has limit count 1", False)),
        (
            lambda: make_profile(*_TWO_UNCOUNTED),
            ("V5", False, "class b has size 2 but limit count 0", False),
        ),
        (
            lambda: get("fig1a"),
            ("V5", True, "every multi-member class has a positive limit count", False),
        ),
        (lambda: get("fig1a"), ("V6", True, "total 3 is in the Ehrenfeucht range", True)),
        (lambda: chain_profile([0]), ("V6", False, "total 1 is below the Ehrenfeucht range", True)),
    ],
    ids=[
        "V1-pass", "V1-two-minimal",
        "V2-no-least", "V2-size", "V2-count", "V2-pass",
        "V3-pass", "V3-two-maximal",
        "V4-single-vertex", "V4-empty", "V4-no-greatest", "V4-count-0", "V4-positive",
        "V5-fail", "V5-pass",
        "V6-in-range", "V6-below-range",
    ],
)
def test_validation_wording(build, expected):
    c = validate_profile(build()).condition(expected[0])
    assert (c.code, c.passed, c.detail, c.informational) == expected


def test_counts_fig1a():
    r = counts(get("fig1a"))
    assert (r.prime_count, r.limit_count, r.total) == (2, 1, 3)


def test_counts_fig2_first_chain():
    r = counts(get("fig2.1"))
    assert (r.prime_count, r.limit_count, r.total) == (2, 3, 5)


def test_counts_single_vertex():
    r = counts(chain_profile([0]))
    assert (r.prime_count, r.limit_count, r.total) == (1, 0, 1)


def test_counts_terms_in_topological_order():
    r = counts(get("fig2.8"))
    assert r.class_terms == ((1, 0), (1, 0), (1, 0), (1, 1))
    assert [c.representative for c in r.classes] == ["a", "b", "c", "d"]


def test_counts_requires_admissible():
    profile = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
    with pytest.raises(InvalidProfile):
        counts(profile)


def test_canonical_relabeling_invariance():
    p = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 1})
    q = make_profile({"x", "y"}, [("x", "y")], {"x": 0, "y": 1})
    assert canonical_form(p).canonical_text == canonical_form(q).canonical_text


def test_canonical_distinguishes_limit_counts():
    p = chain_profile([0, 1])
    q = chain_profile([0, 2])
    assert canonical_form(p).canonical_text != canonical_form(q).canonical_text


def test_canonical_eight_fig2_variants_distinct():
    texts = {canonical_form(get(f"fig2.{i}")).canonical_text for i in range(1, 9)}
    assert len(texts) == 8


def test_canonical_idempotent(base):
    for profile in base.values():
        text = canonical_form(profile).canonical_text
        assert canonical_form(parse(text)).canonical_text == text


def test_canonical_rejects_inadmissible():
    profile = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
    with pytest.raises(InvalidProfile):
        canonical_form(profile)


def test_is_isomorphic_under_permutation():
    p = make_profile(
        {"p", "q", "r"}, [("p", "q"), ("q", "r")], {"p": 0, "q": 0, "r": 1}
    )
    assert is_isomorphic(p, get("fig1b.3"))


def test_is_isomorphic_distinguishes_variants():
    assert not is_isomorphic(get("fig1b.1"), get("fig1b.3"))


def test_is_isomorphic_equivalence_relation(base):
    profiles = list(base.values())
    names = list(base)
    for i, p in enumerate(profiles):
        assert is_isomorphic(p, p)
        for j, q in enumerate(profiles):
            assert is_isomorphic(p, q) == is_isomorphic(q, p)
            if i != j:
                # base entries are pairwise non-isomorphic
                assert not is_isomorphic(p, q), (names[i], names[j])


def test_quotient_sizes_sum_to_vertex_count(base):
    for profile in base.values():
        q = quotient(profile)
        assert sum(c.size for c in q.classes) == len(profile.order.vertices)


def _count_closure_index(monkeypatch) -> list:
    """Patch core._closure_index to record its calls; returns the record."""
    built = []
    original = core._closure_index

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_closure_index", counting)
    return built


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_profile(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")],
            {"a": 0, "b": 1, "d": 1},
        ),
        lambda: parse(
            b"rkp 1\nvertex a\nvertex b\nvertex c\nvertex d\n"
            b"le a b\nle b c\nle c b\nle c d\nil a 0\nil b 1\nil d 1\n"
        ),
        lambda: RkProfile(
            Preorder(
                ["a", "b", "c", "d"],
                [(v, v) for v in "abcd"]
                + [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "b")]
                + [("b", "d"), ("c", "d")],
            ),
            {frozenset("a"): 0, frozenset("bc"): 1, frozenset("d"): 1},
        ),
    ],
    ids=["make_profile", "parse", "Preorder"],
)
def test_class_index_is_derived_once_per_profile(monkeypatch, build):
    built = _count_closure_index(monkeypatch)
    p = build()
    validate_profile(p)
    counts(p)
    assert quotient(p) is quotient(p)
    canonical_form(p)
    serialize(p)
    render_dot(p)
    render_ascii(p)
    assert len(built) == 1


def test_product_index_comes_from_the_factors(monkeypatch):
    a = make_profile(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")],
        {"a": 0, "b": 1, "d": 1},
    )
    b = get("diamond4")
    for f in (a, b):
        counts(f)  # both factors hold their class index already
    built = _count_closure_index(monkeypatch)
    product = pareto_product(a, b)
    counts(product)
    serialize(product)
    render_ascii(product)
    assert built == []


def test_operations_never_build_the_pair_relation(monkeypatch):
    derived = []
    original = core._vertex_masks

    def counting(index):
        derived.append(index)
        return original(index)

    monkeypatch.setattr(core, "_vertex_masks", counting)
    p = parse(
        b"rkp 1\nvertex a\nvertex b\nvertex c\nvertex d\n"
        b"le a b\nle b c\nle c b\nle c d\nil a 0\nil b 1\nil d 1\n"
    )
    validate_profile(p)
    counts(p)
    serialize(p)
    render_dot(p)
    render_ascii(p)
    canonical_form(p)
    assert is_isomorphic(p, p)
    product = pareto_product(p, p)
    assert is_isomorphic(product, product)
    triple = product_many([p, p, p])
    serialize(triple)
    monotonicity(triple)
    assert run(["check", "-", "--lattice"], serialize(product)) == (b"true\n", b"", 0)
    for order in (p.order, product.order, triple.order):
        # leq is derived on first use and then cached on the instance
        assert "leq" not in vars(order)
    assert derived == []
    assert p.order.leq and "leq" in vars(p.order)
    assert len(derived) == 1
    # "b*a" sorts before "b": a product whose names break pair order is closed
    # again under the names from its classes and covers, not from the pairs
    starred = make_profile(
        ["b", "b*a", "b*a*a", "b*a*a*a"],
        [("b", "b*a"), ("b*a", "b*a*a"), ("b*a*a", "b*a"), ("b*a*a", "b*a*a*a")],
        {"b": 0, "b*a": 1, "b*a*a*a": 1},
    )
    assert is_isomorphic(pareto_product(starred, p), product)
    assert len(derived) == 1


def test_equal_relations_are_equal_and_hash_alike():
    chain = chain_profile([0, 1])
    product = pareto_product(chain, chain).order
    names = ["a*a", "a*b", "b*a", "b*b"]
    leq = {(x, y) for x in names for y in names if x[0] <= y[0] and x[2] <= y[2]}
    orders = [
        product,
        Preorder(names, leq),
        close_preorder(names, [("a*a", "a*b"), ("a*a", "b*a"), ("a*b", "b*b"), ("b*a", "b*b")]),
        parse(serialize(pareto_product(chain, chain))).order,
    ]
    for order in orders:
        assert order == product and hash(order) == hash(product)
    assert order.leq == leq
    wider = Preorder(names, leq | {("a*b", "b*a")})
    assert wider.names == product.names and wider != product
    assert wider.succ != product.succ


def test_integer_paths_never_build_the_name_view():
    # The quotient holds one named ClassSummary per class; it is built only
    # where class names are printed, and everything else reads the class index.
    a, b, c = (parse(serialize(get(name))) for name in ("fig1b.2", "fig2.8", "diamond4"))
    ab = pareto_product(a, b)
    abc = product_many([a, b, c])
    cba = product_many([c, b, a])
    canonical_form(ab)
    assert is_isomorphic(abc, cba)
    assert not is_isomorphic(ab, c)
    serialize(abc)
    monotonicity(cba)
    monotonicity(a)
    for p in (a, b, c, ab, abc, cba):
        assert "_quotient" not in vars(p)
    quotient(a)
    assert "_quotient" in vars(a)
