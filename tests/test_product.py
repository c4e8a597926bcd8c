from dataclasses import replace

import pytest

from rkdist import (
    EmptyFactorList,
    FactorMismatch,
    NotALattice,
    ProfileError,
    core,
    counts,
    decomposition,
    is_boolean_lattice,
    is_isomorphic,
    is_lattice,
    make_profile,
    monotonicity,
    oracle_product,
    pareto_product,
    product,
    product_many,
    quotient,
    validate_profile,
)
from lattice_oracle import boolean_by_tables, lattice_tables
from rkdist.catalog import BASE_NAMES, chain_profile, get

SINGLE = chain_profile([0])


def limit_multiset(profile):
    return sorted(c.limit_count for c in quotient(profile).classes)


def test_pareto_product_example_1():
    p = pareto_product(get("fig1a"), get("fig1b.1"))
    assert len(p.order.vertices) == 4
    assert limit_multiset(p) == [0, 1, 2, 5]
    r = counts(p)
    assert (r.prime_count, r.limit_count, r.total) == (4, 8, 12)
    assert validate_profile(p).admissible


def test_pareto_product_identity(base):
    for profile in base.values():
        assert is_isomorphic(pareto_product(profile, SINGLE), profile)
        assert is_isomorphic(pareto_product(SINGLE, profile), profile)


def test_starred_product_permutes_the_factor_index(monkeypatch):
    # "b*a*c0" sorts before "b*c0", so the product's names break pair order
    starred = make_profile(
        ["b", "b*a", "b*a*a", "b*a*a*a"],
        [("b", "b*a"), ("b*a", "b*a*a"), ("b*a*a", "b*a"), ("b*a*a", "b*a*a*a")],
        {"b": 0, "b*a": 1, "b*a*a*a": 1},
    )
    chain = make_profile(["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")], {"c0": 0, "c1": 1, "c2": 1})
    closures = []
    original = core._closure_index

    def recording(succ):
        closures.append(succ)
        return original(succ)

    monkeypatch.setattr(core, "_closure_index", recording)
    p = pareto_product(starred, chain)
    assert closures == []
    assert p.order.names.index("b*a*c0") < p.order.names.index("b*c0")
    # 12 vertices in 9 classes, a 3 by 3 grid with 12 covers, where the
    # relation holds 11 * 6 pairs
    assert sum(c.bit_count() for c in p.order._classes.covers) == 12
    assert len(p.order.leq) == 66
    assert p == oracle_product(starred, chain)


def test_pareto_product_example_2():
    p = pareto_product(pareto_product(get("fig1a"), get("fig1b.1")), get("fig2.1"))
    assert limit_multiset(p) == [0, 1, 2, 3, 5, 7, 11, 23]
    assert counts(p).total == 60


def test_product_vertex_naming():
    p = pareto_product(get("fig1a"), get("fig1a"))
    assert p.order.vertices == frozenset({"a*a", "a*b", "b*a", "b*b"})
    assert p.order.holds("a*a", "b*b")
    assert not p.order.holds("a*b", "b*a")


def test_product_many_example_9():
    p = product_many([get("fig1b.3"), get("fig2.2"), get("fig1b.1")])
    r = counts(p)
    assert (r.prime_count, r.limit_count, r.total) == (18, 62, 80)


def test_product_many_example_10():
    p = product_many([get("fig1b.3"), get("fig2.1"), get("fig2.3")])
    r = counts(p)
    assert (r.prime_count, r.limit_count, r.total) == (18, 82, 100)


def test_product_many_single_factor(base):
    assert product_many([base["fig1a"]]) is base["fig1a"]


def test_product_many_empty():
    with pytest.raises(EmptyFactorList):
        product_many([])


def test_oracle_product_example_1():
    p = oracle_product(get("fig1a"), get("fig1b.1"))
    r = counts(p)
    assert (r.prime_count, r.limit_count, r.total) == (4, 8, 12)
    assert is_isomorphic(p, pareto_product(get("fig1a"), get("fig1b.1")))


def test_oracle_product_single_vertices():
    p = oracle_product(SINGLE, SINGLE)
    assert counts(p).total == 1
    assert limit_multiset(p) == [0]


@pytest.mark.parametrize("multiply", [pareto_product, oracle_product])
def test_products_reject_colliding_vertex_names(multiply):
    # (a)*(b*c) and (a*b)*(c) are both named a*b*c
    a = make_profile(["a", "a*b"], [("a", "a*b")], {"a": 0, "a*b": 1})
    b = make_profile(["c", "b*c"], [("c", "b*c")], {"c": 0, "b*c": 1})
    with pytest.raises(product.NameCollision, match="vertex name collision"):
        multiply(a, b)


def test_oracle_product_example_7():
    p = oracle_product(get("fig1b.1"), get("fig2.3"))
    assert limit_multiset(p) == [0, 0, 2, 2, 2, 8]
    assert counts(p).total == 20


def test_decomposition_example_1():
    profile = pareto_product(get("fig1a"), get("fig1b.1"))
    dec = decomposition(profile, [get("fig1a"), get("fig1b.1")])
    assert [r.total for r in dec.factor_reports] == [3, 4]
    assert sum(row[1] for row in dec.term_table) == 4
    assert sorted(row[2] for row in dec.term_table) == [0, 1, 2, 5]
    assert dec.term_table == tuple(sorted(dec.term_table))
    assert dec.product_report.total == 12


def test_decomposition_example_3_term_multiset():
    factors = [get("fig1b.3"), get("fig2.2")]
    dec = decomposition(product_many(factors), factors)
    assert len(dec.term_table) == 9
    assert sorted(row[2] for row in dec.term_table) == [0, 0, 1, 1, 1, 1, 1, 3, 3]
    assert sum(row[2] for row in dec.term_table) == 11


def test_decomposition_example_5_term_multiset():
    factors = [get("fig1b.1"), get("fig2.2")]
    dec = decomposition(product_many(factors), factors)
    assert sorted(row[2] for row in dec.term_table) == [0, 1, 1, 2, 5, 5]


def test_decomposition_without_factors():
    dec = decomposition(get("fig1a"))
    assert dec.factor_reports == (counts(get("fig1a")),)
    assert dec.term_table == ((("a",), 1, 0), (("b",), 1, 1))


def test_decomposition_raises_when_counts_disagree(monkeypatch):
    # a real check, not an assert that python -O would strip
    monkeypatch.setattr(product, "counts", lambda p: replace(counts(p), total=counts(p).total + 1))
    with pytest.raises(ProfileError, match="term table"):
        decomposition(pareto_product(get("fig1a"), get("fig1a")), [get("fig1a"), get("fig1a")])


def test_decomposition_factor_mismatch():
    with pytest.raises(FactorMismatch):
        decomposition(get("fig1a"), [get("fig1a"), get("fig1b.1")])


def test_is_lattice_diamond_and_chains():
    assert is_lattice(quotient(pareto_product(get("fig1a"), get("fig1b.1"))))
    assert is_lattice(quotient(chain_profile([0, 1])))
    assert is_lattice(quotient(chain_profile([0, 0, 0, 1])))


def test_is_lattice_two_maximal_classes():
    profile = make_profile(
        {"a", "b", "c"}, [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1}
    )
    assert not is_lattice(quotient(profile))


# admissible six-class poset where {x,y} has two minimal upper bounds
NON_LATTICE = make_profile(
    {"a", "x", "y", "z", "w", "t"},
    [("a", "x"), ("a", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"), ("z", "t"), ("w", "t")],
    {"a": 0, "x": 0, "y": 0, "z": 0, "w": 0, "t": 1},
)


def test_non_lattice_profile():
    assert validate_profile(NON_LATTICE).admissible
    assert not is_lattice(quotient(NON_LATTICE))
    with pytest.raises(NotALattice):
        is_boolean_lattice(quotient(NON_LATTICE))


def test_lattice_preservation_with_non_lattice_factor():
    product = pareto_product(NON_LATTICE, get("fig1a"))
    assert not is_lattice(quotient(product))


def _bounded(inner, pairs):
    """Singleton classes: a bottom, the inner classes under these pairs, and a top."""
    names = ["bot", *inner, "top"]
    rel = [("bot", v) for v in inner] + [(v, "top") for v in inner] + list(pairs)
    return make_profile(names, rel, {v: int(v != "bot") for v in names})


def test_meetless_pair_with_no_common_upper_cover():
    # x and y lie over the atoms a and b and have no meet, but only the top
    # is above both; the meet test sees them through its lower covers xx, yy.
    pairs = [("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"), ("x", "xx"), ("y", "yy")]
    q = quotient(_bounded(["a", "b", "x", "y", "xx", "yy"], pairs))
    assert lattice_tables(q) is None
    assert not is_lattice(q)
    # with a class m between the atoms and x, y, the meet of x and y is m
    pairs = [("a", "m"), ("b", "m"), ("m", "x"), ("m", "y"), ("x", "xx"), ("y", "yy")]
    q = quotient(_bounded(["a", "b", "m", "x", "y", "xx", "yy"], pairs))
    assert lattice_tables(q) is not None
    assert is_lattice(q)


@pytest.mark.parametrize("m", range(1, 8))
def test_complete_bipartite_layers(m, monkeypatch):
    low, high = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(m)]
    q = quotient(_bounded(low + high, [(a, b) for a in low for b in high]))
    assert is_lattice(q) == (lattice_tables(q) is not None) == (m == 1)
    lower = [0] * len(q.classes)
    for mask in q.upper_covers:
        for c in core._bits(mask):
            lower[c] += 1
    k = len(q.classes)
    crowded = sum(d * (d - 1) for d in lower) > k * (k - 1)
    assert crowded == (m >= 6)
    if crowded:
        # more pairs of lower covers than pairs of classes: no meet is tested
        monkeypatch.setattr(product, "_reflexive", None)
        assert not is_lattice(q)


def test_is_boolean_lattice_cube_true():
    cube = product_many([get("fig1a"), get("fig1b.1"), get("fig2.1")])
    q = quotient(cube)
    assert is_lattice(q) and is_boolean_lattice(q)


def test_is_boolean_lattice_chain_false():
    assert not is_boolean_lattice(quotient(chain_profile([0, 0, 1])))


def test_is_boolean_lattice_matches_oracle_on_products(base):
    profiles = [pareto_product(base[a], base[b]) for a in BASE_NAMES for b in BASE_NAMES]
    profiles += [product_many([get("fig1a")] * n) for n in (1, 2, 3, 4)]
    profiles += [product_many([get("fig2.8")] * 2), NON_LATTICE]
    verdicts = set()
    for profile in profiles:
        q = quotient(profile)
        tables = lattice_tables(q)
        if tables is None:
            with pytest.raises(NotALattice):
                is_boolean_lattice(q)
        else:
            verdicts.add(is_boolean_lattice(q))
            assert is_boolean_lattice(q) == boolean_by_tables(q, *tables)
    assert verdicts == {True, False}


def test_is_boolean_lattice_on_256_classes():
    # fig1a^8 is the cube on 8 atoms; the k**3 definition takes seconds here
    q = quotient(product_many([get("fig1a")] * 8))
    assert is_boolean_lattice(q)
    assert not is_boolean_lattice(quotient(product_many([get("fig1a")] * 7 + [get("fig1b.3")])))


def test_is_boolean_lattice_grid_false():
    grid = pareto_product(get("fig1b.3"), get("fig2.2"))
    q = quotient(grid)
    assert is_lattice(q)
    assert not is_boolean_lattice(q)


def test_monotonicity_examples():
    assert monotonicity(get("fig1a")) == ("weak", "strict")
    assert monotonicity(get("fig1b.3")) == ("weak", "weak")
    assert monotonicity(get("fig2.5")) == ("strict", "strict")
    assert monotonicity(chain_profile([0])) == ("strict", "strict")  # vacuous


def test_monotonicity_none_flag():
    profile = chain_profile([0, 2, 1])
    assert monotonicity(profile) == ("weak", "none")


def test_monotonicity_strict_transfer():
    p = pareto_product(get("fig1a"), get("fig2.6"))
    assert monotonicity(p)[1] == "strict"


def test_count_identities_on_pairs(base):
    names = ["fig1a", "fig1b.2", "fig2.3", "fig2.8"]
    for na in names:
        for nb in names:
            a, b = base[na], base[nb]
            ra, rb = counts(a), counts(b)
            rp = counts(pareto_product(a, b))
            assert rp.prime_count == ra.prime_count * rb.prime_count
            assert rp.total == ra.total * rb.total
            assert rp.limit_count == (
                ra.limit_count * rb.prime_count
                + ra.prime_count * rb.limit_count
                + ra.limit_count * rb.limit_count
            )
