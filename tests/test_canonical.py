"""The pruned canonical-form search against the unpruned oracle, and its leaf counts."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from canon_oracle import discrete_orders, full_refine, initial_cells, oracle_canonical_text
from enum_oracle import iso_by_permutation
from test_properties import _relabeled, admissible_profiles
from rkdist import (
    InvalidProfile,
    canonical_form,
    catalog_entries,
    core,
    is_isomorphic,
    make_profile,
    pareto_product,
    parse,
    product_many,
    quotient,
)
from rkdist.catalog import BASE_NAMES, get


def _drain(walk):
    """The certificates a leaf walk yields, in the order found, and the leaves it visited."""
    certificates = []
    while True:
        try:
            certificates.append(next(walk))
        except StopIteration as done:
            return certificates, done.value


def _search(profile):
    structure, root = _structure_and_root(profile)
    return _drain(core._leaf_certificates(*structure[2:], root))


@pytest.mark.parametrize("value", [1, 2, 3])
def test_matches_oracle_on_every_catalog_entry(value):
    for entry in catalog_entries():
        profile = get(entry.name, {p: value for p in entry.parameters})
        assert canonical_form(profile).canonical_text == oracle_canonical_text(profile), (
            entry.name
        )


def test_matches_oracle_on_pairwise_base_products(base):
    for a in BASE_NAMES:
        for b in BASE_NAMES:
            profile = pareto_product(base[a], base[b])
            assert canonical_form(profile).canonical_text == oracle_canonical_text(
                profile
            ), (a, b)


def test_fig1a_power_6_visits_few_leaves():
    # 720 automorphisms, so the unpruned search visits 720 leaves
    profile = product_many([get("fig1a")] * 6)
    certificates, leaves = _search(profile)
    assert leaves <= 21
    assert len(certificates) == 1
    assert canonical_form(profile).canonical_text == oracle_canonical_text(profile)


def test_diamond_power_4_matches_oracle():
    # 384 automorphisms on 256 classes; the oracle takes about 10 s
    profile = product_many([get("fig2.8")] * 4)
    assert canonical_form(profile).canonical_text == oracle_canonical_text(profile)


def _masks(cells):
    """The oracle's cells, lists of classes, as the library's class masks."""
    return [sum(1 << e for e in c) for c in cells]


def _refinements_agree(profile, rng):
    """The library's root and its cells after each individualization along one random
    path equal full passes of the oracle's refinement over the same cells, and so do
    the refinements of the initial cells that the oracle reads with reversed members."""
    sizes, ils, down, up, _ = core._class_structure(profile)
    cells = core._root_cells(core._cell_keys(sizes, ils, down, up), down, up)
    assert cells == _masks(full_refine(initial_cells(sizes, ils, down, up), down, up))
    reversed_cells = [c[::-1] for c in initial_cells(sizes, ils, down, up)]
    expected = _masks(full_refine(reversed_cells, down, up))
    assert core._refine(_masks(reversed_cells), down, up) == expected
    while (t := core._target(cells, 0)) is not None:
        lists = [list(core._bits(c)) for c in cells]
        e = rng.choice(lists[t])
        rest = [x for x in lists[t] if x != e]
        expected = _masks(full_refine(lists[:t] + [[e], rest] + lists[t + 1 :], down, up))
        cells = core._individualize(cells, t, e, down, up)
        assert cells == expected


@st.composite
def bounded_posets(draw, most):
    """Bottom, top and up to ``most`` singleton classes between them under random relations.

    Limit counts 0 and 1 leave large initial cells, so refinement does the
    splitting; in products of them it goes several passes deep.
    """
    k = draw(st.integers(1, most))
    middle = [f"m{i:02d}" for i in range(k)]
    pairs = [("bot", m) for m in middle] + [(m, "top") for m in middle]
    pairs += [(x, y) for i, x in enumerate(middle) for y in middle[i + 1 :] if draw(st.booleans())]
    il = {"bot": 0, "top": 1} | {m: draw(st.integers(0, 1)) for m in middle}
    return make_profile(["bot", "top", *middle], pairs, il)


@st.composite
def matching_layers(draw):
    """_layers over the union of up to four random perfect matchings: near-regular,
    so individualization rather than the initial cells splits the layers."""
    n = draw(st.integers(2, 10))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    return _layers(sorted({(i, p[i]) for p in perms for i in range(n)}))


@given(
    st.one_of(
        admissible_profiles(),
        st.lists(admissible_profiles(), min_size=2, max_size=2).map(product_many),
        bounded_posets(12),
        st.lists(bounded_posets(4), min_size=2, max_size=3).map(product_many),
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_refinement_matches_full_passes(profile, rng):
    _refinements_agree(profile, rng)


@given(matching_layers(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_refinement_matches_full_passes_on_layers(profile, rng):
    _refinements_agree(profile, rng)


@given(st.integers(1, 24), st.floats(0, 1), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_refinement_of_any_partition_matches_full_passes(n, density, rng):
    """A random strict order and a random partition into up to four cells, members
    shuffled: cells that no initial key has separated, with counts up to 23."""
    down = [0] * n
    for b in range(n):
        for a in range(b):
            if rng.random() < density:
                down[b] |= 1 << a | down[a]
    up = [sum(1 << b for b in range(n) if down[b] >> a & 1) for a in range(n)]
    label = [rng.randrange(4) for _ in range(n)]
    members = rng.sample(range(n), n)
    cells = [c for c in ([e for e in members if label[e] == k] for k in range(4)) if c]
    assert core._refine(_masks(cells), down, up) == _masks(full_refine(cells, down, up))


def test_refinement_matches_full_passes_on_base_products(base):
    rng = random.Random(5)
    names = sorted(BASE_NAMES)
    for i, a in enumerate(names):
        for b in names[i:]:
            for c in ("fig1a", "fig2.8", "fig2.6"):
                _refinements_agree(product_many([base[a], base[b], base[c]]), rng)
    for profile in (_layers(REGULAR_LAYERS["cubic"]), product_many([get("fig2.8")] * 3)):
        for _ in range(5):
            _refinements_agree(profile, rng)
    # fresh cells of up to 70 members, whose counts take up to seven planes and carries,
    # columns constant at a count neither 0 nor the cell's size, and 64-member cells
    _refinements_agree(product_many([get("fig1a")] * 8), rng)
    _refinements_agree(_layers(_edge_disjoint_matchings(64)), rng)


def test_fig1a_power_8_finishes():
    # 40320 automorphisms on 256 classes
    profile = product_many([get("fig1a")] * 8)
    certificates, leaves = _search(profile)
    assert leaves <= 36
    assert len(certificates) == 1
    text = canonical_form(profile).canonical_text
    assert canonical_form(parse(text)).canonical_text == text


def _antichain(m):
    """Bottom, top and m incomparable singleton classes between them."""
    middle = [f"m{i:02d}" for i in range(m)]
    pairs = [("bot", x) for x in middle] + [(x, "top") for x in middle]
    il = {"bot": 0, "top": 1} | {x: 0 for x in middle}
    return make_profile(["bot", "top", *middle], pairs, il)


def test_forty_class_antichain_finishes():
    certificates, leaves = _search(_antichain(40))
    assert leaves <= 40 * 41 // 2
    assert len(certificates) == 1


@pytest.mark.parametrize("m", range(3, 8))
def test_antichain_matches_oracle(m):
    # the symmetric extreme: the unpruned oracle visits m! leaves
    profile = _antichain(m)
    assert canonical_form(profile).canonical_text == oracle_canonical_text(profile)


@st.composite
def permutation_groups(draw):
    """Up to three permutations of up to six points, and a mask of the points."""
    n = draw(st.integers(1, 6))
    generators = draw(st.lists(st.permutations(range(n)), max_size=3))
    return n, generators, draw(st.integers(0, (1 << n) - 1))


@given(permutation_groups())
@example((4, [], 0b0110))
@example((5, [[0, 1, 2, 3, 4]], 0b10010))
@example((5, [[1, 0, 2, 3, 4], [0, 1, 2, 3, 4]], 0b00101))
@settings(max_examples=200, deadline=None)
def test_orbit_is_the_union_of_the_group_orbits(case):
    # the whole group, closed under composition from the identity, then its orbits
    n, generators, mask = case
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[y] for y in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    images = {h[x] for h in group for x in range(n) if mask >> x & 1}
    assert core._orbit(mask, generators) == sum(1 << y for y in images)


def _layers(edges, members=(1, 1)):
    """Bottom, top, and lower classes x_i below upper classes y_j for (i, j) in edges.

    Each lower class has ``members[0]`` members and each upper class
    ``members[1]``; a class with several has limit count 1, others 0.
    """
    n = 1 + max(i for i, _ in edges)

    def named(prefix, size):
        return [prefix] if size == 1 else [f"{prefix}_{m}" for m in range(size)]

    lower = [named(f"x{i}", members[0]) for i in range(n)]
    upper = [named(f"y{j}", members[1]) for j in range(n)]
    pairs = [("bot", x[0]) for x in lower] + [(y[0], "top") for y in upper]
    pairs += [(lower[i][0], upper[j][0]) for i, j in edges]
    pairs += [(ms[m], ms[(m + 1) % len(ms)]) for ms in lower + upper for m in range(len(ms))]
    il = {"bot": 0, "top": 1} | {ms[0]: int(len(ms) > 1) for ms in lower + upper}
    vertices = [v for ms in lower + upper for v in ms]
    return make_profile(["bot", "top", *vertices], pairs, il)


# Every lower class lies below, and every upper class above, the same number
# of others, so refinement splits nothing and leaves through different parts
# of the layer graph have different certificates.
REGULAR_LAYERS = {
    # a 4-cycle and an 8-cycle
    "two_cycles": [(0, 0), (0, 1), (1, 0), (1, 1)]
    + [(2 + i, 2 + i) for i in range(4)]
    + [(2 + i, 2 + (i + 1) % 4) for i in range(4)],
    # three per class: pruning by automorphisms that move the node's
    # individualized classes would lose one of its certificates
    "cubic": [
        (0, 0), (4, 0), (6, 0), (2, 1), (3, 1), (7, 1), (2, 2), (4, 2),
        (5, 2), (0, 3), (1, 3), (7, 3), (2, 4), (5, 4), (6, 4), (5, 5),
        (6, 5), (7, 5), (1, 6), (3, 6), (4, 6), (0, 7), (1, 7), (3, 7),
    ],
}


@pytest.mark.parametrize(
    "name, members",
    [
        pytest.param(name, m, id=name if m == (1, 1) else "%s-members_%dx%d" % (name, *m))
        for name in sorted(REGULAR_LAYERS)
        for m in [(1, 1), (2, 1), (1, 3)]
    ],
)
def test_regular_layers_match_oracle(name, members):
    # the walk yields several certificates, and the document of the least one is
    # the least document over every leaf of the unpruned tree
    edges = REGULAR_LAYERS[name]
    profile = _layers(edges, members)
    certificates, _ = _search(profile)
    assert len(certificates) > 1
    text = canonical_form(profile).canonical_text
    assert text == oracle_canonical_text(profile)
    # relabelled copies start their search in other parts of the layer graph
    n = 1 + max(i for i, _ in edges)
    for shift in range(1, n):
        twin = _layers([((i + shift) % n, j) for i, j in edges], members)
        assert canonical_form(twin).canonical_text == text
        assert is_isomorphic(profile, twin) and is_isomorphic(twin, profile)


def test_seeded_walk_finds_every_certificate_on_regular_layers():
    # Seeded with the automorphisms that a first walk recorded, a walk may prune
    # by a seed only at the nodes whose individualized classes it fixes: the
    # cubic layers lose a certificate if a seed prunes below a class it moves.
    for name in sorted(REGULAR_LAYERS):
        for members in [(1, 1), (2, 1), (1, 3)]:
            structure, root = _structure_and_root(_layers(REGULAR_LAYERS[name], members))
            walk = core._leaf_certificates(*structure[2:], root)
            certificates, _ = _drain(walk)
            seeded, _ = _drain(core._leaf_certificates(*structure[2:], root, walk.generators))
            assert seeded[0] == certificates[0], (name, members)
            assert set(seeded) == set(certificates), (name, members)


def _edge_disjoint_matchings(n, k=3):
    """The union of k edge-disjoint perfect matchings on n + n classes, drawn with Random(n)."""
    rng = random.Random(n)
    perms = []
    while len(perms) < k:
        p = list(range(n))
        rng.shuffle(p)
        if all(p[i] != q[i] for q in perms for i in range(n)):
            perms.append(p)
    return sorted((i, p[i]) for p in perms for i in range(n))


def test_rigid_cubic_layers_visit_one_leaf_per_class():
    # Refinement splits nothing and there is no automorphism to prune by, so
    # the search visits a leaf per class of the first layer: 32 leaves with 32
    # distinct certificates at n=32.  The README gives the cost at n=64 and 128.
    profile = _layers(_edge_disjoint_matchings(32))
    certificates, leaves = _search(profile)
    assert len(certificates) == leaves <= 32
    assert canonical_form(profile).canonical_text == oracle_canonical_text(profile)


def _walk_shape(profile):
    """(leaves visited, distinct certificates, generators recorded) of the whole walk."""
    structure, root = _structure_and_root(profile)
    walk = core._leaf_certificates(*structure[2:], root)
    certificates, leaves = _drain(walk)
    return leaves, len(certificates), len(walk.generators)


@pytest.mark.parametrize(
    "build, shape",
    [
        pytest.param(lambda: product_many([get("fig1a")] * 6), (6, 1, 5), id="fig1a_power_6"),
        pytest.param(lambda: product_many([get("fig1a")] * 8), (8, 1, 7), id="fig1a_power_8"),
        pytest.param(lambda: product_many([get("fig2.8")] * 4), (8, 1, 7), id="fig2.8_power_4"),
        pytest.param(lambda: _layers(_edge_disjoint_matchings(32)), (32, 32, 0), id="rigid_cubic"),
        pytest.param(lambda: _antichain(8), (8, 1, 7), id="antichain_8"),
        pytest.param(lambda: _antichain(40), (40, 1, 39), id="antichain_40"),
    ],
)
def test_walk_is_pinned(build, shape):
    # The exact walk, where other tests bound it: a change of cell representation
    # or of child order that visits other leaves or records other automorphisms fails.
    assert _walk_shape(build()) == shape


def _two_chains(lower_upper_ils):
    """Bottom n00 and top n05 with two 2-class chains between them."""
    names = ["n00", "a1", "a2", "b1", "b2", "n05"]
    pairs = [("n00", "a1"), ("a1", "a2"), ("a2", "n05"), ("n00", "b1"), ("b1", "b2"), ("b2", "n05")]
    (a1, a2), (b1, b2) = lower_upper_ils
    return make_profile(names, pairs, {"n00": 0, "n05": 1, "a1": a1, "a2": a2, "b1": b1, "b2": b2})


@pytest.fixture()
def searches(monkeypatch):
    calls = []
    search = core._leaf_certificates

    def counted(*structure):
        calls.append(structure)
        return search(*structure)

    monkeypatch.setattr(core, "_leaf_certificates", counted)
    return calls


def _structure_and_root(profile):
    structure = core._class_structure(profile)
    return structure, core._root_cells(core._cell_keys(*structure[:4]), *structure[2:4])


def _sorted_keys(profile):
    return sorted(core._cell_keys(*core._class_structure(profile)[:4]))


def _root_shape(profile):
    """(initial cell key, size) of each refined root cell in order; isomorphic profiles agree."""
    structure, root = _structure_and_root(profile)
    keys = core._cell_keys(*structure[:4])
    return [(keys[core._least(c)], c.bit_count()) for c in root]


def test_equal_invariants_reach_the_search(searches):
    p = _two_chains([(0, 0), (1, 1)])
    q = _two_chains([(0, 1), (1, 0)])
    assert _sorted_keys(p) == _sorted_keys(q)
    assert _root_shape(p) == _root_shape(q)
    assert not is_isomorphic(p, q)
    assert not iso_by_permutation(p, q)
    # one walk for q's first leaf, one over p
    assert len(searches) == 2


def test_differing_refined_roots_skip_the_search(searches):
    # same degree sequences, so the same initial cells; in q a degree-2 lower
    # class lies below a degree-1 upper class, which splits its cell
    p = _layers([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    q = _layers([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)])
    assert _sorted_keys(p) == _sorted_keys(q)
    assert len(_structure_and_root(p)[1]) < len(_structure_and_root(q)[1])
    assert not is_isomorphic(p, q) and not is_isomorphic(q, p)
    assert not iso_by_permutation(p, q)
    assert searches == []


@pytest.mark.parametrize(
    "a, b",
    [
        ("fig2.1", "fig2.5"),  # vertex count
        ("fig1b.2", "fig1b.3"),  # class count
        ("fig2.2", "fig2.3"),  # initial cell keys
    ],
)
def test_differing_invariants_skip_the_search(searches, monkeypatch, a, b):
    # the sorted cell keys tell these apart before any refinement
    assert _sorted_keys(get(a)) != _sorted_keys(get(b))
    refinements = []
    refine = core._refine

    def counted(*args):
        refinements.append(args)
        return refine(*args)

    monkeypatch.setattr(core, "_refine", counted)
    assert not is_isomorphic(get(a), get(b))
    assert searches == [] and refinements == []


def test_is_isomorphic_checks_admissibility_before_invariants(searches):
    bad = make_profile({"a", "b"}, [("a", "b")], {"a": 0, "b": 0})
    with pytest.raises(InvalidProfile):
        is_isomorphic(get("fig2.4"), bad)
    with pytest.raises(InvalidProfile):
        is_isomorphic(bad, get("fig2.4"))
    assert searches == []


@pytest.fixture()
def individualizations(monkeypatch):
    calls = []
    individualize = core._individualize

    def counted(*args):
        calls.append(args)
        return individualize(*args)

    monkeypatch.setattr(core, "_individualize", counted)
    return calls


def _first_leaf(profile):
    """The certificate of the oracle's first discrete order, which individualizes the least
    member of each target cell and refines with the oracle's own passes."""
    sizes, ils, down, up, covers = core._class_structure(profile)
    order = next(discrete_orders(sizes, ils, down, up))
    pos = {e: p for p, e in enumerate(order)}
    return (
        tuple(sizes[e] for e in order),
        tuple(ils[e] for e in order),
        tuple(sorted((pos[a], pos[b]) for a, b in covers)),
    )


def _first_certificate(profile):
    """The library walk's first certificate; the walk individualizes only along its path."""
    structure, root = _structure_and_root(profile)
    return next(core._leaf_certificates(*structure[2:], root))


def _shuffled_copy(profile, seed):
    """The profile with its vertices renamed in a shuffled order, so its classes move."""
    names = list(profile.order.names)
    random.Random(seed).shuffle(names)
    return _relabeled(profile, {v: f"w{i:03d}" for i, v in enumerate(names)})


def test_isomorphic_pair_stops_at_the_first_matching_leaf(individualizations):
    # every leaf of fig1a^6 has the same certificate, so a's first leaf matches
    profile = product_many([get("fig1a")] * 6)
    twin = _shuffled_copy(profile, 9)
    assert twin.order.names != profile.order.names
    _first_certificate(profile)
    _first_certificate(twin)
    two_paths = len(individualizations)
    for a, b in [(profile, twin), (twin, profile)]:
        individualizations.clear()
        assert is_isomorphic(a, b)
        assert len(individualizations) <= two_paths
    # while the whole walk over the profile goes further
    individualizations.clear()
    _search(profile)
    _first_certificate(twin)
    assert len(individualizations) > two_paths


@pytest.mark.parametrize(
    "p, q",
    [
        (_two_chains([(0, 0), (1, 1)]), _two_chains([(0, 1), (1, 0)])),
        # a 4-cycle and an 8-cycle against a 12-cycle: refinement splits neither
        (
            _layers(REGULAR_LAYERS["two_cycles"]),
            _layers([(i, (i + d) % 6) for i in range(6) for d in (0, 1)]),
        ),
    ],
    ids=["two_chains", "cycles"],
)
def test_non_isomorphic_pair_walks_the_whole_tree(individualizations, p, q):
    (sp, rp), (sq, rq) = _structure_and_root(p), _structure_and_root(q)
    assert _root_shape(p) == _root_shape(q)
    _drain(core._leaf_certificates(*sp[2:], rp))
    next(core._leaf_certificates(*sq[2:], rq))
    whole_tree = len(individualizations)
    individualizations.clear()
    assert not is_isomorphic(p, q)
    assert len(individualizations) == whole_tree


@st.composite
def profile_pairs(draw):
    """Two drawn profiles, a profile and a relabelled copy, or two two-factor products."""
    kind = draw(st.sampled_from(["drawn", "relabelled", "products"]))
    if kind == "drawn":
        return draw(admissible_profiles()), draw(admissible_profiles())
    if kind == "relabelled":
        profile = draw(st.one_of(admissible_profiles(), bounded_posets(8), matching_layers()))
        names = profile.order.names
        perm = draw(st.permutations(range(len(names))))
        return profile, _relabeled(profile, {v: f"w{perm[i]:02d}" for i, v in enumerate(names)})
    a, b, c = (draw(st.one_of(admissible_profiles(), bounded_posets(3))) for _ in range(3))
    return pareto_product(a, b), pareto_product(draw(st.sampled_from([a, b, c])), a)


@given(profile_pairs())
# the first leaf of the shifted copy matches the fifth of the original's five certificates
@example(
    (
        _layers(REGULAR_LAYERS["cubic"]),
        _layers([((i + 1) % 8, j) for i, j in REGULAR_LAYERS["cubic"]]),
    )
)
@settings(max_examples=200, deadline=None)
def test_is_isomorphic_is_first_leaf_membership(pair):
    a, b = pair
    certificates, _ = _search(a)
    first = _first_leaf(b)
    assert _first_certificate(b) == first[2]
    expected = first[:2] == _first_leaf(a)[:2] and first[2] in certificates
    assert is_isomorphic(a, b) == expected
    assert expected == (canonical_form(a).canonical_text == canonical_form(b).canonical_text)
    if len(a.order.names) <= 10:
        assert iso_by_permutation(a, b) == expected


def _ten_class_profiles():
    """The profiles that profile_pairs draws from, with at most 10 classes."""
    factor = st.one_of(admissible_profiles(), bounded_posets(3))
    products = st.builds(pareto_product, factor, factor)
    return st.one_of(admissible_profiles(), bounded_posets(8), matching_layers(), products).filter(
        lambda profile: len(profile.order._classes.masks) <= 10
    )


@given(_ten_class_profiles())
@settings(max_examples=100, deadline=None)
def test_every_leaf_lists_the_sorted_labels(profile):
    # What lets a certificate leave the labels out: every leaf of the unpruned tree
    # lists the classes' (size, il) in sorted order, the order of the initial cells.
    sizes, ils, down, up, covers = core._class_structure(profile)
    labels = sorted(zip(sizes, ils))
    for order in discrete_orders(sizes, ils, down, up):
        assert [(sizes[e], ils[e]) for e in order] == labels
    assert core._least_certificate(sizes, ils, down, up, covers)[:2] == tuple(zip(*labels))


def _recounted(profile, counts):
    """The profile with the limit counts of some classes, given by representative, replaced."""
    il = {c.representative: c.limit_count for c in quotient(profile).classes} | counts
    return make_profile(profile.order.names, profile.order.leq, il)


@st.composite
def label_swaps(draw):
    """A drawn profile with two different limit counts put on two classes of equal size,
    |down| and |up|, and its copy with the two counts swapped: equal cell keys."""
    profile = draw(_ten_class_profiles())
    classes = quotient(profile).classes
    down, up = profile.order._classes.down, profile.order._classes.up
    shape = [(c.size, d.bit_count(), u.bit_count()) for c, d, u in zip(classes, down, up)]
    pairs = [(i, j) for j in range(len(shape)) for i in range(j) if shape[i] == shape[j]]
    assume(pairs)
    i, j = draw(st.sampled_from(pairs))
    x, y = classes[i].representative, classes[j].representative
    floor = 1 if classes[i].size > 1 else 0
    c, d = draw(st.lists(st.integers(floor, floor + 3), min_size=2, max_size=2, unique=True))
    return _recounted(profile, {x: c, y: d}), _recounted(profile, {x: d, y: c})


# a diamond whose two middle classes carry different counts
DIAMOND = make_profile(
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    {"bot": 0, "a": 0, "b": 1, "top": 1},
)
# x2 < y0 > x0 < y1 > x1 < y2: x0 and x1 both lie below three classes, but only x1
# lies below a class with one lower cover, so refinement tells them apart
PATH = _recounted(_layers([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)]), {"x0": 1})


@pytest.mark.parametrize(
    "a, b, isomorphic",
    [
        (DIAMOND, _recounted(DIAMOND, {"a": 1, "b": 0}), True),
        (PATH, _recounted(PATH, {"x0": 0, "x1": 1}), False),
    ],
    ids=["diamond", "path"],
)
def test_swapped_counts_pinned(a, b, isomorphic):
    assert is_isomorphic(a, b) == iso_by_permutation(a, b) == isomorphic
    assert (canonical_form(a) == canonical_form(b)) == isomorphic


@given(label_swaps())
@settings(max_examples=150, deadline=None)
def test_swapped_counts_agree_with_the_oracles(pair):
    # Certificates leave the labels out, so is_isomorphic rests on its key and
    # root checks to tell apart pairs that differ only in limit counts.
    a, b = pair
    verdict = is_isomorphic(a, b)
    assert verdict == iso_by_permutation(a, b) == (canonical_form(a) == canonical_form(b))
