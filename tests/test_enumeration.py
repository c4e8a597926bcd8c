import functools
import itertools
from unittest import mock

import pytest

from canon_oracle import oracle_canonical_text
from count_oracle import count
from enum_oracle import naive_enumerate
from labelled_enum import build, labelled_enumerate
from rkdist import InvalidProfile, canonical_form, core, counts, make_profile, validate_profile
from rkdist import _format, enumeration
from rkdist.catalog import get
from rkdist.enumeration import InvalidTotal, _bounded_posets, enumerate_profiles
from rkdist.io import parse


def test_total_3_unique_profile():
    result = enumerate_profiles(3)
    assert len(result.profiles) == 1
    assert result.profiles[0].canonical_text == canonical_form(get("fig1a")).canonical_text


def test_total_4_matches_fig1b():
    result = enumerate_profiles(4)
    expected = {
        canonical_form(get(f"fig1b.{i}")).canonical_text for i in (1, 2, 3)
    }
    assert {cf.canonical_text for cf in result.profiles} == expected


def test_total_5_matches_fig2():
    result = enumerate_profiles(5)
    expected = {
        canonical_form(get(f"fig2.{i}")).canonical_text for i in range(1, 9)
    }
    assert {cf.canonical_text for cf in result.profiles} == expected


def test_total_2_is_empty():
    assert enumerate_profiles(2).profiles == ()


def test_totals_6_and_7_frozen_counts():
    # counts cross-checked against the naive labeled-generation oracle
    assert len(enumerate_profiles(6).profiles) == 23
    assert len(enumerate_profiles(7).profiles) == 76


@pytest.mark.parametrize("total", [1, 0, -5, True])
def test_invalid_totals(total):
    with pytest.raises(InvalidTotal):
        enumerate_profiles(total)


@pytest.mark.parametrize("max_vertices", [2.5, "3", True, False, -1])
def test_invalid_vertex_caps(max_vertices):
    with pytest.raises(InvalidTotal, match="max_vertices"):
        enumerate_profiles(5, max_vertices)


def test_total_above_cap(monkeypatch):
    with pytest.raises(InvalidTotal):
        enumerate_profiles(13)
    monkeypatch.setattr(enumeration, "DEFAULT_TOTAL_CAP", 7)
    with pytest.raises(InvalidTotal):
        enumerate_profiles(8)


def test_max_vertices_restricts():
    result = enumerate_profiles(5, max_vertices=2)
    assert len(result.profiles) == 1
    assert result.profiles[0].canonical_text == canonical_form(get("fig2.1")).canonical_text


def test_output_sorted_and_deterministic():
    a = enumerate_profiles(6)
    b = enumerate_profiles(6)
    texts = [cf.canonical_text for cf in a.profiles]
    assert texts == [cf.canonical_text for cf in b.profiles]
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts)


def test_emitted_profiles_are_admissible_with_requested_total():
    for total in (3, 4, 5, 6):
        for cf in enumerate_profiles(total).profiles:
            profile = parse(cf.canonical_text)
            assert validate_profile(profile).admissible
            assert counts(profile).total == total
            assert canonical_form(profile).canonical_text == cf.canonical_text


def test_agrees_with_naive_oracle_small_totals():
    for total in (2, 3, 4, 5, 6):
        main = enumerate_profiles(total)
        oracle = naive_enumerate(total)
        assert len(main.profiles) == len(oracle), total
        assert {cf.canonical_text for cf in main.profiles} == {
            canonical_form(p).canonical_text for p in oracle
        }, total


@functools.lru_cache(maxsize=None)
def _labelled(total, max_vertices=None):
    return labelled_enumerate(total, max_vertices)


@pytest.mark.parametrize("total", range(2, 9))
def test_matches_labelled_route(total):
    # equal dataclasses: the same canonical bytes in the same order
    assert enumerate_profiles(total) == _labelled(total)


@pytest.mark.parametrize("total", range(2, 9))
def test_max_vertices_cuts_match_labelled_route(total):
    for m in range(0, 7):
        assert enumerate_profiles(total, max_vertices=m) == _labelled(total, m), m


@pytest.mark.parametrize("total", range(2, 10))
def test_vertex_caps_filter_the_uncapped_profiles(total):
    # every cap from none kept to all kept: the uncapped profiles with at most that
    # many vertices, in the same order
    full = enumerate_profiles(total).profiles
    vertices = [len(parse(p.canonical_text).order.vertices) for p in full]
    for cap in range(total + 1):
        kept = tuple(p for p, v in zip(full, vertices) if v <= cap)
        assert enumerate_profiles(total, cap).profiles == kept, cap


def test_counts_up_to_total_10():
    counts_by_total = [len(enumerate_profiles(t).profiles) for t in range(2, 11)]
    assert counts_by_total == [0, 1, 3, 8, 23, 76, 291, 1336, 7525]


@pytest.mark.parametrize("max_vertices", [None, 0, 1, 3, 5, 7])
def test_counts_match_burnside_oracle(max_vertices):
    # the oracle reads only the posets and their generators
    for total in range(2, 11):
        got = len(enumerate_profiles(total, max_vertices).profiles)
        assert got == count(total, max_vertices), (total, max_vertices)


def test_bounded_poset_counts():
    # unlabelled posets on k - 2 points (OEIS A000112)
    assert [len(_bounded_posets(k)) for k in range(1, 11)] == [
        1, 1, 1, 2, 5, 16, 63, 318, 2045, 16999
    ]


@pytest.mark.parametrize("k", range(1, 10))
def test_bounded_posets_number_least_first_and_greatest_last(k):
    # The enumeration reads V1-V5 off the labels alone, against classes 0 and k - 1.
    full = (1 << k) - 1
    for poset in _bounded_posets(k):
        assert poset.up[0] == full ^ 1 and poset.down[-1] == full >> 1, poset.down


def _is_bounded_poset(down):
    k = len(down)
    return (
        down[0] == 0
        and down[k - 1] == (1 << (k - 1)) - 1
        and all(not d >> i & 1 and d < 1 << i for i, d in enumerate(down))  # strict, natural
        and all(not down[j] & ~d for d in down for j in range(k) if d >> j & 1)  # transitive
    )


def _relabelled(down, perm):
    out = [0] * len(down)
    for b, d in enumerate(down):
        for a in range(len(down)):
            if d >> a & 1:
                out[perm[b]] |= 1 << perm[a]
    return tuple(out)


@pytest.mark.parametrize("k", range(1, 7))
def test_bounded_posets_are_pairwise_non_isomorphic(k):
    posets = [poset.down for poset in _bounded_posets(k)]
    assert all(_is_bounded_poset(d) for d in posets)
    seen = set()
    for down in posets:
        images = {_relabelled(down, p) for p in itertools.permutations(range(k))}
        assert not images & seen
        seen |= images


def _automorphisms(down):
    """Every automorphism of a bounded poset, found by permuting its inner elements."""
    k = len(down)
    perms = ((0, *inner, k - 1) for inner in itertools.permutations(range(1, k - 1)))
    return {g for g in perms if _relabelled(down, g) == tuple(down)}


def _group(generators, k):
    """The group that the generators span, as tuples."""
    group = {tuple(range(k))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


@pytest.mark.parametrize("k", range(2, 8))
def test_kept_generators_span_the_automorphism_group(k):
    for poset in _bounded_posets(k):
        assert _group(poset.generators, k) == _automorphisms(poset.down), poset.down


@pytest.mark.parametrize("k", range(2, 7))
def test_candidates_keep_the_least_labelling_of_each_orbit(k):
    for poset in _bounded_posets(k):
        automorphisms = _automorphisms(poset.down)
        for n, budget in itertools.product(range(k, k + 3), range(1, 4)):
            labellings = list(enumeration._labellings(n, k, budget))
            kept = enumeration._one_per_orbit(
                labellings, poset.generators, enumeration._labelling_image
            )
            least = {
                min((tuple(sizes[i] for i in g), tuple(ils[i] for i in g)) for g in automorphisms)
                for sizes, ils in labellings
            }
            assert len(kept) == len(least) and set(kept) == least, (poset.down, n, budget)


def _root(sizes, ils, down, up):
    """The refined root that the library's walks start from."""
    return core._root_cells(core._cell_keys(sizes, ils, down, up), down, up)


def _poset(down):
    """The enumeration's record of a bounded poset given by its strictly-below masks,
    with the generators and the least leaf order that the library's search records."""
    k = len(down)
    up = [sum(1 << b for b in range(k) if down[b] >> a & 1) for a in range(k)]
    below = [(a, b) for b in range(k) for a in range(k) if down[b] >> a & 1]
    covers = [(a, b) for a, b in below if not down[b] & up[a]]
    sizes, ils = [1] * k, [0] * k
    search = core._leaf_certificates(list(down), up, covers, _root(sizes, ils, list(down), up))
    for _ in search:
        pass
    maximal = sum(1 << a for a, b in covers if b == k - 1)
    return enumeration._Poset(
        tuple(down), up, covers, maximal, search.generators, tuple(search.least_order())
    )


def test_inadmissible_candidate_raises(monkeypatch):
    # three classes with two maximal ones: V3 and V4 fail, so no candidate may pass silently
    posets = (_poset((0, 1, 1)),)
    monkeypatch.setattr(enumeration, "_bounded_posets", lambda k: posets if k == 3 else ())
    with pytest.raises(InvalidProfile, match="V3"):
        enumerate_profiles(5)


@pytest.mark.parametrize(
    "n, labelling, code",
    [
        (3, ((1, 1, 1), (1, 0, 1)), "V2"),  # the bottom class has limit count 1
        (4, ((1, 2, 1), (0, 0, 1)), "V5"),  # a 2-vertex class has limit count 0
    ],
)
def test_inadmissible_labelling_raises(monkeypatch, n, labelling, code):
    # The label conditions are checked once per labelling, before any poset is read.
    def labellings(m, k, budget):
        return iter([labelling] if (m, k) == (n, 3) else [])

    monkeypatch.setattr(enumeration, "_labellings", labellings)
    with pytest.raises(InvalidProfile, match=f"^profile fails {code}$"):
        enumerate_profiles(5)


# A 4-cycle and an 8-cycle of lower and upper classes between a bottom and a
# top: refinement splits nothing, so where the canonical search starts, and
# with it its first leaf, depends on the labelling.
TWO_CYCLES = [(0, 0), (0, 1), (1, 0), (1, 1)] + [
    (2 + i, 2 + j) for i in range(4) for j in (i, (i + 1) % 4)
]


def _two_cycles_poset(shift):
    """Strictly-below masks: bottom 0, lower classes 1..6 (shifted), upper 7..12, top 13."""
    down = [0] + [1] * 6 + [1] * 6 + [(1 << 13) - 1]
    for i, j in TWO_CYCLES:
        down[7 + j] |= 1 << (1 + (i + shift) % 6)
    return tuple(down)


def test_isomorphic_candidates_collapse_whatever_their_first_leaf(monkeypatch):
    copies = (_poset(_two_cycles_poset(0)), _poset(_two_cycles_poset(1)))
    monkeypatch.setattr(enumeration, "_bounded_posets", lambda k: copies if k == 14 else ())
    monkeypatch.setattr(enumeration, "DEFAULT_TOTAL_CAP", 15)
    # 14 singleton classes and one limit model on the top: one candidate per copy
    result = enumerate_profiles(15, max_vertices=14)
    lower = [f"x{i}" for i in range(6)]
    upper = [f"y{j}" for j in range(6)]
    pairs = [("bot", x) for x in lower] + [(y, "top") for y in upper]
    pairs += [(lower[i], upper[j]) for i, j in TWO_CYCLES]
    il = {"bot": 0, "top": 1} | {v: 0 for v in lower + upper}
    expected = canonical_form(make_profile(["bot", "top", *lower, *upper], pairs, il))
    assert result.profiles == (expected,)


def test_augmentation_does_not_depend_on_the_labelling(monkeypatch):
    # drop the last upper class; the shifted copies are isomorphic through the lower
    # classes, and their searches start from different first leaves
    def smaller(shift):
        down = _two_cycles_poset(shift)
        return _poset((*down[:12], (1 << 12) - 1))

    generate = _bounded_posets.__wrapped__
    uniform = [1] * 14, [0] * 14
    children = []
    for shift in (0, 1):
        parent = smaller(shift)
        monkeypatch.setattr(enumeration, "_bounded_posets", lambda k: (parent,))
        children.append(
            [
                min(core._leaf_certificates(c.down, c.up, c.covers, _root(*uniform, c.down, c.up)))
                for c in generate(14)
            ]
        )
    assert len(children[0]) == len(children[1]) == len(set(children[0]))
    assert set(children[0]) == set(children[1])


def test_candidate_documents_are_the_least_leaf_documents():
    # Each candidate gets the document of its least certificate; the unpruned
    # oracle writes every leaf's document and takes the least.  No labelling of a
    # poset on up to 8 classes has a walk with two distinct certificates, so the
    # two-cycles poset supplies those.
    checked = several = 0
    non_rigid = [p for k in range(4, 8) for p in _bounded_posets(k) if p.generators]
    for poset in [*non_rigid, _poset(_two_cycles_poset(0))]:
        k = len(poset.down)
        for n, budget in [(k, 1), (k, 2), (k + 1, 2)]:
            labellings = list(enumeration._labellings(n, k, budget))
            for sizes, ils in enumeration._one_per_orbit(
                labellings, poset.generators, enumeration._labelling_image
            ):
                structure = (sizes, ils, poset.down, poset.up, poset.covers)
                cert = core._least_certificate(*structure, poset.generators)
                document = core._document(cert)
                profile = build(sizes, poset.down, ils)
                assert document == oracle_canonical_text(profile), (poset.down, sizes, ils)
                assert canonical_form(profile).canonical_text == document
                checked += 1
                seed = core._keeping_labels(poset.generators, sizes, ils)
                several += len(_walk(structure, seed)[0]) > 1
    assert checked > 500 and several >= 3


def _walk(structure, seed):
    """The certificates that the library's walk yields, in order, and its leaf count."""
    walk = core._leaf_certificates(*structure[2:], _root(*structure[:4]), seed)
    certificates = []
    while True:
        try:
            certificates.append(next(walk))
        except StopIteration as done:
            return certificates, done.value


def test_seeded_walks_find_every_certificate():
    # Seeded with the poset's generators that keep the labelling, a walk finds the
    # unseeded walk's certificates, the first leaf's first, at no more leaves.
    non_rigid = [p for k in range(2, 9) for p in _bounded_posets(k) if p.generators]
    walks = fewer = 0
    for poset in [*non_rigid, _poset(_two_cycles_poset(0))]:
        k = len(poset.down)
        for n, budget in itertools.product((k, k + 1), (1, 2, 3)):
            labellings = list(enumeration._labellings(n, k, budget))
            for sizes, ils in enumeration._one_per_orbit(
                labellings, poset.generators, enumeration._labelling_image
            ):
                structure = (sizes, ils, poset.down, poset.up, poset.covers)
                seed = core._keeping_labels(poset.generators, sizes, ils)
                seeded, seeded_leaves = _walk(structure, seed)
                unseeded, leaves = _walk(structure, ())
                assert seeded[0] == unseeded[0], (poset.down, sizes, ils)
                assert set(seeded) == set(unseeded), (poset.down, sizes, ils)
                assert seeded_leaves <= leaves, (poset.down, sizes, ils)
                walks += 1
                fewer += seeded_leaves < leaves
    assert walks > 20000 and fewer > walks // 2


def test_only_label_keeping_generators_seed_the_walk(monkeypatch):
    # Four incomparable classes between a bottom and a top; each map swaps two of them.
    down = [0, 1, 1, 1, 1, 31]
    up = [30, 32, 32, 32, 32, 0]
    covers = [(0, i) for i in range(1, 5)] + [(i, 5) for i in range(1, 5)]
    swaps = [[0, 2, 1, 3, 4, 5], [0, 3, 2, 1, 4, 5], [0, 1, 2, 4, 3, 5]]
    seeds = []

    class Recorded(core._leaf_certificates):
        def __init__(self, *structure):
            seeds.append(structure[4])
            super().__init__(*structure)

    monkeypatch.setattr(core, "_leaf_certificates", Recorded)
    # The second swap maps class 1 onto class 3, of another size; the third maps
    # class 3 onto class 4, of another limit count.
    sizes, ils = [1, 1, 1, 2, 2, 1], [0, 0, 0, 1, 2, 1]
    cert = core._least_certificate(sizes, ils, down, up, covers, swaps)[2]
    assert seeds == [[swaps[0]]]
    assert cert == min(_walk((sizes, ils, down, up, covers), ())[0])
    # With equal limit counts on classes 3 and 4 the third swap keeps the labels.
    seeds.clear()
    core._least_certificate(sizes, [0, 0, 0, 1, 1, 1], down, up, covers, swaps)
    assert seeds == [[swaps[0], swaps[2]]]


def test_enumeration_seeds_its_walks(monkeypatch):
    # The same profiles at fewer leaves than with unseeded walks.
    leaves = []

    class Counted(core._leaf_certificates):
        def _leaves(self, *structure):
            leaves[-1] += yield from super()._leaves(*structure)

    monkeypatch.setattr(core, "_leaf_certificates", Counted)
    leaves.append(0)
    seeded = enumerate_profiles(8)
    monkeypatch.setattr(enumeration, "_keeping_labels", lambda *args: [])
    leaves.append(0)
    assert enumerate_profiles(8) == seeded
    assert 0 < leaves[0] < leaves[1]


def test_enumeration_walks_are_pinned(monkeypatch):
    # A cold run: the poset stage's canonicity walks, then the candidates' walks.
    leaves = {"posets": 0, "candidates": 0}

    def counted(stage):
        class Counted(core._leaf_certificates):
            def _leaves(self, *structure):
                leaves[stage] += yield from super()._leaves(*structure)

        return Counted

    monkeypatch.setattr(enumeration, "_leaf_certificates", counted("posets"))
    monkeypatch.setattr(core, "_leaf_certificates", counted("candidates"))
    _bounded_posets.cache_clear()
    enumerate_profiles(8)
    assert leaves == {"posets": 147, "candidates": 36}


def _written(total, max_vertices=None):
    """Each candidate of one enumeration, as (sizes, ils, poset's down masks), with the
    document written for it; the leaf finder's calls; and the candidates' walks."""
    posets, candidates, documents, walks = [], [], [], []
    for k in range(2, total + 1):
        _bounded_posets(k)  # built first, so only the enumeration's poset loop is wrapped
    one_per_orbit_of = enumeration._one_per_orbit

    def bounded_posets(k):
        for poset in _bounded_posets(k):
            posets.append(poset.down)
            yield poset

    def one_per_orbit(items, generators, image):
        kept = one_per_orbit_of(items, generators, image)
        candidates.extend((sizes, ils, posets[-1]) for sizes, ils in kept)
        return kept

    def document(leaf, heads, **kwargs):
        documents.append(core._document(leaf, heads, **kwargs))
        return documents[-1]

    class Counted(core._leaf_certificates):
        def __init__(self, *structure):
            walks.append(structure)
            super().__init__(*structure)

    with (
        mock.patch.object(enumeration, "_bounded_posets", bounded_posets),
        mock.patch.object(enumeration, "_one_per_orbit", one_per_orbit),
        mock.patch.object(enumeration, "_document", document),
        mock.patch.object(enumeration, "_least_leaf", wraps=core._least_leaf) as finder,
        mock.patch.object(core, "_leaf_certificates", Counted),
    ):
        result = enumerate_profiles(total, max_vertices)
    assert len(candidates) == len(documents)
    assert {p.canonical_text for p in result.profiles} == set(documents)
    return list(zip(candidates, documents)), finder.call_count, len(walks)


@functools.lru_cache(maxsize=None)
def _posets_by_down():
    """The bounded posets on up to 9 classes, keyed by their strictly-below masks."""
    return {poset.down: poset for k in range(2, 10) for poset in _bounded_posets(k)}


@pytest.mark.parametrize("max_vertices", [None, 3, 5])
def test_shared_least_leaves_match_unshared_searches(max_vertices):
    # Candidates of a poset with the same ordered initial cells share one least leaf;
    # each document must be the one its own search, seeded and unshared, gives.
    for total in range(2, 10):
        for (sizes, ils, down), document in _written(total, max_vertices)[0]:
            poset = _posets_by_down()[down]
            structure = (sizes, ils, down, poset.up, poset.covers)
            leaf = core._least_certificate(*structure, poset.generators)
            assert document == core._document(leaf), (total, sizes, ils, down)


def test_each_poset_finds_each_least_leaf_once():
    # One leaf-finder call per distinct (poset, ordered initial cells) of the
    # non-uniform candidates, and one walk per such pair whose refined root is
    # not discrete.
    written, calls, walks = _written(9)
    found, walked = set(), set()
    for (sizes, ils, down), _ in written:
        k = len(down)
        if sum(sizes) == k and not any(ils[:-1]):
            continue
        up = _posets_by_down()[down].up
        keys = [(sizes[e], ils[e], down[e].bit_count(), up[e].bit_count()) for e in range(k)]
        initial = tuple(
            sum(1 << e for e in range(k) if keys[e] == key) for key in sorted(set(keys))
        )
        found.add((down, initial))
        if len(core._refine(list(initial), list(down), up)) < k:
            walked.add((down, initial))
    assert calls == len(found) == 475
    assert walks == len(walked) == 206


def test_enumeration_writes_each_head_once():
    # One head per class-size vector of the documents, in one call.
    with mock.patch.object(_format, "head", wraps=_format.head) as head:
        result = enumerate_profiles(8)
    sizes = {tuple(core._class_structure(parse(p.canonical_text))[0]) for p in result.profiles}
    assert head.call_count == len(sizes) < len(result.profiles)


def _assert_uniform_certificates(poset, oracle):
    """One vertex per class and a limit count on the top alone: the certificate read off
    the poset's least leaf order is the one that the unseeded walk finds."""
    n = len(poset.down)
    for top in (1, 2, 3):
        sizes, ils = [1] * n, [0] * (n - 1) + [top]
        structure = (sizes, ils, poset.down, poset.up, poset.covers)
        cert = tuple(sizes), tuple(ils), core._certificate(poset.order, poset.covers)
        assert cert == core._least_certificate(*structure), (poset.down, top)
        if oracle:
            document = oracle_canonical_text(build(sizes, poset.down, ils))
            assert core._document(cert) == document, (poset.down, top)


@pytest.mark.parametrize("k", range(2, 9))
def test_uniform_candidates_take_the_posets_least_order(k):
    for poset in _bounded_posets(k):
        _assert_uniform_certificates(poset, oracle=k <= 6)


def test_two_certificate_walk_takes_the_posets_least_order():
    # The two-cycles poset's uniform walks yield two certificates, so its least leaf
    # order is not its first leaf's.
    poset = _poset(_two_cycles_poset(0))
    n = len(poset.down)
    structure = ([1] * n, [0] * (n - 1) + [1], poset.down, poset.up, poset.covers)
    certificates = _walk(structure, poset.generators)[0]
    assert len(_walk(structure, ())[0]) == len(certificates) == 2
    assert min(certificates) != certificates[0]
    _assert_uniform_certificates(poset, oracle=False)


def test_uniform_candidates_skip_the_walk():
    # Each leaf-finder call is put down to the candidate whose initial cells were read last.
    keyed, reached = [], []

    def initial_cells(keys):
        keys = list(keys)
        keyed.append(tuple(zip(*keys))[:2])
        return core._initial_cells(keys)

    def least_leaf(*args):
        reached.append(keyed[-1])
        return core._least_leaf(*args)

    with (
        mock.patch.object(enumeration, "_initial_cells", initial_cells),
        mock.patch.object(enumeration, "_least_leaf", wraps=least_leaf) as finder,
    ):
        result = enumerate_profiles(8)
    assert result == _labelled(8)
    uniform = [sizes for sizes, ils in reached if set(sizes) == {1} and not any(ils[:-1])]
    assert finder.call_count > 0 and uniform == []
