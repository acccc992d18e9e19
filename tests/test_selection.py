import numpy as np
import pytest

import linkbridge.selection as selection
from linkbridge.datasets import SyntheticSpec, generate_synthetic
from linkbridge.errors import DataError
from linkbridge.graph import build_graph, node_intersection, union_graph
from linkbridge.selection import (
    ENUMERATION_NODES,
    Regime,
    SplitManifest,
    audit_manifest,
    make_split,
    manifest_training_graph,
    sample_negatives,
    split_ids,
    training_graph_from_universe,
    _enumerate_non_edges,
    _key_ranks,
    _regime_positives,
    _rejection_sample_pairs,
)

from oracles import (
    dict_training_graph,
    graph_mismatches,
    grid_non_edges,
    loop_rejection_sample_pairs,
    noisy_keyed_graph_input,
    random_graph_edges,
    string_make_split,
    string_regime_positives,
)


def canon(pairs):
    return {tuple(sorted(p)) for p in pairs}


def test_regime_parse():
    assert Regime.parse("tar") is Regime.TARGET_TO_TARGET
    assert Regime.parse("union_to_target") is Regime.UNION_TO_TARGET
    with pytest.raises(DataError):
        Regime.parse("bogus")


def _positives(regime, src, tar):
    """A regime's positives as key pairs, each in key order, in split order."""
    union = union_graph(src, tar)
    ids = _regime_positives(regime, src, tar, union, _key_ranks(union))
    return [tuple(sorted((union.keys[u], union.keys[v]))) for u, v in ids.tolist()]


def _int_positives(src, tar):
    return _positives(Regime.INTERSECTION_TO_TARGET, src, tar)


def test_intersection_graph_identity(small_pair):
    src, _, _ = small_pair
    assert canon(_int_positives(src, src)) == canon(src.edge_keys())


def test_intersection_graph_one_hop_closure():
    src = build_graph([("a", "b")])
    tar = build_graph([("b", "c")])
    assert canon(_int_positives(src, tar)) == {("a", "b"), ("b", "c")}


def test_intersection_graph_empty_intersection():
    with pytest.raises(DataError):
        _int_positives(build_graph([("a", "b")]), build_graph([("x", "y")]))


def test_intersection_graph_brute_force_oracle(rng):
    for trial in range(5):
        e1 = random_graph_edges(rng, 50, 120)
        e2 = random_graph_edges(rng, 50, 60)
        src = build_graph([(f"n{u}", f"n{v}") for u, v in e1])
        # shift half of tar's nodes out of src's keyspace
        tar = build_graph(
            [(f"n{u}" if u < 25 else f"m{u}", f"n{v}" if v < 25 else f"m{v}")
             for u, v in e2]
        )
        shared = set(node_intersection(src, tar))
        if not shared:
            continue
        positives = _int_positives(src, tar)
        expected = {
            tuple(sorted(p))
            for g in (src, tar)
            for p in g.edge_keys()
            if p[0] in shared or p[1] in shared
        }
        assert canon(positives) == expected
        assert len(positives) == len(expected)


def test_regime_positives(small_pair):
    src, tar, _ = small_pair
    tar_pos = _positives(Regime.TARGET_TO_TARGET, src, tar)
    assert tar_pos == [tuple(sorted(p)) for p in tar.edge_keys()]
    uni_pos = _positives(Regime.UNION_TO_TARGET, src, tar)
    assert canon(uni_pos) == canon(src.edge_keys()) | canon(tar.edge_keys())
    int_pos = _positives(Regime.INTERSECTION_TO_TARGET, src, tar)
    assert canon(int_pos) <= canon(uni_pos)


def test_uni_disjoint_edge_count():
    src = build_graph([("a", "b"), ("b", "c")])
    tar = build_graph([("x", "y")])
    uni = _positives(Regime.UNION_TO_TARGET, src, tar)
    assert len(uni) == 3


# keys whose string order differs from any id order: numbers without padding,
# mixed case, non-ASCII, a space, and a trailing NUL that numpy's U dtype drops
TRICKY_KEYS = [
    "n9", "n10", "n100", "N5", "n05", "a", "A", "b", "Z", "z", "k", "k\x00", "é1", "e1",
    "ß", "日本", "a b", "ab", "n1", "n11", "x", "X9", "x10", "ü", "u", "Ω", "o", "m1",
    "m10", "m2", "q", "Q", "p9", "p10", "r", "s", "t", "v", "w", "y",
]


def _tricky_pair(seed, with_sides):
    """A seeded source/target pair over ``TRICKY_KEYS``, each built with a
    self-loop and a reversed duplicate; the target brings nodes the source
    lacks. The source opens with edges whose first key sorts last. With
    sides, a node's side is a function of its key."""
    rng = np.random.default_rng(seed)

    def graph(names, m, first=()):
        u, v = rng.choice(names, size=m).tolist(), rng.choice(names, size=m).tolist()
        pairs = [*first, *zip(u, v), (u[0], u[0]), (v[1], u[1])]
        nodes = {k for pair in pairs for k in pair}
        sides = {k: sum(map(ord, k)) % 2 for k in nodes} if with_sides else None
        return build_graph(pairs, sides=sides)

    first = [("k\x00", "k"), ("n10", "n9"), ("é1", "e1"), ("a", "A")]
    return graph(TRICKY_KEYS[:26], 50, first), graph(TRICKY_KEYS[14:], 40)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_sides", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
def test_regime_positives_match_the_string_reference(regime, seed, with_sides):
    src, tar = _tricky_pair(seed, with_sides)
    union = union_graph(src, tar)
    ranks = _key_ranks(union)
    assert sorted(union.keys, key=lambda k: ranks[union.key_to_id[k]]) == sorted(union.keys)
    ids = _regime_positives(regime, src, tar, union, ranks)
    want = string_regime_positives(regime, src, tar, union)
    assert len(want) > 0
    got = [(union.keys[u], union.keys[v]) for u, v in ids.tolist()]
    assert [tuple(sorted(p)) for p in got] == [tuple(sorted(p)) for p in want]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_sides", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
def test_make_split_matches_the_string_reference(regime, seed, with_sides):
    src, tar = _tricky_pair(seed, with_sides)
    union = union_graph(src, tar)
    neg_ratio = 1.0 if with_sides else 2.0
    manifest = make_split(regime, src, tar, neg_ratio=neg_ratio, seed=seed, union=union)
    want = string_make_split(regime, src, tar, union, neg_ratio, 0.2, seed)
    assert manifest.splits() == want
    assert audit_manifest(manifest, src, tar) == []
    assert manifest.test_pos and manifest.test_neg


def test_sample_negatives_complete_graph_error():
    k4 = build_graph([(a, b) for a in "abcd" for b in "abcd" if a < b])
    with pytest.raises(DataError):
        sample_negatives(k4, 1, seed=0)


def test_sample_negatives_exhaustive():
    g = build_graph([], extra_nodes=["a", "b", "c"])
    pairs = sample_negatives(g, 3, seed=0)
    assert canon(pairs) == {("a", "b"), ("a", "c"), ("b", "c")}


def test_sample_negatives_validity(rng):
    edges = random_graph_edges(rng, 40, 100)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    negs = sample_negatives(g, 150, seed=3)
    assert len(negs) == 150
    assert len(canon(negs)) == 150
    existing = canon(g.edge_keys())
    for pair in negs:
        assert tuple(sorted(pair)) not in existing


def test_sample_negatives_uniform():
    # 8-node graph: per-pair draw frequencies should be flat
    g = build_graph([("n0", "n1"), ("n2", "n3"), ("n4", "n5"), ("n6", "n7")])
    non_edges = 8 * 7 // 2 - 4
    counts = {}
    draws = 0
    for seed in range(4000):
        for pair in sample_negatives(g, 5, seed=seed):
            counts[pair] = counts.get(pair, 0) + 1
            draws += 1
    assert len(counts) == non_edges
    expect = draws / non_edges
    sigma = np.sqrt(draws * (1 / non_edges) * (1 - 1 / non_edges))
    for pair, count in counts.items():
        assert abs(count - expect) < 4.5 * sigma, (pair, count, expect)


def test_sample_negatives_bipartite():
    sides = {"a": 0, "b": 1, "c": 0, "d": 1}
    g = build_graph([("a", "b"), ("c", "d")], sides=sides)
    negs = sample_negatives(g, 2, seed=1)
    assert canon(negs) == {("a", "d"), ("b", "c")}
    with pytest.raises(DataError):
        sample_negatives(g, 3, seed=1)


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("with_outside", [False, True])
def test_enumerate_non_edges_matches_full_grid(rng, bipartite, with_outside):
    n = 30
    edges = random_graph_edges(rng, n, 120)
    sides = {f"n{i}": int(rng.integers(0, 2)) for i in range(n)} if bipartite else None
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges],
                    extra_nodes=[f"n{i}" for i in range(n)], sides=sides)
    assert (g.sides is not None) == bipartite
    pool = np.sort(rng.choice(n, size=12, replace=False))
    outside = np.sort(rng.choice(np.setdiff1d(np.arange(n), pool), size=6, replace=False))
    pool = np.concatenate([pool, outside]) if with_outside else pool
    got = _enumerate_non_edges(g, pool, outside if with_outside else None)
    want = grid_non_edges(n, g.edges.tolist(), pool, pool,
                          set(outside.tolist()) if with_outside else None, g.sides)
    assert len(want) > 0
    assert np.array_equal(got, want)


def test_enumerate_non_edges_refuses_large_pools():
    n = ENUMERATION_NODES + 1
    g = build_graph([("n0", "n1")], extra_nodes=[f"n{i}" for i in range(n)])
    pool = np.arange(n)
    with pytest.raises(DataError, match="cannot enumerate"):
        _enumerate_non_edges(g, pool, None)


def _numbered_graph(n, edges, sides=None):
    return build_graph([(f"n{u:03d}", f"n{v:03d}") for u, v in edges],
                       extra_nodes=[f"n{i:03d}" for i in range(n)], sides=sides)


def _assert_matches_loop(g, count, seed, inside, outside=None):
    """Draw with the array sampler and the loop reference from one seed;
    both must return the same pairs in the same order and the same codes."""
    got, got_taken = _rejection_sample_pairs(
        g, count, np.random.default_rng(seed), inside, outside)
    want_taken = set()
    want = loop_rejection_sample_pairs(
        g, count, np.random.default_rng(seed), inside, outside, want_taken)
    assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(-1, 2))
    assert got_taken.dtype == np.uint64
    assert np.array_equal(got_taken, np.array(sorted(want_taken), dtype=np.uint64))
    return got, got_taken


def _strata(rng, n, n_inside):
    inside = np.sort(rng.choice(n, size=n_inside, replace=False))
    return inside, np.setdiff1d(np.arange(n), inside)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_rejection_sampler_matches_loop_reference_inside(seed):
    rng = np.random.default_rng(100 + seed)
    g = _numbered_graph(60, random_graph_edges(rng, 60, 300))
    inside, _ = _strata(rng, 60, 35)
    pairs, _ = _assert_matches_loop(g, 250, seed, inside)
    assert len(pairs) == 250


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_rejection_sampler_matches_loop_reference_outside_after_inside(seed):
    rng = np.random.default_rng(200 + seed)
    g = _numbered_graph(50, random_graph_edges(rng, 50, 200))
    inside, outside = _strata(rng, 50, 30)
    # one generator across both strata and the inside call's codes carried
    # over, as make_split draws them
    gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _, taken = _rejection_sample_pairs(g, 200, gen, inside)
    taken_ref = set()
    loop_rejection_sample_pairs(g, 200, gen_ref, inside, None, taken_ref)
    got, got_taken = _rejection_sample_pairs(g, 400, gen, inside, outside, taken)
    want = loop_rejection_sample_pairs(g, 400, gen_ref, inside, outside, taken_ref)
    assert np.array_equal(got, np.array(want, dtype=np.int64))
    assert np.array_equal(got_taken, np.array(sorted(taken_ref), dtype=np.uint64))
    assert len(got_taken) == 600
    assert (np.isin(got[:, 0], outside) | np.isin(got[:, 1], outside)).all()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_outside", [False, True])
def test_rejection_sampler_matches_loop_reference_with_sides(seed, with_outside):
    rng = np.random.default_rng(300 + seed)
    n = 40
    sides = {f"n{i:03d}": int(rng.integers(0, 2)) for i in range(n)}
    g = _numbered_graph(n, random_graph_edges(rng, n, 150), sides=sides)
    inside, outside = _strata(rng, n, 25)
    pairs, _ = _assert_matches_loop(
        g, 80, seed, inside, outside if with_outside else None)
    assert (g.sides[pairs[:, 0]] != g.sides[pairs[:, 1]]).all()


def test_rejection_sampler_matches_loop_reference_through_fallback(monkeypatch):
    # K_300 less six edges: a batch of 1024 draws hits a non-edge with
    # probability about 0.13, so every seed stalls eight batches in a row
    # before it has all six
    n = 300
    missing = {(3, 150), (40, 41), (0, 299), (7, 8), (100, 250), (150, 151)}
    g = _numbered_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing])
    enumerated = []
    monkeypatch.setattr(
        "linkbridge.selection._enumerate_non_edges",
        lambda *args: enumerated.append(1) or _enumerate_non_edges(*args))
    for seed in range(8):
        pairs, _ = _assert_matches_loop(g, len(missing), seed, np.arange(n))
        assert {tuple(p) for p in pairs.tolist()} == missing
    assert len(enumerated) == 8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rejection_sampler_too_dense_matches_loop_reference(seed):
    # K_5 less one edge: rejection takes the one non-edge, stalls, and the
    # fallback finds nothing left for the second
    g = _numbered_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (1, 3)])
    msg = "only 1 candidate negative pairs available, 2 requested"
    with pytest.raises(DataError, match=msg):
        _rejection_sample_pairs(g, 2, np.random.default_rng(seed), np.arange(5))
    with pytest.raises(DataError, match=msg):
        loop_rejection_sample_pairs(g, 2, np.random.default_rng(seed), np.arange(5))


@pytest.mark.xfail(strict=True, reason=(
    "outside-outside pairs are drawn at (o-1)/o of the outside-inside rate: "
    "p_oo weighs o(o-1)/2 where o^2/2 is needed, because self-pairs are "
    "rejected after the draw"))
def test_outside_stratum_is_uniform():
    # 2 inside, 2 outside, no edges: five stratum pairs, each due 1/5 of draws
    g = build_graph([], extra_nodes=["i0", "i1", "o0", "o1"])
    inside, outside = np.array([0, 1]), np.array([2, 3])
    counts = {}
    seeds = 2000
    for seed in range(seeds):
        pairs, _ = _rejection_sample_pairs(
            g, 1, np.random.default_rng(seed), inside, outside)
        pair = tuple(pairs[0].tolist())
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 5
    sigma = np.sqrt(seeds * 0.2 * 0.8)
    for pair, count in counts.items():
        assert abs(count - seeds / 5) < 4.5 * sigma, (pair, count)


@pytest.mark.parametrize("regime", list(Regime))
def test_make_split_invariants(small_pair, regime):
    src, tar, _ = small_pair
    manifest = make_split(regime, src, tar, neg_ratio=2.0, seed=4)
    assert audit_manifest(manifest, src, tar) == []
    assert manifest.regime is regime


def test_make_split_20_40_40():
    # star source; target brings 100 outside edges through one shared node
    src = build_graph([("s0", "s1")])
    tar_edges = [("s0", f"t{i}") for i in range(100)]
    tar = build_graph(tar_edges)
    manifest = make_split(Regime.TARGET_TO_TARGET, src, tar, neg_ratio=1.0, seed=0)
    out_train = [
        p for p in manifest.train_pos if p[0].startswith("t") or p[1].startswith("t")
    ]
    assert len(out_train) == 20
    assert len(manifest.valid_pos) == 40
    assert len(manifest.test_pos) == 40


def test_make_split_degenerate_overlap_error():
    # every target node inside the source graph: nothing to evaluate
    src = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    tar = build_graph([("a", "b")])
    with pytest.raises(DataError):
        make_split(Regime.TARGET_TO_TARGET, src, tar, seed=0)


@pytest.mark.parametrize("neg_ratio", [1e3, 1e308])
def test_make_split_refuses_more_negatives_than_node_pairs(monkeypatch, neg_ratio):
    """A stratum asked for more negatives than it has node pairs is refused
    before any draw, also at a ratio too large for an int."""
    src, tar, _ = generate_synthetic(SyntheticSpec(
        n_src=40, n_tar=20, overlap_ratio=0.4, mean_deg_src=4, mean_deg_tar=2,
        feature_dim=3, feature_shift=0.3, seed=1,
    ))

    def no_draw(*args, **kwargs):
        raise AssertionError("negatives were drawn")

    monkeypatch.setattr(selection, "_rejection_sample_pairs", no_draw)
    with pytest.raises(DataError, match="graph too dense: .* from a stratum of 780 node pairs"):
        make_split(Regime.INTERSECTION_TO_TARGET, src, tar, neg_ratio=neg_ratio, seed=1)


def test_make_split_deterministic(small_pair):
    src, tar, _ = small_pair
    m1 = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=9)
    m2 = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=9)
    assert m1 == m2
    m3 = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=10)
    assert m1 != m3


def test_int_training_edges_subset_of_uni(small_pair):
    src, tar, _ = small_pair
    m_int = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    m_uni = make_split(Regime.UNION_TO_TARGET, src, tar, seed=1)
    uni_graph_edges = canon(union_graph(src, tar).edge_keys())
    int_pool = canon(m_int.train_pos) | canon(m_int.valid_pos) | canon(m_int.test_pos)
    uni_pool = canon(m_uni.train_pos) | canon(m_uni.valid_pos) | canon(m_uni.test_pos)
    assert int_pool <= uni_pool == uni_graph_edges


@pytest.mark.parametrize("regime", list(Regime))
def test_test_positives_absent_from_training_graph(small_pair, regime):
    src, tar, _ = small_pair
    manifest = make_split(regime, src, tar, seed=2)
    g_train = manifest_training_graph(manifest, src, tar)
    train_edges = canon(g_train.edge_keys())
    for pair in manifest.test_pos:
        assert tuple(sorted(pair)) not in train_edges
    for pair in manifest.valid_pos:
        assert tuple(sorted(pair)) not in train_edges
    assert train_edges == canon(manifest.train_pos)
    # the training graph spans the whole union universe
    assert set(g_train.keys) == set(src.keys) | set(tar.keys)


def test_manifest_json_round_trip(small_pair, tmp_path):
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, seed=3)
    path = tmp_path / "manifest.json"
    manifest.save(path)
    loaded = SplitManifest.load(path)
    assert loaded == manifest


def _train_manifest(train_pos):
    return SplitManifest(Regime.UNION_TO_TARGET, 0, 1.0, tuple(train_pos), (), (), (), (), ())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_rows", [True, False])
def test_training_graph_matches_dict_build(seed, with_rows):
    rng = np.random.default_rng(seed)
    pairs, extra, features, sides = noisy_keyed_graph_input(rng, [f"n{i}" for i in range(50)], 70)
    rows = dict(features=features, sides=sides) if with_rows else {}
    universe = build_graph(pairs, extra_nodes=extra, **rows)
    picks = rng.choice(universe.num_nodes, size=(30, 2))
    train_pos = [tuple(sorted((universe.keys[u], universe.keys[v]))) for u, v in picks]
    # with duplicate pairs and a self-loop
    manifest = _train_manifest(train_pos + train_pos[:2] + [(universe.keys[0],) * 2])
    got = training_graph_from_universe(manifest, universe)
    assert graph_mismatches(got, dict_training_graph(manifest, universe)) == []


def test_training_graph_keeps_sides():
    universe = build_graph([("a", "b"), ("b", "c")], sides={"a": 0, "b": 1, "c": 0})
    g = training_graph_from_universe(_train_manifest([("b", "c")]), universe)
    assert g.keys == ("b", "c", "a")
    assert g.sides.tolist() == [1, 0, 0]


def test_training_graph_rejects_a_pair_outside_the_universe():
    universe = build_graph([("a", "b"), ("b", "c")])
    with pytest.raises(DataError, match="unknown node key 'zz'"):
        training_graph_from_universe(_train_manifest([("a", "zz")]), universe)


def test_split_ids_are_each_splits_node_ids(small_pair):
    """One lookup cut at the split sizes: each field holds its split's ids,
    and the fields in order are the ids of all_edges()."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=2)
    g = manifest_training_graph(manifest, src, tar)
    ids = split_ids(manifest, g)
    assert ids._fields == selection.SPLIT_NAMES
    for name, pairs in manifest.splits().items():
        assert np.array_equal(getattr(ids, name), g.pair_ids(pairs))
    assert np.array_equal(np.concatenate(ids), g.pair_ids(manifest.all_edges()))
