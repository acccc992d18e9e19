import numpy as np
import pytest

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
    _enumerate_non_edges,
    _regime_positives,
)

from oracles import grid_non_edges, random_graph_edges


def canon(pairs):
    return {tuple(sorted(p)) for p in pairs}


def test_regime_parse():
    assert Regime.parse("tar") is Regime.TARGET_TO_TARGET
    assert Regime.parse("union_to_target") is Regime.UNION_TO_TARGET
    with pytest.raises(DataError):
        Regime.parse("bogus")


def _int_positives(src, tar):
    return _regime_positives(Regime.INTERSECTION_TO_TARGET, src, tar, union_graph(src, tar))


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
    union = union_graph(src, tar)
    tar_pos = _regime_positives(Regime.TARGET_TO_TARGET, src, tar, union)
    assert tar_pos == tar.edge_keys()
    uni_pos = _regime_positives(Regime.UNION_TO_TARGET, src, tar, union)
    assert canon(uni_pos) == canon(src.edge_keys()) | canon(tar.edge_keys())
    int_pos = _regime_positives(Regime.INTERSECTION_TO_TARGET, src, tar, union)
    assert canon(int_pos) <= canon(uni_pos)


def test_uni_disjoint_edge_count():
    src = build_graph([("a", "b"), ("b", "c")])
    tar = build_graph([("x", "y")])
    uni = _regime_positives(Regime.UNION_TO_TARGET, src, tar, union_graph(src, tar))
    assert len(uni) == 3


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
    negs = sample_negatives(g, 2, seed=1, bipartite_aware=True)
    assert canon(negs) == {("a", "d"), ("b", "c")}
    with pytest.raises(DataError):
        sample_negatives(g, 3, seed=1, bipartite_aware=True)


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("with_outside", [False, True])
def test_enumerate_non_edges_matches_full_grid(rng, bipartite, with_outside):
    n = 30
    edges = random_graph_edges(rng, n, 120)
    sides = {f"n{i}": int(rng.integers(0, 2)) for i in range(n)} if bipartite else None
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges],
                    extra_nodes=[f"n{i}" for i in range(n)], sides=sides)
    pool = np.sort(rng.choice(n, size=12, replace=False))
    outside = np.sort(rng.choice(np.setdiff1d(np.arange(n), pool), size=6, replace=False))
    pool = np.concatenate([pool, outside]) if with_outside else pool
    got = _enumerate_non_edges(g, pool, outside if with_outside else None, bipartite)
    want = grid_non_edges(n, g.edges.tolist(), pool, pool,
                          set(outside.tolist()) if with_outside else None,
                          g.sides if bipartite else None)
    assert len(want) > 0
    assert np.array_equal(got, want)


def test_enumerate_non_edges_refuses_large_pools():
    n = ENUMERATION_NODES + 1
    g = build_graph([("n0", "n1")], extra_nodes=[f"n{i}" for i in range(n)])
    pool = np.arange(n)
    with pytest.raises(DataError, match="cannot enumerate"):
        _enumerate_non_edges(g, pool, None, False)


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
