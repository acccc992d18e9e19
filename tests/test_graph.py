import numpy as np
import pytest

from linkbridge.errors import DataError
from linkbridge.graph import (
    build_graph,
    checked_pairs,
    first_seen,
    graph_from_ids,
    node_intersection,
    union_graph,
)

from oracles import (
    graph_mismatches,
    loop_edge_keys,
    loop_union_graph,
    noisy_keyed_graph_input,
    unique_lexsort_graph_arrays,
)


def test_dedup_and_self_loop_drop():
    g = build_graph([("a", "b"), ("b", "a"), ("a", "a")])
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.build_stats.self_loops_dropped == 1
    assert g.build_stats.duplicates_dropped == 1


def test_first_seen_id_order():
    g = build_graph([("z", "m"), ("m", "a")])
    assert g.keys == ("z", "m", "a")
    assert g.key_to_id["z"] == 0


def test_round_trip_ids():
    g = build_graph([("x", "y"), ("y", "w"), ("w", "x")])
    for i, key in enumerate(g.keys):
        assert g.key_to_id[key] == i
    assert list(g.ids_for(g.keys)) == list(range(g.num_nodes))


def test_path_degrees(path4):
    degs = path4.degrees()
    assert list(degs) == [1, 2, 2, 1]


def test_csr_symmetry(rng):
    pairs = set()
    while len(pairs) < 40:
        u, v = rng.integers(0, 20, size=2)
        if u != v:
            pairs.add((f"n{min(u,v)}", f"n{max(u,v)}"))
    g = build_graph(sorted(pairs))
    rows = [g.indices[g.indptr[i] : g.indptr[i + 1]] for i in range(g.num_nodes)]
    for u, v in g.edges:
        assert v in rows[u]
        assert u in rows[v]
    assert int(np.diff(g.indptr).sum()) == 2 * g.num_edges
    for row in rows:
        assert np.all(np.diff(row) > 0)  # sorted, no duplicates


def test_has_edge(triangle):
    row = triangle.indices[triangle.indptr[0] : triangle.indptr[1]]
    assert 1 in row
    assert 0 not in row


def test_empty_edge_list_rejected():
    with pytest.raises(DataError):
        build_graph([])


def test_extra_nodes_isolated():
    g = build_graph([("a", "b")], extra_nodes=["c", "a"])
    assert g.num_nodes == 3
    assert g.degrees()[g.key_to_id["c"]] == 0


def test_feature_validation():
    with pytest.raises(DataError):
        build_graph([("a", "b")], features={"a": [1.0], "b": [1.0, 2.0]})
    with pytest.raises(DataError):
        build_graph([("a", "b")], features={"a": [1.0], "b": [2.0], "zz": [3.0]})
    with pytest.raises(DataError):
        build_graph([("a", "b")], features={"a": [1.0]})  # missing row for b


def test_intersection_disjoint_and_identity():
    g1 = build_graph([("a", "b")])
    g2 = build_graph([("c", "d")])
    assert node_intersection(g1, g2) == []
    assert node_intersection(g1, g1) == ["a", "b"]


def test_intersection_commutative_idempotent(small_pair):
    src, tar, _ = small_pair
    ab = node_intersection(src, tar)
    ba = node_intersection(tar, src)
    assert ab == ba
    assert node_intersection(src, src) == sorted(src.keys)
    assert len(ab) > 0


def test_union_graph_merges_edges_and_features():
    f1 = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
    f2 = {"b": [0.0, 1.0], "c": [0.5, 0.5]}
    g1 = build_graph([("a", "b")], features=f1)
    g2 = build_graph([("b", "c")], features=f2)
    u = union_graph(g1, g2)
    assert u.num_nodes == 3
    assert u.num_edges == 2
    assert np.allclose(u.features[u.key_to_id["c"]], [0.5, 0.5])


def test_union_graph_conflicting_features():
    g1 = build_graph([("a", "b")], features={"a": [1.0], "b": [2.0]})
    g2 = build_graph([("a", "c")], features={"a": [9.0], "c": [3.0]})
    with pytest.raises(DataError, match="shared node 'a'"):
        union_graph(g1, g2)


def test_side_labels_need_a_row_per_node():
    with pytest.raises(DataError, match="missing side rows"):
        build_graph([("a", "b"), ("b", "c")], sides={"a": 0, "b": 1})


@pytest.mark.parametrize("side", [2, -1, 256])
def test_side_labels_are_0_or_1(side):
    with pytest.raises(DataError, match=f"side of node 'b' is {side}, not 0 or 1"):
        build_graph([("a", "b")], sides={"a": 0, "b": side})


def test_union_graph_conflicting_sides():
    g1 = build_graph([("a", "b")], sides={"a": 0, "b": 1})
    g2 = build_graph([("b", "c")], sides={"b": 0, "c": 1})
    with pytest.raises(DataError, match="conflicting side rows for shared node 'b'"):
        union_graph(g1, g2)


@pytest.mark.parametrize("labelled_first", [True, False])
def test_union_graph_needs_sides_on_both_or_neither(labelled_first):
    labelled = build_graph([("a", "b")], sides={"a": 0, "b": 1})
    bare = build_graph([("b", "c")])
    with pytest.raises(DataError, match="side rows and one without"):
        union_graph(*((labelled, bare) if labelled_first else (bare, labelled)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_rows", [True, False])
def test_union_graph_matches_per_key_merge(seed, with_rows):
    rng = np.random.default_rng(seed)
    graphs = []
    for lo, hi in ((0, 40), (25, 70)):
        pairs, extra, features, sides = noisy_keyed_graph_input(
            rng, [f"n{i}" for i in range(lo, hi)], 60)
        rows = dict(features=features, sides=sides) if with_rows else {}
        graphs.append(build_graph(pairs, extra_nodes=extra, **rows))
    assert graph_mismatches(union_graph(*graphs), loop_union_graph(*graphs)) == []


def test_union_disjoint_edge_count():
    g1 = build_graph([("a", "b"), ("b", "c")])
    g2 = build_graph([("x", "y")])
    u = union_graph(g1, g2)
    assert u.num_edges == g1.num_edges + g2.num_edges


def test_graph_arrays_read_only(triangle):
    with pytest.raises(ValueError):
        triangle.edges[0, 0] = 5


def test_pair_ids(triangle):
    ids = triangle.pair_ids([("a", "b"), ("c", "a")])
    assert ids.dtype == np.int64
    assert ids.tolist() == [[0, 1], [2, 0]]
    empty = triangle.pair_ids([])
    assert empty.shape == (0, 2)
    assert empty.dtype == np.int64
    with pytest.raises(DataError, match="unknown node key 'zz'"):
        triangle.pair_ids([("a", "zz")])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("reordered", [False, True])
def test_graph_from_ids_matches_the_unique_lexsort_build(seed, reordered):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    edges = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
    # self-loops and duplicates in both orientations
    edges = np.concatenate([edges, edges[:5], edges[:5, ::-1], [[0, 0], [n - 1, n - 1]]])
    keys = [f"n{i}" for i in range(n)]
    order = first_seen([edges, np.arange(n)])[::-1] if reordered else None
    g = graph_from_ids(keys, edges, order=order)
    local = edges if order is None else np.argsort(order)[edges]
    want_edges, indptr, indices, loops, dups = unique_lexsort_graph_arrays(n, local)
    assert np.array_equal(g.edges, want_edges)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert (g.build_stats.self_loops_dropped, g.build_stats.duplicates_dropped) == (loops, dups)
    assert g.edges.dtype == g.indptr.dtype == g.indices.dtype == np.int64


def test_key_lookups_match_per_key_loops():
    # keys whose string order is not their id order, with a trailing NUL
    keys = ["n9", "n10", "N5", "é1", "e1", "k\x00", "k", "日本", "a b"]
    pairs = [("n10", "n9"), ("k\x00", "k"), ("日本", "N5"), ("e1", "é1"), ("a b", "n9")]
    g = build_graph(pairs)
    assert g.keys == tuple(dict.fromkeys(k for pair in pairs for k in pair))
    assert g.edge_keys() == loop_edge_keys(g)
    assert g.ids_for(reversed(keys)).tolist() == [g.key_to_id[k] for k in reversed(keys)]
    assert g.pair_ids(pairs).tolist() == [[g.key_to_id[a], g.key_to_id[b]] for a, b in pairs]
    with pytest.raises(DataError, match="unknown node key 'k '"):
        g.ids_for(["k", "k "])


def test_build_graph_takes_rows_as_a_mapping_or_a_table():
    pairs = [("b", "a"), ("c", "b")]
    rows = {"c": [3.0, 0.5], "a": [1.0, 2.0], "iso": [0.0, 0.0], "b": [2.0, 1.0]}
    by_mapping = build_graph(pairs, features=rows, extra_nodes=["iso"])
    table = (list(rows), np.array(list(rows.values()), dtype=np.float32))
    by_table = build_graph(pairs, features=table, extra_nodes=["iso"])
    assert graph_mismatches(by_table, {
        "keys": by_mapping.keys, "edges": by_mapping.edges, "indptr": by_mapping.indptr,
        "indices": by_mapping.indices, "features": by_mapping.features, "sides": None,
    }) == []
    assert by_table.features[by_table.key_to_id["c"]].tolist() == [3.0, 0.5]
    with pytest.raises(DataError, match=r"missing feature rows for nodes: \['b'\]"):
        build_graph(pairs, features=(["c", "a"], table[1][:2]))
    with pytest.raises(DataError, match=r"side rows for unknown nodes: \['zz'\]"):
        build_graph(pairs, sides=(["a", "b", "c", "zz"], np.array([0, 1, 0, 1])))


@pytest.mark.parametrize("pairs", [[[0.7, 1.9]], [("03", "04")]], ids=["floats", "digit-strings"])
def test_checked_pairs_rejects_ids_that_are_not_integers(pairs):
    """0.7 is not node 0, and the key "03" is not node 3: neither is
    converted into an id."""
    with pytest.raises(DataError, match="node ids must be integers"):
        checked_pairs(pairs, 5)


def test_checked_pairs_takes_any_integer_ids():
    for pairs in ([[3, 4]], [(np.int32(3), np.uint8(4))], np.array([[3, 4]], dtype=np.uint16)):
        out = checked_pairs(pairs, 5)
        assert out.dtype == np.int64 and out.tolist() == [[3, 4]]
    assert checked_pairs([], 5).shape == (0, 2)
