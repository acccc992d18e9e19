import numpy as np
import pytest

from linkbridge.errors import DataError
from linkbridge.graph import (
    build_graph,
    node_intersection,
    union_graph,
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
    with pytest.raises(DataError):
        union_graph(g1, g2)


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
