import numpy as np
import pytest

from linkbridge import datasets
from linkbridge.datasets import SyntheticSpec, generate_synthetic, temporal_split
from linkbridge.errors import ConfigError, DataError
from linkbridge.graph import graph_from_ids, node_intersection

from oracles import graph_mismatches, string_pair_graph


def test_temporal_boundary_containment():
    edges = [("a", "b", 2000), ("b", "c", 2005), ("c", "d", 2010)]
    src, tar = temporal_split(edges, y_low=2004, y_high=2006)
    src_pairs = set(src.edge_keys())
    tar_pairs = set(tar.edge_keys())
    assert src_pairs == {("a", "b"), ("b", "c")}
    assert tar_pairs == {("b", "c"), ("c", "d")}


def test_temporal_total_overlap():
    edges = [("a", "b", 2005), ("b", "c", 2005)]
    src, tar = temporal_split(edges, y_low=2004, y_high=2006)
    assert set(src.edge_keys()) == set(tar.edge_keys())


def test_temporal_window_rule():
    years = [1990, 1995, 2000, 2005, 2010]
    edges = [(f"u{i}", f"v{i}", y) for i, y in enumerate(years)]
    # keep the node sets overlapping via one shared mid-window edge
    edges.append(("u0", "v4", 2001))
    src, tar = temporal_split(edges, y_low=1999, y_high=2002)
    src_pairs = {tuple(sorted(p)) for p in src.edge_keys()}
    tar_pairs = {tuple(sorted(p)) for p in tar.edge_keys()}
    for eu, ev, year in edges:
        pair = tuple(sorted((eu, ev)))
        assert (pair in src_pairs) == (year < 2002)
        assert (pair in tar_pairs) == (year > 1999)


def test_temporal_errors():
    edges = [("a", "b", 2000)]
    with pytest.raises(DataError):
        temporal_split(edges, 2006, 2004)  # y_low >= y_high
    with pytest.raises(DataError):
        temporal_split(edges, 1990, 1995)  # empty source
    with pytest.raises(DataError):
        temporal_split(edges, 2005, 2010)  # empty target
    with pytest.raises(DataError):
        temporal_split([("a", "b", None)], 1999, 2001)
    # nothing in the shared window and disjoint node sets -> empty intersection
    with pytest.raises(DataError):
        temporal_split([("a", "b", 1990), ("c", "d", 2010)], 1991, 2009)


def test_temporal_feature_row_of_no_edge_is_rejected():
    edges = [("a", "b", 2000), ("b", "c", 2005), ("c", "d", 2010)]
    features = {k: [float(i)] for i, k in enumerate("abcd")}
    src, tar = temporal_split(edges, 2004, 2006, features=features)
    assert src.features.ravel().tolist() == [0.0, 1.0, 2.0]
    assert tar.features.ravel().tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(DataError, match="feature rows for unknown nodes: \\['typo'\\]"):
        temporal_split(edges, 2004, 2006, features=features | {"typo": [9.0]})


def _spec(**kw):
    base = dict(
        n_src=200,
        n_tar=100,
        overlap_ratio=0.3,
        mean_deg_src=6,
        mean_deg_tar=3,
        feature_dim=4,
        feature_shift=0.5,
        seed=0,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def test_overlap_count_arithmetic():
    spec = _spec(n_src=2000, n_tar=800, overlap_ratio=0.3, mean_deg_src=4, mean_deg_tar=2)
    src, tar, _ = generate_synthetic(spec)
    assert len(node_intersection(src, tar)) == 240


def test_synthetic_deterministic():
    a_src, a_tar, a_held = generate_synthetic(_spec(seed=5))
    b_src, b_tar, b_held = generate_synthetic(_spec(seed=5))
    assert a_src.edge_keys() == b_src.edge_keys()
    assert a_tar.edge_keys() == b_tar.edge_keys()
    assert a_held == b_held
    assert np.array_equal(a_src.features, b_src.features)
    c_src, _, _ = generate_synthetic(_spec(seed=6))
    assert a_src.edge_keys() != c_src.edge_keys()


def test_heldout_endpoints_inside_target():
    src, tar, heldout = generate_synthetic(_spec())
    assert len(heldout) > 0
    tar_nodes = set(tar.keys)
    for u, v in heldout:
        assert u in tar_nodes and v in tar_nodes
    # held-out edges were removed, not kept
    kept = {tuple(sorted(p)) for p in tar.edge_keys()}
    for pair in heldout:
        assert tuple(sorted(pair)) not in kept


def test_density_gap():
    src, tar, _ = generate_synthetic(_spec(n_src=500, n_tar=500, overlap_ratio=0.5))
    # mean degree 2E/N
    assert 2 * src.num_edges / src.num_nodes > 2 * tar.num_edges / tar.num_nodes


def test_shared_nodes_share_feature_rows():
    src, tar, _ = generate_synthetic(_spec())
    shared = node_intersection(src, tar)
    for key in shared[:10]:
        assert np.allclose(
            src.features[src.key_to_id[key]], tar.features[tar.key_to_id[key]]
        )


def test_no_shift_equal_degree_limit():
    # with full overlap, zero shift and equal density the two domains are
    # draws from one distribution over the same node set
    spec = _spec(
        n_src=300, n_tar=300, overlap_ratio=1.0, mean_deg_src=4.0, mean_deg_tar=4.0,
        feature_shift=0.0,
    )
    src, tar, heldout = generate_synthetic(spec)
    assert set(src.keys) == set(tar.keys)
    assert heldout == []
    m_src = 2 * src.num_edges / src.num_nodes
    m_tar = 2 * tar.num_edges / tar.num_nodes
    assert abs(m_src - m_tar) < 0.5


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        _spec(overlap_ratio=0.0)
    with pytest.raises(ConfigError):
        _spec(mean_deg_src=2, mean_deg_tar=3)
    with pytest.raises(ConfigError):
        _spec(n_src=10, mean_deg_src=20)
    with pytest.raises(ConfigError):
        _spec(overlap_ratio=0.001, n_src=100, n_tar=100)
    with pytest.raises(ConfigError):
        _spec(feature_dim=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generate_synthetic_matches_string_pair_build(monkeypatch, seed):
    spec = SyntheticSpec(n_src=60, n_tar=30, overlap_ratio=0.4, mean_deg_src=4,
                         mean_deg_tar=2, feature_dim=3, feature_shift=0.3, seed=seed)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)  # (universe keys, edge ids, universe features)
        return graph_from_ids(*args, **kwargs)

    monkeypatch.setattr(datasets, "graph_from_ids", spy)
    src, tar, _ = generate_synthetic(spec)
    n_overlap = int(round(spec.overlap_ratio * min(spec.n_src, spec.n_tar)))
    n_union = spec.n_src + spec.n_tar - n_overlap
    members = (range(spec.n_src), [*range(n_overlap), *range(spec.n_src, n_union)])
    assert len(calls) == 2
    for g, (keys, edge_ids, features), m in zip((src, tar), calls, members):
        assert graph_mismatches(g, string_pair_graph(keys, edge_ids, features, m)) == []
