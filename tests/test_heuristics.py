import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from linkbridge import heuristics
from linkbridge.errors import DataError
from linkbridge.graph import build_graph
from linkbridge.heuristics import (
    PprConfig,
    adamic_adar,
    common_neighbors,
    ppr_scores,
)
from linkbridge.propagation import damped_iteration

from oracles import (
    all_sources_ppr_scores,
    brute_adamic_adar,
    chunked_ppr_scores,
    chunked_ppr_vectors,
    closed_form_ppr,
    dense_common_neighbors,
    dense_ppr,
    fewest_chebyshev_rounds,
    iterated_endpoints,
    loop_adamic_adar,
    loop_common_neighbors,
    random_graph_edges,
)


def _random_graph(seed, n=14, m=30):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, n, m)
    g = build_graph([(str(u), str(v)) for u, v in edges])
    # every node comes from an edge, so none has degree 0
    return g, [tuple(e) for e in g.edges]


def _all_pairs(n):
    return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)


def _rounds(cfg):
    """The rounds ppr_scores runs under ``cfg``, counted by the oracle."""
    return fewest_chebyshev_rounds(1.0 - cfg.teleport, cfg.tol, cfg.iterations)


def _chunk_columns(monkeypatch, g, columns):
    """Make ppr_scores iterate ``columns`` sources to a chunk, through a
    byte budget of that many live-node columns of its three arrays."""
    live = np.count_nonzero(g.degrees())
    monkeypatch.setattr(heuristics, "_CHUNK_BYTES", 3 * live * 8 * columns)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_common_neighbors_matches_two_step_walks(seed):
    g, edges = _random_graph(seed)
    queries = _all_pairs(g.num_nodes)
    got = common_neighbors(g, queries)
    want = dense_common_neighbors(g.num_nodes, edges, queries)
    assert np.array_equal(got, want.astype(np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adamic_adar_matches_brute_force(seed):
    g, edges = _random_graph(seed)
    queries = _all_pairs(g.num_nodes)
    got = adamic_adar(g, queries)
    want = brute_adamic_adar(g.num_nodes, edges, queries)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.any(got > 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_ppr_scores_match_closed_form(seed):
    g, edges = _random_graph(seed)
    cfg = PprConfig(teleport=0.2, iterations=2000, tol=1e-13)
    queries = _all_pairs(g.num_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = ppr_scores(g, queries, cfg)
    pi = np.stack(
        [closed_form_ppr(g.num_nodes, edges, s, cfg.teleport) for s in range(g.num_nodes)]
    )
    want = np.array([pi[u, v] + pi[v, u] for u, v in queries])
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    # pi_u[v] + pi_v[u] is the same under P and P^T on an undirected graph
    # (d_u pi_u[v] = d_v pi_v[u]), so the walk direction is checked per vector
    sources = np.arange(g.num_nodes)
    vectors = chunked_ppr_vectors(g, sources, cfg.teleport, _rounds(cfg))
    assert np.allclose(vectors, pi.T, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("teleport", [0.15, 0.05])
def test_ppr_scores_stop_within_tol_of_the_closed_form(teleport):
    """The error of pi_s is at most tol times its initial error e_s - pi_s
    in the D^-1-weighted norm, in which P^T is symmetric; so pi_s[w] is
    within tol*sqrt(d_w) times that initial norm, and a pair's score reads
    pi_s[w] times 1 + d_s/d_w."""
    for seed in range(3):
        g, edges = _random_graph(seed, n=30, m=70)
        queries = _all_pairs(g.num_nodes)
        pi = np.stack(
            [closed_form_ppr(g.num_nodes, edges, s, teleport) for s in range(g.num_nodes)]
        )
        want = pi[queries[:, 0], queries[:, 1]] + pi[queries[:, 1], queries[:, 0]]
        _, s, w = iterated_endpoints(g, queries)
        degs = g.degrees()
        # row s: ||D^-1/2 (e_s - pi_s)||
        initial = np.linalg.norm((np.eye(g.num_nodes) - pi) / np.sqrt(degs), axis=1)
        for tol in (1e-4, 1e-6, 1e-9):
            cfg = PprConfig(teleport=teleport, iterations=1000, tol=tol)
            got = ppr_scores(g, queries, cfg)
            bound = tol * initial[s] * np.sqrt(degs[w]) * (1.0 + degs[s] / degs[w])
            assert np.all(np.abs(got - want) <= bound)


def test_ppr_dangling_mass_restarts_at_source():
    # "e" is isolated: a walk never reaches it, and a walk from it stays put;
    # tol 0 asks for the 7 rounds of the cap, so nothing warns
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d")], extra_nodes=["e"])
    cfg = PprConfig(teleport=0.15, iterations=7, tol=0.0)
    queries = _all_pairs(g.num_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ppr_scores(g, queries, cfg)
    edges = [tuple(e) for e in g.edges]
    pi = np.stack(
        [dense_ppr(g.num_nodes, edges, s, cfg.teleport, cfg.iterations)
         for s in range(g.num_nodes)]
    )
    want = np.array([pi[u, v] + pi[v, u] for u, v in queries])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    iso = g.key_to_id["e"]
    assert np.all(got[(queries == iso).any(axis=1)] == 0.0)


def _sparse_graph(rng, n, n_live, m):
    """n nodes, of which only the first n_live can carry any of the m edges."""
    edges = random_graph_edges(rng, n_live, m)
    return build_graph(
        [(f"{u:06d}", f"{v:06d}") for u, v in edges],
        extra_nodes=[f"{i:06d}" for i in range(n)],
    )


def _sparse_queries():
    """900 nodes, about 500 of them live: random pairs, pairs of live nodes
    and self-pairs, so that many pairs have a degree-0 endpoint and the live
    pairs' endpoints still fill more than one chunk."""
    rng = np.random.default_rng(5)
    g = _sparse_graph(rng, n=900, n_live=500, m=1200)
    queries = np.concatenate([
        rng.integers(0, g.num_nodes, size=(500, 2)),
        rng.choice(np.flatnonzero(g.degrees()), size=(200, 2)),
        np.repeat(rng.integers(0, g.num_nodes, size=(6, 1)), 2, axis=1),
    ])
    return g, queries


PPR_CONFIGS = pytest.mark.parametrize("cfg", [
    PprConfig(),
    PprConfig(teleport=0.1, iterations=4, tol=1e-9),
], ids=["default", "non-converging"])


@PPR_CONFIGS
def test_ppr_scores_equal_the_dense_chunked_iteration(cfg, monkeypatch):
    """Chunks of 256 and of 80 sources give the dense iteration's scores
    bit for bit, and the call warns once when ``iterations`` cuts the
    rounds short of ``tol``, however many chunks it runs."""
    g, queries = _sparse_queries()
    degs = g.degrees()
    assert np.any(degs[np.unique(queries)] == 0)
    _, s, _ = iterated_endpoints(g, queries)
    # the chosen sources fit one chunk of 256, and fill three of 80
    assert 160 < np.unique(s).size <= 256
    want = chunked_ppr_scores(g, queries, cfg.teleport, _rounds(cfg))
    for chunk in (256, 80):
        _chunk_columns(monkeypatch, g, chunk)
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always", RuntimeWarning)
            got = ppr_scores(g, queries, cfg)
        assert np.array_equal(got, want)
        # the defaults reach tol in 15 rounds, and 4 rounds reach no 1e-9
        assert len(ours) == (0 if cfg == PprConfig() else 1)
        assert np.any(got > 0)


@PPR_CONFIGS
def test_ppr_scores_stay_within_tol_of_the_all_sources_iteration(cfg):
    """Iterating only one endpoint of each pair with two live endpoints, by
    the identity d_s pi_s[w] = d_w pi_w[s], gives the scores of iterating
    every endpoint up to rounding, and moves no zero."""
    g, queries = _sparse_queries()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = ppr_scores(g, queries, cfg)
    want = all_sources_ppr_scores(g, queries, cfg.teleport, _rounds(cfg))
    assert np.array_equal(got == 0, want == 0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.any(got > 0) and np.any(got == 0)


def test_ppr_scores_are_the_all_sources_scores_at_a_fixed_round_count():
    """With tol = 0 every chunk runs the 30 rounds of the cap, so one
    column per pair and the identity d_s pi_s[w] = d_w pi_w[s] give the
    scores of iterating both endpoints, up to rounding: also on hub-leaf
    pairs, where d_s/d_w is largest, and on self-pairs of live nodes."""
    g, queries = _sparse_queries()
    degs = g.degrees()
    hub = int(np.argmax(degs))
    leaves = np.flatnonzero(degs == 1)
    live = np.flatnonzero(degs)[:5]
    queries = np.concatenate([
        queries,
        np.stack([np.full(leaves.size, hub), leaves], axis=1),
        np.stack([leaves, np.full(leaves.size, hub)], axis=1),
        np.repeat(live[:, None], 2, axis=1),
    ])
    assert leaves.size > 0 and degs[hub] > 10
    cfg = PprConfig(iterations=30, tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ppr_scores(g, queries, cfg)
    want = all_sources_ppr_scores(g, queries, cfg.teleport, cfg.iterations)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.any(got > 0) and np.any(got == 0)


def test_ppr_scores_do_not_depend_on_the_chunk_width(monkeypatch):
    """At the default tol, chunks of 1, 7 and 256 sources give the same
    scores bit for bit on a 600-node random graph: every chunk runs the
    same rounds, and each column evolves on its own."""
    rng = np.random.default_rng(3)
    g = build_graph([(str(u), str(v)) for u, v in random_graph_edges(rng, 600, 1500)])
    queries = np.concatenate([g.edges, rng.integers(0, g.num_nodes, size=(3000, 2))])
    outs = []
    for columns in (1, 7, 256):
        _chunk_columns(monkeypatch, g, columns)
        outs.append(ppr_scores(g, queries, PprConfig()))
    assert np.any(outs[0] > 0)
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_ppr_iterates_only_the_endpoints_of_live_pairs(monkeypatch):
    """One endpoint per pair with two live endpoints, chosen by the loop
    reference of the source rule."""
    g, queries = _sparse_queries()
    live = (g.degrees()[queries] > 0).all(axis=1)
    _, s, _ = iterated_endpoints(g, queries)
    columns = []

    def spy(operator, z, *args):
        columns.append(z.shape[1])
        return damped_iteration(operator, z, *args)

    monkeypatch.setattr(heuristics, "damped_iteration", spy)
    ppr_scores(g, queries, PprConfig())
    assert sum(columns) == np.unique(s).size
    assert sum(columns) < np.unique(queries[live]).size
    assert len(columns) == 1


def test_ppr_scores_memory_is_o_live_nodes():
    """100k nodes, a few hundred of them with edges, a few thousand pairs:
    far below the N x |sources| float64 matrix of the full iteration."""
    rng = np.random.default_rng(7)
    g = _sparse_graph(rng, n=100_000, n_live=400, m=1500)
    queries = np.concatenate([
        rng.integers(0, g.num_nodes, size=(2000, 2)),
        rng.choice(np.flatnonzero(g.degrees()), size=(1000, 2)),
    ])
    dense_bytes = g.num_nodes * np.unique(queries).size * 8
    tracemalloc.start()
    try:
        scores = ppr_scores(g, queries, PprConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(scores > 0)
    assert peak < dense_bytes / 100


@pytest.mark.parametrize("score", [
    common_neighbors,
    adamic_adar,
    lambda g, q: ppr_scores(g, q, PprConfig()),
])
def test_out_of_range_endpoint_rejected(triangle, score):
    with pytest.raises(DataError):
        score(triangle, np.array([[0, 3]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cn_and_aa_equal_the_per_pair_loops(seed):
    """Below 8 terms the sparse product and np.sum both add left to right,
    so AA is bit-equal to the loop on pairs with 0-7 shared neighbours."""
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, 40, 250)
    g = build_graph([(str(u), str(v)) for u, v in edges], extra_nodes=["isolated"])
    queries = np.concatenate([_all_pairs(g.num_nodes), np.repeat(np.arange(4)[:, None], 2, axis=1)])
    cn = common_neighbors(g, queries)
    assert cn.dtype == np.int64
    assert np.array_equal(cn, loop_common_neighbors(g, queries))
    few = cn < 8
    assert set(range(8)) <= set(cn[few].tolist())
    assert np.array_equal(adamic_adar(g, queries)[few], loop_adamic_adar(g, queries[few]))


def test_adamic_adar_with_many_shared_neighbours_is_within_2_ulp_of_the_loop():
    """From 8 terms on np.sum adds pairwise and the sparse product still
    left to right: pair k shares k neighbours, the j-th of degree 2 + j."""
    pairs = []
    for k in range(8, 17):
        for j in range(k):
            hub = f"w{k}.{j}"
            pairs += [(f"u{k}", hub), (f"v{k}", hub)]
            pairs += [(hub, f"leaf{k}.{j}.{i}") for i in range(j)]
    g = build_graph(pairs)
    queries = g.ids_for(
        [key for k in range(8, 17) for key in (f"u{k}", f"v{k}")]
    ).reshape(-1, 2)
    assert np.array_equal(common_neighbors(g, queries), np.arange(8, 17))
    np.testing.assert_array_max_ulp(
        adamic_adar(g, queries), loop_adamic_adar(g, queries), maxulp=2
    )
