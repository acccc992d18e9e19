import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from linkbridge.errors import ConfigError, DataError, NumericError
from linkbridge.graph import build_graph
from linkbridge.propagation import (
    DiffusionConfig,
    build_line_graph,
    diffuse,
    emb_lp,
    line_operator,
    logit_lp,
    sigmoid,
    sym_norm_adjacency,
    xmc_scores,
)
from linkbridge.scorer import score_edges
from linkbridge.selection import Regime, make_split, manifest_training_graph

from oracles import (
    brute_line_adjacency,
    brute_line_edge_count,
    dense_diffuse,
    dense_emb_lp,
    dense_logit_lp,
    dense_sym_norm,
    dense_xmc,
    random_graph_edges,
)


def line_adjacency_dense(lg):
    a = np.zeros((lg.num_edge_nodes, lg.num_edge_nodes))
    for i in range(lg.num_edge_nodes):
        for j in lg.indices[lg.indptr[i] : lg.indptr[i + 1]]:
            a[i, j] = 1.0
    return a


def test_line_graph_of_triangle_is_triangle(triangle):
    lg = build_line_graph(triangle, triangle.edges)
    assert lg.num_edge_nodes == 3
    assert lg.num_line_edges == 3
    a = line_adjacency_dense(lg)
    assert np.array_equal(a, 1.0 - np.eye(3))


def test_line_graph_of_star_is_clique():
    star = build_graph([("c", "x"), ("c", "y"), ("c", "z")])
    lg = build_line_graph(star, star.edges)
    assert lg.num_line_edges == 3
    assert np.array_equal(line_adjacency_dense(lg), 1.0 - np.eye(3))


def test_line_graph_brute_force_oracle(rng):
    for trial in range(20):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(4, min(200, n * (n - 1) // 2)))
        edges = random_graph_edges(rng, n, m)
        g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
        id_edges = [
            tuple(sorted((g.key_to_id[f"n{u}"], g.key_to_id[f"n{v}"]))) for u, v in edges
        ]
        lg = build_line_graph(g, np.array(id_edges))
        expected = brute_line_adjacency(id_edges)
        assert np.array_equal(line_adjacency_dense(lg), expected)
        assert brute_line_edge_count(id_edges) == lg.num_line_edges


def test_line_graph_symmetric_zero_diagonal(rng):
    edges = random_graph_edges(rng, 15, 30)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    lg = build_line_graph(g, g.edges)
    a = line_adjacency_dense(lg)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


def test_line_graph_duplicate_rejected(triangle):
    with pytest.raises(DataError):
        build_line_graph(triangle, triangle.edges, triangle.edges[:1])


def test_line_operator_matches_brute_force_oracle(rng):
    graphs = []
    for _ in range(10):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(3, min(80, n * (n - 1) // 2)))
        edges = random_graph_edges(rng, n, m)
        graphs.append(build_graph([(f"n{u}", f"n{v}") for u, v in edges]))
    # a hub whose 30 incident edges form a 435-edge clique in the line graph
    graphs.append(build_graph([("h", f"x{i}") for i in range(30)]))
    for g in graphs:
        edges = [tuple(e) for e in np.sort(g.edges, axis=1)]
        order = rng.permutation(len(edges))
        edges = [edges[i] for i in order]
        op = line_operator(g, np.array(edges))
        s_dense = dense_sym_norm(brute_line_adjacency(edges))
        x = rng.normal(size=(len(edges), 3))
        assert np.max(np.abs(op @ x - s_dense @ x)) <= 1e-12
        assert np.max(np.abs(op @ x[:, 0] - s_dense @ x[:, 0])) <= 1e-12


def test_line_operator_input_validation(triangle):
    with pytest.raises(DataError):
        line_operator(triangle, triangle.edges, triangle.edges[:1])
    with pytest.raises(DataError):
        line_operator(triangle, np.array([[0, 0]]))
    with pytest.raises(DataError):
        line_operator(triangle, np.array([[0, 3]]))
    with pytest.raises(DataError):
        line_operator(triangle, np.zeros((0, 2), dtype=int))


def test_diffuse_alpha_near_zero_returns_source(rng):
    g_mat = rng.normal(size=(6, 2))
    s = sp.csr_array(np.zeros((6, 6)))
    cfg = DiffusionConfig(alpha=1e-9, k_max=1, tol=0.0)
    out = diffuse(s, np.zeros((6, 2)), g_mat, cfg)
    assert np.allclose(out, (1 - 1e-9) * g_mat)


def test_diffuse_zero_operator_fixed_point(rng):
    g_mat = rng.normal(size=(5, 3))
    s = sp.csr_array(np.zeros((5, 5)))
    cfg = DiffusionConfig(alpha=0.7, k_max=25, tol=0.0)
    out = diffuse(s, g_mat.copy(), g_mat, cfg)
    assert np.allclose(out, 0.3 * g_mat)


def test_diffuse_matches_dense_reference(rng):
    edges = random_graph_edges(rng, 5, 7)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    s = sym_norm_adjacency(g)
    s_dense = dense_sym_norm(np.array(s.todense()) > 0).astype(float)
    # use the library's normalization values for the oracle adjacency
    s_dense = np.array(s.todense())
    z0 = rng.normal(size=(5, 4))
    g_mat = rng.normal(size=(5, 4))
    cfg = DiffusionConfig(alpha=0.85, k_max=20, tol=0.0)
    out = diffuse(s, z0, g_mat, cfg)
    ref = dense_diffuse(s_dense, z0, g_mat, 0.85, 20)
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_diffuse_linearity(rng):
    edges = random_graph_edges(rng, 8, 14)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    s = sym_norm_adjacency(g)
    cfg = DiffusionConfig(alpha=0.6, k_max=12, tol=0.0)
    z0a, ga = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    z0b, gb = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    a_coef, b_coef = 1.7, -0.4
    lhs = diffuse(s, a_coef * z0a + b_coef * z0b, a_coef * ga + b_coef * gb, cfg)
    rhs = a_coef * diffuse(s, z0a, ga, cfg) + b_coef * diffuse(s, z0b, gb, cfg)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_diffuse_contraction_monotone(rng):
    edges = random_graph_edges(rng, 12, 25)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    s = sym_norm_adjacency(g)
    z = rng.normal(size=(12, 1))
    g_mat = rng.normal(size=(12, 1))
    alpha = 0.8
    deltas = []
    prev = z.copy()
    for _ in range(15):
        nxt = alpha * (s @ prev) + (1 - alpha) * g_mat
        deltas.append(np.max(np.abs(nxt - prev)))
        prev = nxt
    for earlier, later in zip(deltas[1:], deltas[2:]):
        assert later <= earlier + 1e-12


def test_diffuse_early_stop(rng):
    edges = random_graph_edges(rng, 6, 8)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    s = sym_norm_adjacency(g)
    g_mat = rng.normal(size=(6, 1))
    tight = diffuse(s, g_mat, g_mat, DiffusionConfig(alpha=0.5, k_max=500, tol=1e-14))
    fixed = np.linalg.solve(np.eye(6) - 0.5 * np.array(s.todense()), 0.5 * g_mat)
    assert np.allclose(tight, fixed, atol=1e-10)


@pytest.mark.parametrize("shape", [(9,), (9, 3)])
def test_diffuse_matches_plain_update_and_keeps_inputs(rng, shape):
    edges = random_graph_edges(rng, 9, 16)
    s = sym_norm_adjacency(build_graph([(f"n{u}", f"n{v}") for u, v in edges]))
    z0, g_mat = rng.normal(size=shape), rng.normal(size=shape)
    kept_z0, kept_g = z0.copy(), g_mat.copy()
    alpha, steps = 0.8, 7
    cfg = DiffusionConfig(alpha=alpha, k_max=steps, tol=0.0)
    out = diffuse(s, z0, g_mat, cfg)
    same = diffuse(s, g_mat, g_mat, cfg)
    want = z0
    for _ in range(steps):
        want = alpha * (s @ want) + (1.0 - alpha) * g_mat
    assert np.array_equal(out, want)
    assert np.array_equal(z0, kept_z0) and np.array_equal(g_mat, kept_g)
    assert np.array_equal(same, diffuse(s, g_mat.copy(), g_mat, cfg))


def test_diffuse_nonfinite_raises():
    s = sp.csr_array(np.eye(3))
    cfg = DiffusionConfig(alpha=0.5, k_max=3, tol=0.0)
    with pytest.raises(NumericError):
        diffuse(s, np.array([np.inf, 0.0, 0.0]), np.zeros(3), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_diffuse_non_finite_input_raises_without_a_warning(triangle, bad):
    """Non-finiteness is read off the step maximum; numpy's warnings for
    inf - inf or 0 * inf on the way there are silenced."""
    ops = [
        sp.csr_array(np.eye(3)),
        np.zeros((3, 3)),
        line_operator(triangle, np.array([[0, 1], [1, 2]])),
    ]
    cfg = DiffusionConfig(alpha=0.5, k_max=3, tol=1.0)
    for op in ops:
        for z0, g_mat in [(np.array([bad, 0.0, 0.0]), np.zeros(3)),
                          (np.zeros(3), np.array([0.0, bad, 0.0]))]:
            n = op.shape[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError):
                    diffuse(op, z0[:n], g_mat[:n], cfg)


def test_diffusion_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError):
        DiffusionConfig(k_max=0).validate()


def _manifest_fixture(seed=3):
    src = build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d"), ("a", "d")]
    )
    tar_edges = [("a", f"t{i}") for i in range(8)] + [
        (f"t{i}", f"t{i+1}") for i in range(7)
    ]
    tar = build_graph(tar_edges)
    manifest = make_split(Regime.TARGET_TO_TARGET, src, tar, neg_ratio=1.0, seed=seed)
    g_train = manifest_training_graph(manifest, src, tar)
    return manifest, g_train


def _manifest_ids(g, manifest):
    pairs = manifest.all_edges()
    ids = g.ids_for([k for p in pairs for k in p]).reshape(-1, 2)
    return pairs, np.sort(ids, axis=1)


def test_logit_lp_perfect_teacher_is_fixed_point():
    manifest, g_train = _manifest_fixture()
    pairs, ids = _manifest_ids(g_train, manifest)
    n_tp, n_tn = len(manifest.train_pos), len(manifest.train_neg)
    # logits whose sigmoid exactly matches the train labels: +/- huge
    z = np.zeros(len(pairs))
    z[:n_tp] = 50.0
    z[n_tp : n_tp + n_tn] = -50.0
    scores = logit_lp(g_train, manifest, z, DiffusionConfig(alpha=0.8, k_max=30))
    assert np.allclose(scores, sigmoid(z), atol=1e-12)


def test_logit_lp_isolated_train_edges_leave_eval_untouched():
    # hand-built manifest whose train edge-nodes share no endpoint with any
    # other manifest edge: no propagation path exists, so eval scores equal
    # the sigmoid predictions exactly
    from linkbridge.selection import SplitManifest

    g = build_graph(
        [("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")],
        extra_nodes=["f", "g", "x"],
    )
    manifest = SplitManifest(
        regime=Regime.TARGET_TO_TARGET,
        seed=0,
        neg_ratio=1.0,
        train_pos=(("a", "b"),),
        train_neg=(("f", "g"),),
        valid_pos=(("c", "d"),),
        valid_neg=(("c", "x"),),
        test_pos=(("d", "e"),),
        test_neg=(("e", "x"),),
    )
    rng = np.random.default_rng(0)
    z = rng.normal(size=6)
    scores = logit_lp(g, manifest, z, DiffusionConfig(alpha=0.8, k_max=40))
    p = sigmoid(z)
    # train scores may keep their own residual; eval scores are untouched
    assert np.allclose(scores[2:], p[2:], atol=1e-12)


def test_logit_lp_matches_dense_oracle():
    manifest, g_train = _manifest_fixture(seed=5)
    pairs, ids = _manifest_ids(g_train, manifest)
    rng = np.random.default_rng(1)
    z = rng.normal(size=len(pairs))
    cfg = DiffusionConfig(alpha=0.8, k_max=25, tol=0.0)
    scores = logit_lp(g_train, manifest, z, cfg)
    n_train = len(manifest.train_pos) + len(manifest.train_neg)
    labels = np.zeros(n_train)
    labels[: len(manifest.train_pos)] = 1.0
    ref = dense_logit_lp(
        g_train.num_nodes,
        [tuple(p) for p in ids],
        z,
        labels,
        n_train,
        0.8,
        25,
    )
    assert np.max(np.abs(scores - ref)) <= 1e-8


def test_logit_lp_output_in_unit_interval():
    manifest, g_train = _manifest_fixture(seed=7)
    pairs, _ = _manifest_ids(g_train, manifest)
    z = np.random.default_rng(2).normal(scale=4.0, size=len(pairs))
    scores = logit_lp(g_train, manifest, z, DiffusionConfig())
    assert np.all(scores >= 0.0)
    assert np.all(scores <= 1.0)


def test_logit_lp_misalignment_error():
    manifest, g_train = _manifest_fixture()
    with pytest.raises(DataError):
        logit_lp(g_train, manifest, np.zeros(3), DiffusionConfig())


def test_emb_lp_single_edge_keeps_raw_scores():
    g = build_graph([("a", "b")], extra_nodes=["c"])
    y = np.array([[1.0, 2.0], [0.5, -1.0], [0.25, 0.75]])
    queries = np.array([[0, 1], [0, 2], [1, 2]])
    scores = emb_lp(g, np.array([[0, 1]]), y, DiffusionConfig(alpha=0.8, k_max=20), queries)
    assert np.allclose(scores, score_edges(y, queries), atol=1e-12)


def test_emb_lp_alpha_zero_limit_keeps_raw_scores(small_pair, rng):
    src, tar, _ = small_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    g_train = manifest_training_graph(manifest, src, tar)
    pos = g_train.ids_for([k for p in manifest.train_pos for k in p]).reshape(-1, 2)
    y = rng.normal(size=(g_train.num_nodes, 6))
    queries = g_train.ids_for([k for p in manifest.test_pos for k in p]).reshape(-1, 2)
    scores = emb_lp(g_train, pos, y, DiffusionConfig(alpha=1e-12, k_max=10), queries)
    assert np.allclose(scores, score_edges(y, queries), atol=1e-8)


def test_emb_lp_matches_dense_oracle(rng):
    edges = random_graph_edges(rng, 20, 35)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    id_edges = [
        tuple(sorted((g.key_to_id[f"n{u}"], g.key_to_id[f"n{v}"]))) for u, v in edges
    ]
    n = g.num_nodes  # nodes that no drawn edge touches are not in g
    y = rng.normal(size=(n, 3))
    queries = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(15)]
    queries = [(min(u, v), max(u, v)) for u, v in queries if u != v]
    cfg = DiffusionConfig(alpha=0.75, k_max=18, tol=0.0)
    scores = emb_lp(g, np.array(id_edges), y, cfg, np.array(queries))
    ref = dense_emb_lp(n, id_edges, y, 0.75, 18, queries)
    assert np.max(np.abs(scores - ref)) <= 1e-8


def test_emb_lp_empty_pos_error(triangle):
    with pytest.raises(DataError):
        emb_lp(triangle, np.zeros((0, 2), dtype=int), np.eye(3), DiffusionConfig(), [(0, 1)])


@pytest.mark.parametrize("score", [
    lambda g, y, q: emb_lp(g, np.array([[0, 1], [1, 2]]), y, DiffusionConfig(), q),
    lambda g, y, q: xmc_scores(g, y, DiffusionConfig(), q),
], ids=["emb_lp", "xmc_scores"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_query_id_out_of_range_rejected(path4, score, bad):
    y = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError):
        score(path4, y, np.array([[0, 1], [0, bad]]))


@pytest.mark.parametrize("score", [
    lambda g, y, q: emb_lp(g, np.array([[0, 1], [1, 2]]), y, DiffusionConfig(), q),
    lambda g, y, q: xmc_scores(g, y, DiffusionConfig(), q),
], ids=["emb_lp", "xmc_scores"])
@pytest.mark.parametrize("rows", [3, 5])
def test_embedding_rows_must_match_graph(path4, score, rows):
    # with 5 rows, query id 4 names a row of y but no node of the 4-node graph
    y = np.arange(2.0 * rows).reshape(rows, 2)
    with pytest.raises(DataError):
        score(path4, y, np.array([[0, 1], [0, rows - 1]]))


def test_xmc_alpha_zero_limit_is_raw_logits(rng):
    edges = random_graph_edges(rng, 8, 12)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    y = rng.normal(size=(8, 4))
    queries = np.array([(i, j) for i in range(8) for j in range(i + 1, 8)])
    out = xmc_scores(g, y, DiffusionConfig(alpha=1e-12, k_max=5), queries)
    assert np.allclose(out, (y @ y.T)[queries[:, 0], queries[:, 1]], atol=1e-9)


def test_xmc_matches_dense_oracle(rng):
    edges = random_graph_edges(rng, 10, 18)
    g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
    id_edges = [
        tuple(sorted((g.key_to_id[f"n{u}"], g.key_to_id[f"n{v}"]))) for u, v in edges
    ]
    y = rng.normal(size=(10, 3))
    queries = [(i, j) for i in range(10) for j in range(i + 1, 10)][:20]
    cfg = DiffusionConfig(alpha=0.8, k_max=15, tol=0.0)
    scores = xmc_scores(g, y, cfg, np.array(queries))
    ref = dense_xmc(10, id_edges, y, 0.8, 15, queries)
    assert np.max(np.abs(scores - ref)) <= 1e-10
