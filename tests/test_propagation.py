import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

import linkbridge.propagation as propagation
from linkbridge.errors import ConfigError, DataError, NumericError
from linkbridge.graph import build_graph
from linkbridge.propagation import (
    DiffusionConfig,
    LineOperator,
    build_line_graph,
    chebyshev_rounds,
    damped_iteration,
    diffuse,
    emb_lp,
    line_operator,
    logit_lp,
    sigmoid,
    sym_norm_adjacency,
    xmc_scores,
)
from linkbridge.scorer import score_edges
from linkbridge.selection import Regime, make_split, manifest_training_graph, split_ids

from oracles import (
    brute_line_adjacency,
    brute_line_edge_count,
    chebyshev_bound,
    chebyshev_weights,
    dense_adjacency,
    dense_diffuse,
    dense_emb_lp,
    dense_incidence,
    dense_logit_lp,
    dense_sym_norm,
    dense_xmc,
    fewest_chebyshev_rounds,
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


@pytest.mark.parametrize("tail", [(), (3,)])
def test_line_operator_is_the_two_step_product(rng, tail):
    """``op @ x`` is C^T*(C*x) and then minus 2/k_e*x[e], bit for bit, with
    C = B*D_L^-1/2 built here from the incidence lists, for a 1-D and a 2-D
    state; the hub's edges, and an isolated edge, are among the rows."""
    edges = np.array(random_graph_edges(rng, 12, 30) + [(20, 21)] + [(22, i) for i in range(23, 30)])
    lo, hi = edges[:, 0], edges[:, 1]
    op = LineOperator(30, lo, hi)
    m = lo.size
    scale = np.zeros(m)
    live = op.line_degrees > 0
    scale[live] = 1.0 / np.sqrt(op.line_degrees[live].astype(float))
    c = sp.csr_array(
        (np.tile(scale, 2), (np.concatenate([lo, hi]), np.tile(np.arange(m), 2))), shape=(30, m)
    )
    x = rng.normal(size=(m,) + tail)
    diag = (2.0 * scale * scale).reshape((-1,) + (1,) * (x.ndim - 1))
    want = c.T.tocsr() @ (c @ x)
    want -= diag * x
    assert np.array_equal(op @ x, want)


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


def _chebyshev_rounds(operator, z0, g_mat, alpha, steps):
    """diffuse's rounds written out in its order of operations: U =
    Z/(1-alpha) solves U = alpha*S*U + G; each round makes the step
    D <- w*(alpha*S*U + G - U) + (w-1)*D and then U <- U + D."""
    u, step = z0 / (1.0 - alpha), np.zeros_like(z0)
    for w in chebyshev_weights(alpha, steps):
        step = step * (w - 1.0) + (alpha * (operator @ u) + g_mat - u) * w
        u = u + step
    return u * (1.0 - alpha)


def test_chebyshev_rounds_are_the_fewest_within_the_bound():
    """The closed form counts the rounds that the bound 2*rho^k/(1 +
    rho^(2k)), counted up one round at a time, needs to reach tol: 21 at
    alpha 0.8 and tol 1e-6, 15 at PPR's alpha 0.85 and tol 5e-4."""
    assert chebyshev_rounds(0.8, 1e-6, 50) == 21
    assert chebyshev_rounds(0.85, 5e-4, 50) == 15
    for alpha in (1e-12, 0.3, 0.5, 0.8, 0.85, 0.95, 0.999):
        for tol in (0.0, 1e-14, 1e-9, 1e-6, 5e-4, 0.3, 1.0, 3.0):
            for cap in (1, 7, 50, 1000):
                k = chebyshev_rounds(alpha, tol, cap)
                assert k == fewest_chebyshev_rounds(alpha, tol, cap), (alpha, tol, cap)
                if 1 < k < cap:
                    assert chebyshev_bound(alpha, k) <= tol < chebyshev_bound(alpha, k - 1)


@pytest.mark.parametrize("alpha", [0.8, 0.95])
@pytest.mark.parametrize("line", [False, True], ids=["sym_norm_adjacency", "LineOperator"])
def test_diffuse_stops_within_tol_of_the_fixed_point(rng, alpha, line):
    """Against np.linalg.solve of (I - alpha*S)Z = (1-alpha)*G, on the
    graph's symmetric-normalized adjacency and on its line graph, at three
    tolerances: ||Z - Z*|| <= tol*||Z0 - Z*|| in the Frobenius norm, in
    which both operators are symmetric."""
    for tol in (1e-4, 1e-6, 1e-9):
        edges = random_graph_edges(rng, 30, 70)
        g = build_graph([(f"n{u}", f"n{v}") for u, v in edges])
        if line:
            pairs = [tuple(e) for e in np.sort(g.edges, axis=1)]
            op = line_operator(g, np.array(pairs))
            dense = dense_sym_norm(brute_line_adjacency(pairs))
        else:
            op = sym_norm_adjacency(g)
            dense = op.toarray()
        g_mat = rng.normal(size=(op.shape[0], 3))
        out = diffuse(op, g_mat, g_mat, DiffusionConfig(alpha=alpha, k_max=1000, tol=tol))
        fixed = np.linalg.solve(np.eye(op.shape[0]) - alpha * dense, (1.0 - alpha) * g_mat)
        assert np.linalg.norm(out - fixed) <= tol * np.linalg.norm(g_mat - fixed)


def test_broadcast_sized_line_diffusion_converges_within_25_rounds(rng, monkeypatch):
    """Logit-LP's line-graph diffusion over as many edges as the broadcast
    benchmark's positives (1280 nodes, 6439 edges) at alpha 0.8 and tol
    1e-6, on 12 columns at once: each column evolves on its own, so they are
    12 smooth stand-ins for its residual vector. The error shrinks by 0.5 a
    round, so 21 rounds reach tol, and the result is within tol of the
    fixed point relative to the initial error. A plain step shrinks it by
    0.8 and needs 62 rounds; 200 of them on the materialized line graph give
    the fixed point within 0.8^200 = 4e-20."""
    edges = np.array(random_graph_edges(rng, 1280, 6439))
    op = LineOperator(1280, edges[:, 0], edges[:, 1])
    y = rng.normal(size=(1280, 12))
    state = (y[edges[:, 0]] + y[edges[:, 1]]) * 0.5
    rounds = []

    def spy(operator, z, *args):
        rounds.append(args[-1])
        return damped_iteration(operator, z, *args)

    monkeypatch.setattr(propagation, "damped_iteration", spy)
    out = diffuse(op, state, state, DiffusionConfig(alpha=0.8, k_max=25, tol=1e-6))
    assert rounds == [21]
    g = build_graph([], extra_nodes=[f"n{i}" for i in range(1280)])
    s_line = build_line_graph(g, edges).norm_adjacency
    fixed = state
    for _ in range(200):
        fixed = 0.8 * (s_line @ fixed) + 0.2 * state
    assert np.linalg.norm(out - fixed) <= 1e-6 * np.linalg.norm(state - fixed)


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
    assert np.array_equal(out, _chebyshev_rounds(s, z0, g_mat, alpha, steps))
    assert np.array_equal(z0, kept_z0) and np.array_equal(g_mat, kept_g)
    assert np.array_equal(same, diffuse(s, g_mat.copy(), g_mat, cfg))


def test_diffuse_nonfinite_raises():
    s = sp.csr_array(np.eye(3))
    cfg = DiffusionConfig(alpha=0.5, k_max=3, tol=0.0)
    with pytest.raises(NumericError):
        diffuse(s, np.array([np.inf, 0.0, 0.0]), np.zeros(3), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_diffuse_non_finite_input_raises_without_a_warning(triangle, rng, bad):
    """Non-finiteness is read off the iterate after the loop; numpy's
    warnings for inf - inf or 0 * inf on the way there are silenced. A bad
    value in the last row of a wide line state raises too."""
    ops = [
        sp.csr_array(np.eye(3)),
        np.zeros((3, 3)),
        line_operator(triangle, np.array([[0, 1], [1, 2]])),
    ]
    cases = []
    for op in ops:
        n = op.shape[0]
        cases += [(op, np.array([bad, 0.0, 0.0])[:n], np.zeros(n)),
                  (op, np.zeros(n), np.array([0.0, bad, 0.0])[:n])]
    edges = np.array(random_graph_edges(rng, 12, 23))
    wide = LineOperator(12, edges[:, 0], edges[:, 1])
    for where in range(2):
        inputs = [rng.normal(size=(23, 3)), rng.normal(size=(23, 3))]
        inputs[where][-1, 1] = bad
        cases.append((wide, *inputs))
    cfg = DiffusionConfig(alpha=0.5, k_max=3, tol=1.0)
    for op, z0, g_mat in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                diffuse(op, z0, g_mat, cfg)


@pytest.mark.parametrize("shape", [(23,), (23, 3)])
def test_line_graph_diffusion_is_the_plain_update(rng, shape):
    edges = np.array(random_graph_edges(rng, 12, shape[0]))
    op = LineOperator(12, edges[:, 0], edges[:, 1])
    z0, g_mat = rng.normal(size=shape), rng.normal(size=shape)
    kept_z0, kept_g = z0.copy(), g_mat.copy()
    alpha, steps = 0.8, 6
    out = diffuse(op, z0, g_mat, DiffusionConfig(alpha=alpha, k_max=steps, tol=0.0))
    assert np.array_equal(out, _chebyshev_rounds(op, z0, g_mat, alpha, steps))
    assert np.array_equal(z0, kept_z0) and np.array_equal(g_mat, kept_g)


def test_line_graph_diffusion_holds_its_state_the_source_and_one_product(rng):
    """A line-graph diffusion holds its iterate, its last step and one
    product, and within ``@`` first the N-row C*x and then, once C*x is
    freed, the m-row diagonal term, within 1 MiB, besides the caller's
    source: a round that keeps one more state alive, such as the last
    round's product or (1-alpha)*G, is over. Checked on a wide state of 160
    columns and on the 1-D residual state that logit-LP diffuses."""
    edges = np.array(random_graph_edges(rng, 1400, 5000))
    ids = np.arange(20_000)
    ring = np.concatenate([np.stack([ids, (ids + k) % ids.size], axis=1) for k in range(1, 11)])
    cases = [
        (1400, edges, rng.normal(size=(edges.shape[0], 160))),
        (ids.size, np.sort(ring, axis=1), rng.normal(size=ring.shape[0])),
    ]
    cfg = DiffusionConfig(k_max=2, tol=0.0)
    for n, pairs, feats in cases:
        op = LineOperator(n, pairs[:, 0], pairs[:, 1])
        node_bytes = n * feats.nbytes // feats.shape[0]
        tracemalloc.start()
        try:
            diffuse(op, feats, feats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * feats.nbytes + max(node_bytes, feats.nbytes) + 2**20


def test_sparse_operator_diffusion_holds_under_three_states(rng):
    """On a sparse operator the diffusion holds its working copy, its last
    step and one product, and nothing keeps the starting state or the last
    round's product alive."""
    edges = random_graph_edges(rng, 2000, 8000)
    s = sym_norm_adjacency(build_graph([(f"n{u}", f"n{v}") for u, v in edges]))
    z = rng.normal(size=(s.shape[0], 64))
    tracemalloc.start()
    try:
        diffuse(s, z, z, DiffusionConfig(k_max=3, tol=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * z.nbytes


def test_diffusion_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(k_max=0)


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
    scores = logit_lp(g_train, split_ids(manifest, g_train), z, DiffusionConfig(alpha=0.8, k_max=30))
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
    scores = logit_lp(g, split_ids(manifest, g), z, DiffusionConfig(alpha=0.8, k_max=40))
    p = sigmoid(z)
    # train scores may keep their own residual; eval scores are untouched
    assert np.allclose(scores[2:], p[2:], atol=1e-12)


def test_logit_lp_matches_dense_oracle():
    manifest, g_train = _manifest_fixture(seed=5)
    pairs, ids = _manifest_ids(g_train, manifest)
    rng = np.random.default_rng(1)
    z = rng.normal(size=len(pairs))
    cfg = DiffusionConfig(alpha=0.8, k_max=25, tol=0.0)
    scores = logit_lp(g_train, split_ids(manifest, g_train), z, cfg)
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
    scores = logit_lp(g_train, split_ids(manifest, g_train), z, DiffusionConfig())
    assert np.all(scores >= 0.0)
    assert np.all(scores <= 1.0)


def test_logit_lp_misalignment_error():
    manifest, g_train = _manifest_fixture()
    with pytest.raises(DataError):
        logit_lp(g_train, split_ids(manifest, g_train), np.zeros(3), DiffusionConfig())


def test_emb_lp_single_edge_hands_its_endpoints_their_mean():
    """A lone edge has weight 1 on itself in M, so its diffused row stays
    its endpoint mean, which both endpoints take; node c keeps its row."""
    g = build_graph([("a", "b")], extra_nodes=["c"])
    y = np.array([[1.0, 2.0], [0.5, -1.0], [0.25, 0.75]])
    queries = np.array([[0, 1], [0, 2], [1, 2]])
    scores = emb_lp(g, np.array([[0, 1]]), y, DiffusionConfig(alpha=0.8, k_max=20), queries)
    mean = (y[0] + y[1]) / 2
    want = score_edges(np.array([mean, mean, y[2]]), queries)
    assert np.allclose(scores, want, rtol=1e-12, atol=0.0)


def test_emb_lp_alpha_zero_limit_is_the_undiffused_endpoint_mean(small_pair, rng):
    """With no diffusion a node takes the mean of its edges' (y[u] + y[v]) / 2,
    that is half its own row plus half its neighbours' mean over the
    positive edges; every node without one keeps its row."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    g_train = manifest_training_graph(manifest, src, tar)
    pos = g_train.ids_for([k for p in manifest.train_pos for k in p]).reshape(-1, 2)
    n = g_train.num_nodes
    y = rng.normal(size=(n, 6))
    queries = g_train.ids_for([k for p in manifest.test_pos for k in p]).reshape(-1, 2)
    scores = emb_lp(g_train, pos, y, DiffusionConfig(alpha=1e-12, k_max=10), queries)
    adj = np.zeros((n, n))
    adj[pos[:, 0], pos[:, 1]] = adj[pos[:, 1], pos[:, 0]] = 1.0
    deg = adj.sum(axis=1)
    touched = deg > 0
    assert 0 < touched.sum() < n
    want = y.copy()
    want[touched] = (y[touched] + (adj @ y)[touched] / deg[touched, None]) / 2
    assert np.allclose(scores, score_edges(want, queries), atol=1e-8)


def test_emb_lp_matches_dense_oracle(rng):
    """Against the dense diffusion of B^T*y/2 on M = B^T*D^-1*B / 2 and its
    D^-1*B read-out, to 1e-12 of the largest score. Among the positive
    edges a lone one, (18, 19), whose endpoints take its mean, and nodes 20
    and 21 without a positive edge, which keep their rows of y."""
    edges = random_graph_edges(rng, 18, 35) + [(18, 19)]
    g = build_graph([], extra_nodes=[f"n{i}" for i in range(22)])
    n = g.num_nodes
    y = rng.normal(size=(n, 3))
    queries = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(15)]
    queries = [(min(u, v), max(u, v)) for u, v in queries if u != v]
    queries += [(18, 19), (0, 18), (19, 20), (20, 21)]
    cfg = DiffusionConfig(alpha=0.75, k_max=18, tol=0.0)
    scores = emb_lp(g, np.array(edges), y, cfg, np.array(queries))
    ref = dense_emb_lp(n, edges, y, 0.75, 18, queries)
    assert np.max(np.abs(scores - ref)) <= 1e-12 * np.max(np.abs(ref))
    mean = (y[18] + y[19]) / 2
    assert np.allclose(scores[[-4, -2]], [mean @ mean, mean @ y[20]], rtol=1e-12, atol=0.0)
    assert scores[-1] == score_edges(y, np.array([(20, 21)]))[0]


def test_line_graph_m_maps_incidence_rows_through_the_lazy_walk(rng):
    """On a random graph with nodes of no edge: M*B^T = B^T*P for
    M = B^T*D^-1*B / 2 and the lazy walk P = (I + D^-1*A)/2, and P's
    eigenvalues are real and lie in [0, 1], the Chebyshev loop's premise."""
    n = 40
    edges = random_graph_edges(rng, 34, 70)
    b = dense_incidence(n, edges)
    degs = b.sum(axis=1)
    assert (degs == 0).any()
    inv = np.divide(1.0, degs, out=np.zeros(n), where=degs > 0)
    m_line = 0.5 * b.T @ (inv[:, None] * b)
    walk = 0.5 * (np.eye(n) + inv[:, None] * dense_adjacency(n, edges))
    assert np.allclose(m_line @ b.T, b.T @ walk, rtol=0.0, atol=1e-14)
    eig = np.linalg.eigvals(walk)
    assert np.abs(eig.imag).max() < 1e-12
    assert eig.real.min() > -1e-12 and eig.real.max() < 1.0 + 1e-12


def _walk(num_nodes, pos):
    """The lazy walk P = (I + D^-1*A)/2 of the positive edges as a CSR from
    its dense form, each entry 1/2 or 1/(2*k_u)."""
    degs = np.bincount(pos.ravel(), minlength=num_nodes)
    p = 0.5 * np.eye(num_nodes)
    for u, v in pos:
        p[u, v], p[v, u] = 0.5 / degs[u], 0.5 / degs[v]
    return sp.csr_array(p)


def _whole_state_update(num_nodes, pos, y, cfg):
    """emb_lp's node update from one diffusion of the whole N x d Y on the
    lazy walk P: P*diffuse(P, Y) for the nodes with a positive edge, and
    every other node keeping its row of y."""
    walk = _walk(num_nodes, pos)
    y_upd = walk @ diffuse(walk, y, y, cfg)
    touched = np.bincount(pos.ravel(), minlength=num_nodes) > 0
    y_upd[~touched] = y[~touched]
    return y_upd


def _emb_lp_case(rng):
    """40 nodes: 60 random positive edges among the first 30, one isolated
    edge (30, 31), and nodes 32-39 without a positive edge."""
    pos = np.array(random_graph_edges(rng, 30, 60) + [(30, 31)])
    g = build_graph([], extra_nodes=[f"n{i}" for i in range(40)])
    queries = np.array([(i, j) for i in range(0, 40, 3) for j in range(i + 1, 40, 5)])
    return g, pos, queries


def _column_blocks(monkeypatch, rows, cols_per_block):
    """Make emb_lp and xmc_scores cut Y into blocks of ``cols_per_block``
    columns, through a budget of two such blocks of the operator's ``rows``
    rows: every node for xmc_scores, the nodes with a positive edge for
    emb_lp. Return the list that records each block's diffusion as
    ``(width, rounds)``."""
    monkeypatch.setattr(propagation, "_STATE_BYTES", 2 * cols_per_block * rows * 8)
    runs = []

    def spy(operator, z, *args):
        runs.append((z.shape[-1], args[-1]))
        return damped_iteration(operator, z, *args)

    monkeypatch.setattr(propagation, "damped_iteration", spy)
    return runs


@pytest.mark.parametrize("cols_per_block", [1, 2, 5])
def test_emb_lp_is_the_whole_state_diffusion(rng, monkeypatch, cols_per_block):
    """At tol=0 the column-block walk is the one whole-Y node diffusion bit
    for bit, whatever the block width: one column, blocks of 2, 2 and 1
    columns, or all five."""
    g, pos, queries = _emb_lp_case(rng)
    y = rng.normal(size=(g.num_nodes, 5))
    cfg = DiffusionConfig(alpha=0.8, k_max=12, tol=0.0)
    want = score_edges(_whole_state_update(g.num_nodes, pos, y, cfg), queries)
    runs = _column_blocks(monkeypatch, np.unique(pos).size, cols_per_block)
    assert np.array_equal(emb_lp(g, pos, y, cfg, queries), want)
    assert [width for width, _ in runs] == [
        min(cols_per_block, 5 - i) for i in range(0, 5, cols_per_block)
    ]


@pytest.mark.parametrize("cols_per_block", [1, 2, 3])
def test_emb_lp_stops_each_column_block_on_its_own(rng, monkeypatch, cols_per_block):
    """Every block runs the 31 rounds that alpha 0.8 and tol 1e-9 fix, also
    a column 1e-6 times smaller alone in its block, so whatever the block
    width the result is the whole-Y diffusion bit for bit."""
    g, pos, queries = _emb_lp_case(rng)
    y = rng.normal(size=(g.num_nodes, 3))
    y[:, 0] *= 1e-6
    cfg = DiffusionConfig(alpha=0.8, k_max=200, tol=1e-9)
    whole = score_edges(_whole_state_update(g.num_nodes, pos, y, cfg), queries)
    runs = _column_blocks(monkeypatch, np.unique(pos).size, cols_per_block)
    out = emb_lp(g, pos, y, cfg, queries)
    rounds = fewest_chebyshev_rounds(0.8, 1e-9, 200)
    assert rounds == 31
    assert runs == [(min(cols_per_block, 3 - i), rounds) for i in range(0, 3, cols_per_block)]
    assert np.array_equal(out, whole)


def _block_width_case(rng, monkeypatch, score, rows):
    """``score(g, pos, y, queries)`` at the default tol with Y cut into
    blocks of 1, 5 and 24 columns of the operator's ``rows(pos)`` rows, on
    a 600-node random graph whose edges are ``pos``."""
    pos = np.array(random_graph_edges(rng, 600, 1500))
    g = build_graph([(f"n{u}", f"n{v}") for u, v in pos], extra_nodes=[f"n{i}" for i in range(600)])
    y = rng.normal(size=(600, 24))
    queries = np.concatenate([pos, rng.integers(0, 600, size=(3000, 2))])
    outs = []
    for cols_per_block in (1, 5, 24):
        runs = _column_blocks(monkeypatch, rows(pos), cols_per_block)
        outs.append(score(g, pos, y, queries))
        assert len(runs) == -(-24 // cols_per_block)
    return outs


def test_emb_lp_scores_do_not_depend_on_the_block_width(rng, monkeypatch):
    """Blocks of 1, 5 and 24 columns give the same scores bit for bit."""
    outs = _block_width_case(
        rng, monkeypatch, lambda g, pos, y, q: emb_lp(g, pos, y, DiffusionConfig(), q),
        lambda pos: np.unique(pos).size,
    )
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_xmc_scores_do_not_depend_on_the_block_width(rng, monkeypatch):
    """xmc_scores walks the same column blocks as emb_lp: blocks of 1, 5
    and 24 columns give the same scores bit for bit."""
    outs = _block_width_case(
        rng, monkeypatch, lambda g, pos, y, q: xmc_scores(g, y, DiffusionConfig(), q),
        lambda pos: 600,
    )
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_emb_lp_non_finite_input_raises_on_every_worker_count(rng, monkeypatch, workers, bad):
    """A non-finite Y raises NumericError from the block that meets it, in
    each of ``workers`` threads that call emb_lp at once, with warnings as
    errors: no RuntimeWarning is raised instead. emb_lp keeps no shared
    state and starts no thread of its own."""
    g, pos, queries = _emb_lp_case(rng)
    y = rng.normal(size=(g.num_nodes, 6))
    _column_blocks(monkeypatch, np.unique(pos).size, 2)
    cfg = DiffusionConfig(alpha=0.8, k_max=5, tol=0.0)
    bad_y = y.copy()
    bad_y[pos[3, 0], 4] = bad
    want = emb_lp(g, pos, y, cfg, queries)
    threads = threading.active_count()

    def call(inputs):
        try:
            return emb_lp(g, pos, inputs, cfg, queries)
        except NumericError as exc:
            return exc

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(call, [y, bad_y] * workers))
    assert threading.active_count() == threads
    for good, raised in zip(outs[::2], outs[1::2]):
        assert np.array_equal(good, want)
        assert isinstance(raised, NumericError)


@pytest.mark.parametrize("cols_per_block", [1, 2])
def test_emb_lp_overflowing_diffusion_raises(monkeypatch, cols_per_block):
    """A finite Y can overflow in the diffusion: the star's centre holds
    1e308 in column 1, which the loop's start Y/(1-alpha) takes past the
    float range. That is a NumericError, raised under warnings as errors,
    not a RuntimeWarning or NaN scores, from the second block as from the
    only one."""
    g = build_graph([], extra_nodes=[f"n{i}" for i in range(6)])
    pos = np.array([(0, i) for i in range(1, 6)])
    y = np.zeros((6, 2))
    y[0, 1] = 1e308
    _column_blocks(monkeypatch, np.unique(pos).size, cols_per_block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            emb_lp(g, pos, y, DiffusionConfig(alpha=0.8, k_max=5, tol=0.0), pos)


def test_emb_lp_holds_under_one_edge_state(rng):
    """On a broadcast-sized case (N 1400, m 5000, d 80; n = 1399 nodes with
    an edge) emb_lp diffuses one block of c = 1 MiB // (2*n*8) = 46 columns
    at a time. Besides the N x d update, a block holds its contiguous copy
    of Y's columns, its iterate, last step and one product (n x c each,
    2.06 MB), and the lazy walk and edge lists hold under 0.6 MB. One more
    block, or one whole n x d diffusion (2.69 MB), is over, as is the
    line-graph form's m x c block state, and all of it is under one m x d
    edge state more."""
    pos = np.array(random_graph_edges(rng, 1400, 5000))
    g = build_graph([], extra_nodes=[f"n{i}" for i in range(1400)])
    y = rng.normal(size=(1400, 80))
    cfg = DiffusionConfig(k_max=2, tol=0.0)
    rows = np.unique(pos).size
    cols = 2**20 // (2 * rows * 8)
    assert (rows, cols) == (1399, 46)
    tracemalloc.start()
    try:
        emb_lp(g, pos, y, cfg, pos[:500])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + 4 * rows * cols * 8 + 600_000


def test_emb_lp_empty_pos_error(triangle):
    with pytest.raises(DataError):
        emb_lp(triangle, np.zeros((0, 2), dtype=int), np.eye(3), DiffusionConfig(), [(0, 1)])


@pytest.mark.parametrize("score", [
    lambda g, y, q: emb_lp(g, np.array([[0, 1], [1, 2]]), y, DiffusionConfig(), q),
    lambda g, y, q: xmc_scores(g, y, DiffusionConfig(), q),
], ids=["emb_lp", "xmc_scores"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_query_id_out_of_range_rejected(path4, score, bad, monkeypatch):
    """A bad query id is rejected before any diffusion round runs."""

    def no_rounds(*args, **kwargs):
        raise AssertionError("a diffusion ran before the query ids were checked")

    monkeypatch.setattr(propagation, "damped_iteration", no_rounds)
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
