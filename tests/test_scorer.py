import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import linkbridge.scorer as scorer
from linkbridge.errors import ConfigError, DataError, NumericError
from linkbridge.graph import Graph, build_graph, mean_aggregator
from linkbridge.scorer import (
    ScorerConfig,
    _batch_loss_and_grads,
    embed,
    hop_features,
    init_model,
    pair_recall,
    score_edges,
    train_scorer,
    training_loss_and_grads,
)
from linkbridge.selection import (
    Regime,
    SplitIds,
    make_split,
    manifest_training_graph,
    split_ids,
)

from oracles import (
    SCORER_STARTS,
    dense_train_scorer,
    fd_grad,
    loop_hop_features,
    max_rel_error,
    ranking_loss,
    scorer_start,
    start_scorer_from,
)


def featured_graph():
    return build_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d"), ("e", "a")],
        features={k: [i * 0.17 - 0.3, 0.9 - i * 0.11] for i, k in enumerate("abcde")},
    )


def test_untrained_scorer_is_the_feature_product():
    """W starts at [I; 0], so the untrained embedding is X and its logits
    are X·Xᵀ."""
    g = featured_graph()
    model = init_model(ScorerConfig(seed=0), g)
    assert model.weights.dtype == np.float32
    assert np.array_equal(model.weights, np.vstack([np.eye(2), np.zeros((2, 2))]))
    y = embed(model, g)
    assert y.dtype == np.float64
    assert np.array_equal(y, g.features)


def test_featureless_graph_reads_a_seeded_random_table():
    """A graph without features reads a fixed random table of
    ``_RANDOM_FEATURES`` columns, the same on every call."""
    g = build_graph([("a", "b"), ("b", "c")])
    d = scorer._RANDOM_FEATURES
    q = hop_features(g)
    assert q.shape == (3, 2 * d) and q.dtype == np.float32
    assert np.array_equal(q, hop_features(g))
    x = np.random.default_rng(scorer._RANDOM_SEED).standard_normal((3, d), dtype=np.float32)
    assert np.array_equal(q[:, :d], x * np.float32(1.0 / np.sqrt(d)))
    assert np.array_equal(embed(init_model(ScorerConfig(), g), g), q[:, :d])


def test_embed_matches_the_dense_hop_features():
    g = featured_graph()
    w = np.random.default_rng(3).normal(size=(4, 2)).astype(np.float32)
    y = embed(scorer.ScorerModel(ScorerConfig(), w), g)
    assert np.allclose(y, loop_hop_features(g) @ w, rtol=1e-6, atol=1e-7)


def test_isolated_node_has_a_zero_hop_half():
    g = build_graph([("a", "b")], extra_nodes=["iso"],
                    features={"a": [1.0, 0.5], "b": [0.2, -1.0], "iso": [0.3, 0.7]})
    i = g.key_to_id["iso"]
    q = hop_features(g)
    assert np.array_equal(q[i], np.array([0.3, 0.7, 0.0, 0.0], dtype=np.float32))
    w = np.random.default_rng(5).normal(size=(4, 2)).astype(np.float32)
    y = embed(scorer.ScorerModel(ScorerConfig(), w), g)
    assert np.array_equal(y[i], (q[i, :2] @ w[:2]).astype(np.float64))


def test_embed_on_another_feature_width_is_a_data_error():
    model = init_model(ScorerConfig(), featured_graph())
    with pytest.raises(DataError, match="scorer reads 2 features per node, graph has 0"):
        embed(model, build_graph([("a", "b")]))


def test_score_edges_unit_and_orthogonal():
    y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert score_edges(y, np.array([[0, 1]]))[0] == pytest.approx(1.0)
    assert score_edges(y, np.array([[0, 2]]))[0] == pytest.approx(0.0)


def test_score_edges_symmetric_and_loop_oracle(rng):
    y = rng.normal(size=(12, 10))
    edges = np.array([[rng.integers(0, 12), rng.integers(0, 12)] for _ in range(30)])
    z = score_edges(y, edges)
    z_rev = score_edges(y, edges[:, ::-1])
    assert np.array_equal(z, z_rev)
    for i, (u, v) in enumerate(edges):
        manual = sum(float(y[u, k]) * float(y[v, k]) for k in range(10))
        assert z[i] == pytest.approx(manual, rel=1e-12)


def test_score_edges_out_of_range():
    with pytest.raises(DataError):
        score_edges(np.eye(3), np.array([[0, 5]]))


@pytest.mark.parametrize("start", SCORER_STARTS)
@pytest.mark.parametrize("with_features", [True, False])
def test_gradient_check(start, with_features):
    if with_features:
        g = featured_graph()
    else:
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d"), ("e", "a")])
    model = init_model(ScorerConfig(seed=11), g)
    # central differences at eps 1e-6 need a float64 W, away from the start
    w0 = scorer_start(start, model.weights.shape[1])
    model.weights = w0 + np.random.default_rng(2).normal(scale=0.3, size=w0.shape)
    pos = np.array([[0, 1], [1, 2], [2, 3]])
    neg = np.array([[0, 2], [1, 3], [0, 3], [4, 2]])
    loss, grads = training_loss_and_grads(model, g, pos, neg)
    assert np.isfinite(loss)
    assert list(grads) == ["weights"]
    fd = fd_grad(lambda: training_loss_and_grads(model, g, pos, neg)[0], model.weights)
    assert max_rel_error(grads["weights"], fd) <= 1e-4


def test_training_loss_is_the_ranking_loss_of_the_true_edges():
    g = build_graph([("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")],
                    features={"a": [1.0, 0.2], "b": [0.8, 0.1], "c": [-0.3, 0.9], "d": [0.1, 1.2]})
    model = init_model(ScorerConfig(seed=1), g)
    pos = np.array([[0, 1], [2, 3]])
    neg = np.array([[0, 2], [1, 3]])
    y = embed(model, g)
    expected = ranking_loss(score_edges(y, pos), score_edges(y, neg))
    assert expected == pytest.approx(0.0130, abs=1e-4)
    assert training_loss_and_grads(model, g, pos, neg)[0] == pytest.approx(expected, rel=1e-6)


def _tiny_splits_and_graph(seed=0):
    src = build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d")],
        features={k: [0.1 * i, 0.5 - 0.1 * i] for i, k in enumerate("abcd")},
    )
    tar_edges = [("a", f"t{i}") for i in range(10)] + [(f"t{i}", f"t{i+1}") for i in range(9)]
    feats = {k: [0.1, 0.2] for k in [f"t{i}" for i in range(10)]}
    feats.update({"a": [0.0, 0.5]})
    tar = build_graph(tar_edges, features=feats)
    manifest = make_split(Regime.TARGET_TO_TARGET, src, tar, neg_ratio=1.0, seed=seed)
    g_train = manifest_training_graph(manifest, src, tar)
    return split_ids(manifest, g_train), g_train


def test_train_scorer_lr_zero_keeps_params():
    splits, g_train = _tiny_splits_and_graph()
    cfg = ScorerConfig(learning_rate=0.0, epochs=3, seed=4)
    model = train_scorer(cfg, g_train, splits)
    assert np.array_equal(model.weights, init_model(cfg, g_train).weights)


def test_train_scorer_descends_on_fixture():
    splits, g_train = _tiny_splits_and_graph()
    cfg = ScorerConfig(learning_rate=0.05, epochs=1, batch_size=8, seed=1)
    model = train_scorer(cfg, g_train, splits)

    def full_loss(m):
        return training_loss_and_grads(m, g_train, splits.train_pos, splits.train_neg)[0]

    assert full_loss(model) <= full_loss(init_model(cfg, g_train)) + 1e-12


def test_train_scorer_divergence_aborts():
    """A diverging scorer raises a NumericError and no numpy warning first
    (the suite turns every warning into an error)."""
    splits, g_train = _tiny_splits_and_graph()
    cfg = ScorerConfig(learning_rate=1e9, epochs=30, seed=1)
    with pytest.raises(NumericError, match="training diverged"):
        train_scorer(cfg, g_train, splits)


def test_train_scorer_deterministic():
    splits, g_train = _tiny_splits_and_graph()
    cfg = ScorerConfig(learning_rate=0.05, epochs=4, seed=8)
    m1 = train_scorer(cfg, g_train, splits)
    m2 = train_scorer(cfg, g_train, splits)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.loss_trace == m2.loss_trace


def test_train_scorer_emits_loss_trace():
    splits, g_train = _tiny_splits_and_graph()
    cfg = ScorerConfig(epochs=5, seed=2)
    model = train_scorer(cfg, g_train, splits)
    assert len(model.loss_trace) == 5
    assert all(np.isfinite(x) for x in model.loss_trace)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScorerConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        ScorerConfig(batch_size=0)
    # the per-node table's width and the encoder choice are retired knobs
    with pytest.raises(TypeError):
        ScorerConfig(d_trainable=64)
    with pytest.raises(TypeError):
        ScorerConfig(encoder="one_hop_mean")


# the ids keep the momentum and L2 weight (both 0.0) that the test once varied
@pytest.mark.parametrize("start", SCORER_STARTS, ids=lambda start: f"{start}-0.0-0.0")
def test_train_scorer_matches_dense_reference(small_pair, monkeypatch, start):
    start_scorer_from(monkeypatch, start)
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, neg_ratio=1.0, seed=5)
    g_train = manifest_training_graph(manifest, src, tar)
    cfg = ScorerConfig(learning_rate=0.1, batch_size=32, epochs=3, seed=9)
    splits = split_ids(manifest, g_train)
    no_valid = splits._replace(valid_pos=splits.valid_pos[:0], valid_neg=splits.valid_neg[:0])
    # without a validation split both return the final W, with one the selected W
    for split in (no_valid, splits):
        model = train_scorer(cfg, g_train, split)
        w_ref, trace_ref = dense_train_scorer(
            cfg, g_train, split, scorer_start(start, g_train.feature_dim))
        assert np.allclose(model.weights, w_ref, rtol=1e-4, atol=1e-5)
        assert model.loss_trace == pytest.approx(trace_ref, rel=1e-4)
    assert not np.array_equal(train_scorer(cfg, g_train, no_valid).weights,
                              scorer_start(start, g_train.feature_dim))


def test_trained_teacher_beats_the_feature_product_on_validation(medium_pair):
    """The learning gate: on a seeded pair, the trained W's validation
    recall is strictly above that of its init, the raw X·Xᵀ."""
    src, tar, _ = medium_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    g_train = manifest_training_graph(manifest, src, tar)
    splits = split_ids(manifest, g_train)
    cfg = ScorerConfig(epochs=5, seed=1)
    trained, untrained = train_scorer(cfg, g_train, splits), init_model(cfg, g_train)
    valid = (splits.valid_pos, splits.valid_neg)
    assert (pair_recall(embed(trained, g_train), *valid)
            > pair_recall(embed(untrained, g_train), *valid))


def test_featureless_graph_trains_and_embeds(path4):
    a, b, c, d = path4.ids_for(list("abcd"))
    pairs = lambda *p: np.array(p, dtype=np.int64).reshape(-1, 2)  # noqa: E731
    splits = SplitIds(train_pos=pairs((a, b), (b, c), (c, d)),
                      train_neg=pairs((a, c), (a, d), (b, d)),
                      valid_pos=pairs(), valid_neg=pairs(), test_pos=pairs(), test_neg=pairs())
    model = train_scorer(ScorerConfig(epochs=3, batch_size=2), path4, splits)
    width = scorer._RANDOM_FEATURES
    assert model.weights.shape == (2 * width, width)
    assert not np.array_equal(model.weights, init_model(ScorerConfig(), path4).weights)
    y = embed(model, path4)
    assert y.shape == (4, width) and np.isfinite(y).all()


def ring_graph(n: int, d_x: int) -> Graph:
    """n-node circulant graph (offsets 1 and 7) built straight from arrays."""
    ids = np.arange(n)
    nbrs = np.sort(np.stack([(ids - 7) % n, (ids - 1) % n, (ids + 1) % n, (ids + 7) % n],
                            axis=1), axis=1)
    edges = np.concatenate([np.stack([ids, (ids + k) % n], axis=1) for k in (1, 7)])
    keys = tuple(str(i) for i in range(n))
    return Graph(
        keys=keys,
        key_to_id={k: i for i, k in enumerate(keys)},
        indptr=np.arange(0, 4 * n + 1, 4),
        indices=nbrs.ravel(),
        edges=np.sort(edges, axis=1),
        features=np.random.default_rng(0).normal(size=(n, d_x)).astype(np.float32),
    )


@pytest.mark.parametrize("start", SCORER_STARTS)
def test_training_step_memory_is_o_batch(start):
    """One step on 100k nodes allocates a small fraction of the N x 2d hop
    table."""
    n, d_x, batch = 100_000, 8, 128
    g = ring_graph(n, d_x)
    q = hop_features(g)
    w = scorer_start(start, d_x)
    rng = np.random.default_rng(2)
    pos, neg = rng.integers(0, n, size=(2, batch, 2))
    tracemalloc.start()
    try:
        loss, dw = _batch_loss_and_grads(q, w, pos, neg)
        w -= 0.1 * dw
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    assert peak < q.nbytes / 10


@pytest.mark.parametrize("start", SCORER_STARTS)
def test_scorer_trains_in_float32(monkeypatch, start):
    """The hop table, W from its start and from training, and a step's
    gradient are float32; embed returns the float32 embedding Q·W as
    float64."""
    start_scorer_from(monkeypatch, start)
    splits, g = _tiny_splits_and_graph()
    cfg = ScorerConfig(epochs=2, seed=6)
    model = scorer.init_model(cfg, g)
    assert np.array_equal(model.weights, scorer_start(start, g.feature_dim))
    trained = train_scorer(cfg, g, splits)
    assert model.weights.dtype == trained.weights.dtype == np.float32
    q = hop_features(g)
    assert q.dtype == np.float32
    _, dw = _batch_loss_and_grads(q, trained.weights, splits.train_pos[:4],
                                  splits.train_neg[:4])
    assert dw.dtype == np.float32
    y = embed(trained, g)
    assert y.dtype == np.float64
    assert np.array_equal(y, q @ trained.weights)


def test_blocked_scores_are_the_one_pass_scores(monkeypatch):
    rng = np.random.default_rng(3)
    y = rng.normal(size=(30, 5))
    edges = rng.integers(0, 30, size=(23, 2))
    monkeypatch.setattr(scorer, "_BLOCK_BYTES", 7 * y[:1].nbytes)
    assert [b.stop - b.start for b in scorer.row_blocks(23, y[:1].nbytes)] == [7, 7, 7, 2]
    want = np.einsum("ij,ij->i", y[edges[:, 0]], y[edges[:, 1]])
    assert np.array_equal(score_edges(y, edges), want)
    assert score_edges(y, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_score_edges_memory_is_one_block():
    """Scoring 50k pairs over an 80-wide table holds the logits, the checked
    pairs and one block of endpoint rows, not two m x d endpoint tables."""
    m, d = 50_000, 80
    rng = np.random.default_rng(0)
    y = rng.normal(size=(8000, d))
    edges = rng.integers(0, y.shape[0], size=(m, 2))
    tracemalloc.start()
    try:
        score_edges(y, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * d * 8 / 10


def test_train_scorer_holds_one_hop_table(monkeypatch):
    """Training with a snapshot every epoch holds the float32 hop table,
    and while it builds the table, ĀX and one float32 mean aggregator: its
    traced peak stays below those and 64 KiB of small objects, never a
    second aggregator, a float64 N-row table or a per-node trained state."""
    n, d_x = 20_000, 8
    g = ring_graph(n, d_x)
    far = np.stack([np.arange(0, n, 5), (np.arange(0, n, 5) + n // 2) % n], axis=1)
    splits = SimpleNamespace(train_pos=g.edges[:3000], train_neg=far[:3000],
                             valid_pos=g.edges[3000:3500], valid_neg=far[3000:3500])
    # every epoch scores strictly better, so every epoch takes a snapshot
    recalls = iter(range(1, 100))
    monkeypatch.setattr(scorer, "pair_recall", lambda y, pos, neg: next(recalls))
    cfg = ScorerConfig(batch_size=64, epochs=3, seed=1)
    table = n * 2 * d_x * 4
    agg = mean_aggregator(g, np.float32)
    agg_bytes = agg.data.nbytes + agg.indices.nbytes + agg.indptr.nbytes
    del agg
    tracemalloc.start()
    try:
        model = train_scorer(cfg, g, splits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert next(recalls) == cfg.epochs + 2
    assert model.weights.shape == (2 * d_x, d_x)
    assert peak < 1.5 * table + agg_bytes + 2**16
