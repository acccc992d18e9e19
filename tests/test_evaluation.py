from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from linkbridge.datasets import generate_synthetic
from linkbridge.distill import DistillConfig, student_embed
from linkbridge.errors import ConfigError, DataError, NumericError
from linkbridge.evaluation import (
    CALIBRATED_METHODS,
    KNOWN_METHODS,
    EvalReport,
    SuiteConfig,
    eval_pairs,
    evaluate_scores,
    method_scores,
    shuffle_eval_order,
    train_student,
)
from linkbridge.graph import build_graph, graph_from_ids
from linkbridge.pipeline import metric_row
from linkbridge.scorer import ScorerConfig, embed, score_edges, train_scorer
from linkbridge.selection import Regime, make_split, manifest_training_graph, split_ids

from oracles import random_graph_edges


@pytest.fixture(scope="module")
def manifest(small_pair):
    src, tar, _ = small_pair
    return make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)


def test_pooled_eval_pairs_are_valid_then_test(manifest):
    pos, neg = eval_pairs(manifest, "pooled")
    assert pos == list(manifest.valid_pos) + list(manifest.test_pos)
    assert neg == list(manifest.valid_neg) + list(manifest.test_neg)
    assert eval_pairs(manifest, "valid") == (
        list(manifest.valid_pos), list(manifest.valid_neg)
    )
    assert eval_pairs(manifest, "test") == (
        list(manifest.test_pos), list(manifest.test_neg)
    )


def test_shuffle_eval_order_is_deterministic_and_keeps_labels(manifest):
    pos, neg = eval_pairs(manifest, "test")
    order, labels = shuffle_eval_order(pos, neg, seed=5)
    again, labels_again = shuffle_eval_order(pos, neg, seed=5)
    assert order == again
    assert np.array_equal(labels, labels_again)
    assert sorted(order) == sorted(pos + neg)
    pos_set = set(pos)
    assert [int(pair in pos_set) for pair in order] == labels.tolist()
    # the order is a real shuffle, not positives first
    assert labels.tolist() != sorted(labels.tolist(), reverse=True)


def test_evaluate_scores_breaks_ties_in_input_order():
    scores = np.zeros(4)
    late = evaluate_scores(scores, np.array([0, 0, 1, 1]), (1.0,), 0.0, seed=0)
    early = evaluate_scores(scores, np.array([1, 1, 0, 0]), (1.0,), 0.0, seed=0)
    mixed = evaluate_scores(scores, np.array([0, 1, 1, 0]), (1.0,), 0.0, seed=0)
    assert late["recall_at_1x"] == 0.0
    assert early["recall_at_1x"] == 1.0
    assert mixed["recall_at_1x"] == 0.5


@pytest.mark.parametrize("mult", [1e308, 1.5])
def test_evaluate_scores_takes_every_score_past_the_last(mult):
    """A cut-off at or past the number of scores is every score, also one
    whose product with the positive count is too large for an int."""
    scores = np.array([0.3, 0.1, 0.2, 0.4])
    out = evaluate_scores(scores, np.array([1, 1, 0, 1]), (mult,), None, seed=0)
    assert out[f"recall_at_{mult:g}x"] == 1.0


def _report(runtime, recall=0.5):
    row = {"regime": "int", "method": "scorer", "recall_at_1x": recall,
           "runtime_seconds": runtime, "runtime_note": f"{runtime}s"}
    return EvalReport(rows=[row], config={"seed": 1}, seed=1, runtime_seconds=runtime)


def test_content_hash_ignores_runtime_keys():
    assert _report(0.1).content_hash() == _report(9.9).content_hash()
    assert _report(0.1).content_hash() != _report(0.1, recall=0.75).content_hash()


def test_method_scores_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown method"):
        method_scores("bogus", None, None, None, None, None, SuiteConfig())


@pytest.mark.parametrize("method", [m for m in KNOWN_METHODS if m not in CALIBRATED_METHODS])
@pytest.mark.parametrize("bad", ["-1", "N"])
def test_method_scores_reject_out_of_range_eval_ids(small_pair, manifest, method, bad):
    src, tar, _ = small_pair
    g_train = manifest_training_graph(manifest, src, tar)
    suite = SuiteConfig(
        scorer=ScorerConfig(epochs=1, d_trainable=4),
        distill=DistillConfig(hidden=4, max_epochs=1, finetune_epochs=1),
    )
    splits = split_ids(manifest, g_train)
    model = train_scorer(suite.scorer, g_train, splits)
    eval_ids = np.array([[0, 1], [0, -1 if bad == "-1" else g_train.num_nodes]])
    with pytest.raises(DataError):
        method_scores(method, g_train, splits, embed(model, g_train), None, eval_ids, suite)


@pytest.mark.parametrize("method", ["scorer", "emb_lp", "xmc_lp"])
def test_non_finite_method_scores_are_a_numeric_error(method):
    """A 40-node graph and a Y that is zero except one 1e300 entry: finite
    embeddings whose inner products overflow to inf, with no warning."""
    rng = np.random.default_rng(0)
    edges = random_graph_edges(rng, 40, 80)
    g = build_graph(
        [(f"{u:02d}", f"{v:02d}") for u, v in edges],
        extra_nodes=[f"{i:02d}" for i in range(40)],
    )
    y = np.zeros((40, 4))
    y[3, 1] = 1e300
    # emb_lp reads its positive training pairs off the splits, and nothing else
    splits = SimpleNamespace(train_pos=g.edges[:30])
    eval_ids = np.array([[3, 3], [3, 5], [1, 2]])
    with pytest.raises(NumericError, match=f"^{method} scores are not finite"):
        method_scores(method, g, splits, y, None, eval_ids, SuiteConfig())


# the methods whose scores still follow the node ids, and why
_ID_DEPENDENT = {
    "xmc_lp": "ROADMAP item 13: xmc_scores reads Yhat[u] . Y[v] with u the lower id, "
              "so a pair's score depends on which endpoint has the lower id",
}

# (data seed of the small pair, seed of y and the permutation) per method.
# ppr iterates the lower id of a tied pair; while a chunk stopped on the step
# of the sources it held, relabeling at data seed 4 and permutation seed 1
# moved a chunk's stop round and a score by 8.6e-5.
_RELABELING = {"ppr": (4, 1)}


@pytest.mark.parametrize("method", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=_ID_DEPENDENT[m]))
    if m in _ID_DEPENDENT else m
    for m in KNOWN_METHODS
])
def test_method_scores_do_not_depend_on_node_ids(small_spec, method):
    """The training graph with its node ids permuted, and y and the
    features permuted with them: every score is the original one within a
    few ulps of the largest."""
    data_seed, seed = _RELABELING.get(method, (small_spec.seed, 7))
    src, tar, _ = generate_synthetic(replace(small_spec, seed=data_seed))
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    g = manifest_training_graph(manifest, src, tar)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(g.num_nodes, 6))
    perm = rng.permutation(g.num_nodes)
    relabeled = graph_from_ids(g.keys, g.edges, g.features, g.sides, order=perm)
    assert relabeled.keys == tuple(g.keys[i] for i in perm)
    suite = SuiteConfig(distill=DistillConfig(hidden=8, max_epochs=2, finetune_epochs=1))
    pairs = list(manifest.test_pos) + list(manifest.test_neg)

    def scores(graph, y):
        splits = split_ids(manifest, graph)
        z_all = score_edges(y, np.concatenate(splits))
        return method_scores(method, graph, splits, y, z_all, graph.pair_ids(pairs), suite)

    want = scores(g, y)
    out = scores(relabeled, y[perm])
    # the student computes in float32, every other method in float64
    eps = np.finfo(np.float32 if method == "mlp" else np.float64).eps
    assert np.max(np.abs(out - want)) <= 4 * eps * np.max(np.abs(want))


def test_mlp_scores_embed_only_the_evaluation_endpoints(small_pair, manifest):
    """The mlp branch embeds the distinct evaluation endpoints alone and
    gives the same logits as scoring the student's whole node table."""
    src, tar, _ = small_pair
    g_train = manifest_training_graph(manifest, src, tar)
    suite = SuiteConfig(
        scorer=ScorerConfig(epochs=1, d_trainable=4),
        distill=DistillConfig(hidden=4, max_epochs=2, finetune_epochs=1),
    )
    splits = split_ids(manifest, g_train)
    model = train_scorer(suite.scorer, g_train, splits)
    y = embed(model, g_train)
    eval_ids = np.concatenate([splits.test_pos, splits.test_neg])
    assert np.unique(eval_ids).size < g_train.num_nodes
    student = train_student(y, g_train, splits, suite.distill)
    want = score_edges(student_embed(student), eval_ids)
    out = method_scores("mlp", g_train, splits, y, None, eval_ids, suite)
    assert np.array_equal(out, want)


def test_eval_pairs_rejects_unknown_split(manifest):
    with pytest.raises(ConfigError, match="eval split"):
        eval_pairs(manifest, "tset")


def test_heuristic_rows_have_no_threshold_precision_or_accuracy():
    scores = np.array([0.0, 2.0, 1.0, 0.0])
    labels = np.array([0, 1, 1, 0])
    suite = SuiteConfig()
    rows = [
        metric_row(Regime.TARGET_TO_TARGET, method, scores, labels, suite)
        for method in ("cn", "aa", "ppr", "scorer", "logit_lp")
    ]
    for row in rows[:3]:
        assert (row["threshold"], row["precision"], row["accuracy"]) == (None, None, None)
        assert row["recall_at_1x"] == 1.0
    assert [row["threshold"] for row in rows[3:]] == [0.0, 0.5]
    assert all(row["precision"] is not None for row in rows[3:])
    # an explicit threshold still gives a heuristic precision and accuracy
    cut = metric_row(Regime.TARGET_TO_TARGET, "cn", scores, labels, suite, threshold=1.0)
    assert (cut["threshold"], cut["precision"], cut["accuracy"]) == (1.0, 1.0, 1.0)
    table = EvalReport(rows=rows, config={}, seed=0, runtime_seconds=0.0).text_table()
    lines = table.splitlines()
    assert lines[2].split()[-2:] == ["n/a", "n/a"]
    assert "n/a" not in lines[5] and "n/a" not in lines[6]
