import json
import re

import numpy as np
import pytest

from linkbridge.checkpoint import (
    load_scorer,
    load_student,
    node_order_digest,
    save_scorer,
    save_student,
)
from linkbridge.distill import DistillConfig, imitate, student_embed
from linkbridge.errors import DataError
from linkbridge.graph import build_graph, union_graph
from linkbridge.io import load_graph, save_graph
from linkbridge.scorer import ScorerConfig, embed, init_model, score_edges, train_scorer
from linkbridge.selection import (
    Regime,
    make_split,
    manifest_training_graph,
    split_ids,
    training_graph_from_universe,
)


@pytest.fixture(scope="module")
def two_orders(small_pair, tmp_path_factory):
    """One training graph built in memory and again from the saved union.

    ``load_graph`` renumbers nodes, so the two share their keys but not
    their ids.
    """
    src, tar, _ = small_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    in_memory = manifest_training_graph(manifest, src, tar)
    union_dir = tmp_path_factory.mktemp("union")
    save_graph(union_graph(src, tar), union_dir)
    reloaded = training_graph_from_universe(manifest, load_graph(union_dir))
    assert sorted(in_memory.keys) == sorted(reloaded.keys)
    assert list(in_memory.keys) != list(reloaded.keys)
    return in_memory, reloaded


def test_scorer_checkpoint_loads_only_against_its_node_order(two_orders, tmp_path):
    g, other = two_orders
    model = init_model(ScorerConfig(d_trainable=4, seed=2), g)
    path = tmp_path / "scorer.bin"
    save_scorer(path, model, g)
    loaded = load_scorer(path, g)
    assert np.allclose(embed(loaded, g), embed(model, g), atol=1e-5)
    assert node_order_digest(g) != node_order_digest(other)
    with pytest.raises(DataError, match="node order"):
        load_scorer(path, other)


@pytest.mark.parametrize("encoder", ["embedding_only", "one_hop_mean"])
def test_reloaded_scorer_scores_as_the_trained_one(small_pair, tmp_path, encoder):
    """A scorer trains in the float32 its checkpoint stores, so the reloaded
    one embeds and scores every pair exactly as the trained one."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1)
    g = manifest_training_graph(manifest, src, tar)
    splits = split_ids(manifest, g)
    model = train_scorer(ScorerConfig(d_trainable=4, encoder=encoder, epochs=3, seed=2),
                         g, splits)
    path = tmp_path / "scorer.bin"
    save_scorer(path, model, g)
    loaded = load_scorer(path, g)
    assert loaded.x_prime.dtype == np.float32
    if encoder == "one_hop_mean":
        assert loaded.encoder_weights.dtype == np.float32
    y, y_loaded = embed(model, g), embed(loaded, g)
    assert np.array_equal(y_loaded, y)
    pairs = np.concatenate([splits.valid_pos, splits.valid_neg, splits.test_pos])
    assert np.array_equal(score_edges(y_loaded, pairs), score_edges(y, pairs))


def _student(g, path):
    """A student imitating an untrained scorer on ``g``, saved to ``path``."""
    teacher = init_model(ScorerConfig(d_trainable=4, seed=2), g)
    student = imitate(embed(teacher, g), g, DistillConfig(hidden=4, max_epochs=1))
    save_student(path, student)
    return student


def test_student_checkpoint_loads_on_another_graph(two_orders, tmp_path):
    """A student holds no node rows: it loads against a graph of another
    node count and order and embeds each node from its feature row."""
    g, other = two_orders
    path = tmp_path / "student.bin"
    student = _student(g, path)
    keys = list(other.keys)[:3][::-1] + ["unseen"]
    rows = {k: other.features[other.ids_for([k])[0]] for k in keys[:3]}
    small = build_graph([(keys[0], keys[1]), (keys[2], keys[3])],
                        features=rows | {"unseen": [0.1, -0.2, 0.3, 0.0]})
    assert small.num_nodes != g.num_nodes
    weights = (student.w1, student.b1, student.w2, student.b2)
    assert len(path.read_bytes().partition(b"\n")[2]) == 4 * sum(w.size for w in weights)
    loaded = load_student(path, small)
    y = student_embed(loaded)
    ids = small.ids_for(keys[:3])
    assert np.array_equal(y[ids], student_embed(student, g.ids_for(keys[:3])))
    assert np.isfinite(score_edges(y, np.array([[ids[0], small.ids_for(["unseen"])[0]]]))).all()


def test_student_checkpoint_on_another_feature_width_is_a_data_error(two_orders, tmp_path):
    g, _ = two_orders
    path = tmp_path / "student.bin"
    _student(g, path)
    narrow = build_graph([("a", "b")], features={"a": [0.0, 1.0], "b": [1.0, 0.0]})
    with pytest.raises(DataError, match="student reads 4 features per node, graph has 2"):
        load_student(path, narrow)
    with pytest.raises(DataError, match="graph has 0"):
        load_student(path, build_graph([("a", "b")]))


def test_student_checkpoint_config_out_of_range_is_a_data_error(two_orders, tmp_path):
    g, _ = two_orders
    path = tmp_path / "student.bin"
    _student(g, path)
    line, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["config"]["finetune_batch_size"] = 0
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    with pytest.raises(DataError, match="batch sizes must be >= 1"):
        load_student(path, g)


def test_checkpoint_with_a_non_finite_value_is_a_data_error(two_orders, tmp_path):
    g, _ = two_orders
    model = init_model(ScorerConfig(d_trainable=4, seed=2), g)
    model.x_prime[3, 1] = np.inf
    path = tmp_path / "scorer.bin"
    save_scorer(path, model, g)
    with pytest.raises(DataError, match=re.escape(f"{path}: non-finite values in x_prime")):
        load_scorer(path, g)
