import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from linkbridge.checkpoint import load_student, save_student
from linkbridge.distill import (
    DistillConfig,
    MlpModel,
    _apply_grads,
    _finetune_pass,
    _forward,
    _imitation_pass,
    _inputs,
    finetune_linkpred,
    imitate,
    student_embed,
)
from linkbridge.errors import DataError
from linkbridge.evaluation import train_student
from linkbridge.graph import build_graph, graph_from_ids
from linkbridge.metrics import recall_at
from linkbridge.scorer import (
    ScorerConfig, batch_rows, embed, init_model, score_edges, train_scorer,
)
from linkbridge.selection import Regime, make_split, manifest_training_graph, split_ids

from oracles import dense_finetune, dense_imitate, fd_grad, max_rel_error


def fixture_graph():
    return build_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
        features={k: [0.2 * i - 0.4, 0.13 * i] for i, k in enumerate("abcde")},
    )


def test_realizable_linear_teacher():
    g = fixture_graph()
    rng = np.random.default_rng(0)
    w_true = rng.normal(size=(2, 4))
    teacher_y = g.features @ w_true  # linear target, exactly representable
    cfg = DistillConfig(hidden=16, learning_rate=0.05, batch_size=5,
                        max_epochs=4000, seed=1, plateau_tol=1e-9,
                        plateau_epochs=50)
    model = imitate(teacher_y, g, cfg)
    assert model.imitation_mse < 1e-3


def test_zero_epoch_budget_returns_init():
    g = fixture_graph()
    rng = np.random.default_rng(2)
    teacher_y = rng.normal(size=(5, 3))
    cfg = DistillConfig(hidden=8, max_epochs=0, seed=3)
    model = imitate(teacher_y, g, cfg)
    assert model.imitation_mse is not None
    assert model.loss_trace == []


def _float64(model):
    """``model`` with float64 copies of its weights: central differences at
    eps 1e-6 resolve nothing in float32."""
    return replace(model, **{name: getattr(model, name).astype(np.float64)
                             for name in ("w1", "b1", "w2", "b2")})


def assert_fd_grads(model, grads, loss_fn):
    """Each of the four weight gradients of a training pass against central
    differences of ``loss_fn``."""
    assert set(grads) == {"w1", "b1", "w2", "b2"}
    for name, analytic in grads.items():
        fd = fd_grad(loss_fn, getattr(model, name))
        assert max_rel_error(analytic, fd) <= 1e-4, name


def test_imitation_gradient_check():
    g = fixture_graph()
    rng = np.random.default_rng(4)
    teacher_y = rng.normal(size=(5, 3))
    model = _float64(imitate(teacher_y, g, DistillConfig(hidden=6, max_epochs=0, seed=5)))
    rows = np.array([3, 0, 4])  # one batch as imitate draws it: distinct, shuffled
    loss, grads = _imitation_pass(model, teacher_y, rows)
    assert np.isfinite(loss)
    assert_fd_grads(model, grads, lambda: _imitation_pass(model, teacher_y, rows)[0])


def test_finetune_gradient_check():
    g = fixture_graph()
    rng = np.random.default_rng(6)
    teacher_y = rng.normal(size=(5, 3))
    model = _float64(imitate(teacher_y, g, DistillConfig(hidden=6, max_epochs=0, seed=7)))
    pos = np.array([[0, 1], [1, 2], [2, 3]])
    neg = np.array([[0, 2], [1, 4], [3, 0]])
    loss, grads = _finetune_pass(model, pos, neg)
    assert np.isfinite(loss)
    assert_fd_grads(model, grads, lambda: _finetune_pass(model, pos, neg)[0])


def _distill_fixture():
    spec_graphs = {}
    src = build_graph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d"), ("b", "d")],
        features={k: [0.3 * i, 1.0 - 0.2 * i] for i, k in enumerate("abcd")},
    )
    tar_edges = [("a", f"t{i}") for i in range(12)] + [
        (f"t{i}", f"t{i+1}") for i in range(11)
    ]
    feats = {f"t{i}": [0.05 * i, 0.4] for i in range(12)}
    feats["a"] = [0.0, 1.0]
    tar = build_graph(tar_edges, features=feats)
    manifest = make_split(Regime.TARGET_TO_TARGET, src, tar, neg_ratio=1.0, seed=1)
    g_train = manifest_training_graph(manifest, src, tar)
    teacher = init_model(ScorerConfig(seed=3), g_train)
    teacher_y = embed(teacher, g_train)
    return split_ids(manifest, g_train), g_train, teacher, teacher_y


def test_finetune_lr_zero_keeps_model():
    splits, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=5, seed=2, finetune_lr=0.0,
                        finetune_epochs=3)
    student = imitate(teacher_y, g_train, cfg)
    tuned = finetune_linkpred(student, splits)
    assert np.array_equal(tuned.w1, student.w1)
    assert np.array_equal(tuned.w2, student.w2)


def test_finetune_improves_or_keeps_valid_recall():
    splits, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=16, learning_rate=0.05, max_epochs=60, seed=4,
                        finetune_epochs=15, finetune_lr=0.02)
    student = imitate(teacher_y, g_train, cfg)

    def valid_recall(model):
        y = student_embed(model)
        vp, vn = splits.valid_pos, splits.valid_neg
        z = np.concatenate([
            np.einsum("ij,ij->i", y[vp[:, 0]], y[vp[:, 1]]),
            np.einsum("ij,ij->i", y[vn[:, 0]], y[vn[:, 1]]),
        ])
        labels = np.concatenate([np.ones(len(vp)), np.zeros(len(vn))])
        return recall_at(z, labels, len(vp))

    before = valid_recall(student)
    tuned = finetune_linkpred(student, splits)
    assert valid_recall(tuned) >= before


def test_student_scores_without_graph_access():
    """A node absent from the training graph is embedded from its feature
    row alone and scored against a training node."""
    splits, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=3, seed=5)
    student = imitate(teacher_y, g_train, cfg)
    assert "new" not in g_train.keys
    row = np.array([[0.5, 0.5]])
    y_new = student_embed(replace(student, features=row))
    hidden = np.maximum(row @ student.w1 + student.b1, 0.0)
    assert np.allclose(y_new, hidden @ student.w2 + student.b2)
    y = np.concatenate([student_embed(student, rows=np.array([0])), y_new])
    logit = score_edges(y, np.array([[0, 1]]))
    assert logit.shape == (1,) and np.isfinite(logit).all()


def test_imitation_loss_non_increasing_trace():
    splits, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=16, learning_rate=0.02, max_epochs=40, seed=6)
    student = imitate(teacher_y, g_train, cfg)
    trace = student.loss_trace
    assert len(trace) >= 2
    # allow tiny stochastic wiggle between epochs, but the trend must descend
    assert trace[-1] <= trace[0]
    assert min(trace) <= trace[0]


def test_student_checkpoint_round_trip(tmp_path):
    splits, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=2, seed=7)
    student = imitate(teacher_y, g_train, cfg)
    path = tmp_path / "student.bin"
    save_student(path, student)
    loaded = load_student(path, g_train)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(loaded, name), getattr(student, name))
        assert getattr(loaded, name).dtype == np.float32
    assert np.array_equal(student_embed(student), student_embed(loaded))


def test_imitate_rejects_short_teacher():
    g = fixture_graph()
    with pytest.raises(DataError):
        imitate(np.zeros((3, 2)), g, DistillConfig())


def test_imitate_rejects_a_featureless_graph():
    g = build_graph([("a", "b"), ("b", "c")])
    with pytest.raises(DataError, match="reads node features, and the graph has none"):
        imitate(np.zeros((3, 2)), g, DistillConfig())


def test_inputs_and_embeddings_gather_rows():
    splits, g_train, teacher, teacher_y = _distill_fixture()
    student = imitate(teacher_y, g_train, DistillConfig(hidden=4, max_epochs=1))
    rows = np.array([3, 1, 3, 0])
    assert np.array_equal(_inputs(student, rows), g_train.features[rows])
    assert np.array_equal(student_embed(student, rows), student_embed(student)[rows])


def test_student_trains_in_float32(small_pair):
    """The trained student's weights are float32, and so are the gradients
    of both passes on a float32 model, though the teacher table is float64."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, neg_ratio=1.0, seed=2)
    g_train = manifest_training_graph(manifest, src, tar)
    splits = split_ids(manifest, g_train)
    teacher_y = embed(init_model(ScorerConfig(seed=3), g_train), g_train)
    assert teacher_y.dtype == np.float64
    cfg = DistillConfig(hidden=8, batch_size=16, max_epochs=2, seed=1, finetune_epochs=1,
                        finetune_batch_size=16)
    student = imitate(teacher_y, g_train, cfg)
    tuned = finetune_linkpred(student, splits)
    trained = train_student(teacher_y, g_train, splits, cfg)
    for model in (student, tuned, trained):
        assert {getattr(model, name).dtype for name in ("w1", "b1", "w2", "b2")} == {
            np.dtype(np.float32)}
    _, grads = _imitation_pass(student, teacher_y, np.arange(10))
    assert {gr.dtype for gr in grads.values()} == {np.dtype(np.float32)}
    _, grads = _finetune_pass(student, splits.train_pos[:8], splits.train_neg[:8])
    assert {gr.dtype for gr in grads.values()} == {np.dtype(np.float32)}


def test_student_matches_dense_reference(small_pair):
    """Imitation and fine-tuning take the dense reference's steps."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, neg_ratio=1.0, seed=2)
    g_train = manifest_training_graph(manifest, src, tar)
    splits = split_ids(manifest, g_train)
    # a teacher away from its init X: a seeded random W
    teacher = init_model(ScorerConfig(seed=3), g_train)
    teacher.weights = np.random.default_rng(3).normal(
        scale=0.5, size=teacher.weights.shape).astype(np.float32)
    teacher_y = embed(teacher, g_train)
    cfg = DistillConfig(hidden=12, learning_rate=0.05, batch_size=16, max_epochs=6,
                        seed=3, finetune_epochs=3, finetune_lr=0.05,
                        finetune_batch_size=16)

    student = imitate(teacher_y, g_train, cfg)
    params, mse = dense_imitate(teacher_y, g_train, cfg)
    for got, want in zip((student.w1, student.b1, student.w2, student.b2), params):
        assert np.array_equal(got, want)
    assert student.imitation_mse == mse

    tuned = finetune_linkpred(student, splits)
    params = dense_finetune(params, splits, g_train, cfg)
    for got, want in zip((tuned.w1, tuned.b1, tuned.w2, tuned.b2), params):
        assert np.array_equal(got, want)
    # fine-tuning keeps a later epoch here, so its steps are compared too
    assert not np.array_equal(tuned.w1, student.w1)


def test_train_student_saves_the_dense_reference_checkpoint(small_pair, tmp_path):
    """``train_student`` on a trained teacher's embeddings leaves them
    untouched and saves the dense reference's checkpoint."""
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, neg_ratio=1.0, seed=2)
    g_train = manifest_training_graph(manifest, src, tar)
    splits = split_ids(manifest, g_train)
    teacher = train_scorer(ScorerConfig(epochs=2, seed=3), g_train, splits)
    teacher_y = embed(teacher, g_train)
    kept = teacher_y.tobytes()
    cfg = DistillConfig(hidden=12, learning_rate=0.05, batch_size=16, max_epochs=6,
                        seed=2, finetune_epochs=3, finetune_lr=0.05,
                        finetune_batch_size=16)
    student = train_student(teacher_y, g_train, splits, cfg)
    assert teacher_y.tobytes() == kept

    params, _ = dense_imitate(teacher_y, g_train, cfg)
    params = dense_finetune(params, splits, g_train, cfg)
    reference = MlpModel(cfg, *params, features=g_train.features)
    save_student(tmp_path / "student.bin", student)
    save_student(tmp_path / "reference.bin", reference)
    assert (tmp_path / "student.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()


def test_student_step_memory_is_o_batch():
    """Imitation and fine-tuning steps on 100k nodes of a float32 student
    allocate a small fraction of one N x d_in float32 input."""
    n, d_x, d_out, hidden, batch = 100_000, 32, 16, 32, 256
    rng = np.random.default_rng(0)
    f32 = np.float32
    model = MlpModel(
        config=DistillConfig(hidden=hidden),
        w1=rng.normal(size=(d_x, hidden)).astype(f32), b1=np.zeros(hidden, dtype=f32),
        w2=rng.normal(size=(hidden, d_out)).astype(f32), b2=np.zeros(d_out, dtype=f32),
        features=rng.normal(size=(n, d_x)).astype(f32),
    )
    teacher_y = rng.normal(size=(n, d_out))
    rows = rng.choice(n, size=batch, replace=False)
    pos, neg = rng.integers(0, n, size=(2, batch, 2))
    tracemalloc.start()
    try:
        _, grads = _imitation_pass(model, teacher_y, rows)
        _apply_grads(model, grads, 0.01)
        _, grads = _finetune_pass(model, pos, neg)
        _apply_grads(model, grads, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d_x * 4 / 10


def test_finetune_pass_holds_one_hidden_activation_and_one_gradient():
    """A fine-tune pass of a float32 student over r distinct batch rows
    holds, of hidden width, the activation, its gradient and the gradient's
    one-byte mask; the rest is batch rows of the input and output widths.
    Its traced peak stays below 2.5 r x hidden float32 arrays, never a
    separate pre-activation."""
    n, d_x, d_out, hidden, b = 50_000, 8, 16, 256, 1024
    rng = np.random.default_rng(0)
    f32 = np.float32
    model = MlpModel(
        config=DistillConfig(hidden=hidden),
        w1=rng.normal(size=(d_x, hidden)).astype(f32), b1=rng.normal(size=hidden).astype(f32),
        w2=(rng.normal(size=(hidden, d_out)) / 16).astype(f32), b2=np.zeros(d_out, dtype=f32),
        features=rng.normal(size=(n, d_x)).astype(f32),
    )
    pos, neg = rng.integers(0, n, size=(2, b, 2))
    r = batch_rows(pos, neg)[0].size
    tracemalloc.start()
    try:
        _finetune_pass(model, pos, neg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * r * hidden * 4


def test_student_inference_memory_is_one_block():
    """The closing imitation MSE and an embedding of every node each hold one
    row block of activations: less than one N x hidden activation."""
    n, d_x, d_out, hidden = 20_000, 8, 16, 64
    rng = np.random.default_rng(0)
    g = graph_from_ids([str(i) for i in range(n)], np.zeros((0, 2), dtype=np.int64),
                       features=rng.normal(size=(n, d_x)))
    teacher_y = rng.normal(size=(n, d_out))
    activation = n * hidden * 8
    tracemalloc.start()
    try:
        model = imitate(teacher_y, g, DistillConfig(hidden=hidden, max_epochs=0))
        imitate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        y = student_embed(model)
        embed_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert imitate_peak < activation and embed_peak < activation
    # each block's rows are the rows of one full forward
    full = _forward(model, g.features)[1]
    assert np.array_equal(y, full)
    assert model.imitation_mse == pytest.approx(np.mean((full - teacher_y) ** 2), rel=1e-12)

