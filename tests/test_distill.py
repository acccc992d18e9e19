import tracemalloc

import numpy as np
import pytest

from linkbridge.checkpoint import load_student, save_student
from linkbridge.distill import (
    DistillConfig,
    MlpModel,
    _apply_grads,
    _finetune_pass,
    _imitation_pass,
    finetune_linkpred,
    imitate,
    student_embed,
)
from linkbridge.errors import DataError
from linkbridge.graph import build_graph
from linkbridge.metrics import recall_at
from linkbridge.scorer import ScorerConfig, embed, init_model, node_inputs
from linkbridge.selection import Regime, make_split, manifest_training_graph

from oracles import dense_finetune, dense_imitate, fd_grad, max_rel_error


def fixture_graph():
    return build_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
        features={k: [0.2 * i - 0.4, 0.13 * i] for i, k in enumerate("abcde")},
    )


def test_realizable_linear_teacher():
    g = fixture_graph()
    rng = np.random.default_rng(0)
    x_prime = rng.normal(size=(5, 3))
    h = np.concatenate([g.features, x_prime], axis=1)
    w_true = rng.normal(size=(5, 4))
    teacher_y = h @ w_true  # linear target, exactly representable
    cfg = DistillConfig(hidden=16, learning_rate=0.05, batch_size=5,
                        max_epochs=4000, seed=1, plateau_tol=1e-9,
                        plateau_epochs=50)
    model = imitate(teacher_y, g, cfg, x_prime=x_prime)
    assert model.imitation_mse < 1e-3


def test_zero_epoch_budget_returns_init():
    g = fixture_graph()
    rng = np.random.default_rng(2)
    teacher_y = rng.normal(size=(5, 3))
    cfg = DistillConfig(hidden=8, max_epochs=0, seed=3)
    model = imitate(teacher_y, g, cfg, x_prime=rng.normal(size=(5, 2)))
    assert model.imitation_mse is not None
    assert model.loss_trace == []


def assert_fd_grads(model, grads, rows, loss_fn):
    """Each analytic gradient of a training pass against central differences
    of ``loss_fn``; the row-sparse X' gradient is scattered into zeros at
    ``rows`` first."""
    for name, analytic in grads.items():
        arr = getattr(model, name)
        if name == "x_prime":
            dense = np.zeros(arr.shape)
            dense[rows] = analytic
            analytic = dense
        fd = fd_grad(loss_fn, arr)
        assert max_rel_error(analytic, fd) <= 1e-4, name


@pytest.mark.parametrize("train_xprime", [False, True])
def test_imitation_gradient_check(train_xprime):
    g = fixture_graph()
    rng = np.random.default_rng(4)
    teacher_y = rng.normal(size=(5, 3))
    cfg = DistillConfig(hidden=6, max_epochs=0, seed=5, train_xprime=train_xprime)
    model = imitate(teacher_y, g, cfg, x_prime=rng.normal(size=(5, 2)))
    rows = np.array([3, 0, 4])  # one batch as imitate draws it: distinct, shuffled
    loss, grads = _imitation_pass(model, teacher_y, rows)
    assert np.isfinite(loss)
    expected_keys = {"w1", "b1", "w2", "b2"} | ({"x_prime"} if train_xprime else set())
    assert set(grads) == expected_keys
    assert_fd_grads(model, grads, rows, lambda: _imitation_pass(model, teacher_y, rows)[0])


@pytest.mark.parametrize("train_xprime", [False, True])
def test_finetune_gradient_check(train_xprime):
    g = fixture_graph()
    rng = np.random.default_rng(6)
    teacher_y = rng.normal(size=(5, 3))
    cfg = DistillConfig(hidden=6, max_epochs=0, seed=7, train_xprime=train_xprime)
    model = imitate(teacher_y, g, cfg, x_prime=rng.normal(size=(5, 2)))
    pos = np.array([[0, 1], [1, 2], [2, 3]])
    neg = np.array([[0, 2], [1, 4], [3, 0]])
    loss, grads, rows = _finetune_pass(model, pos, neg)
    assert np.isfinite(loss)
    expected_keys = {"w1", "b1", "w2", "b2"} | ({"x_prime"} if train_xprime else set())
    assert set(grads) == expected_keys
    assert_fd_grads(model, grads, rows, lambda: _finetune_pass(model, pos, neg)[0])


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
    teacher = init_model(ScorerConfig(d_trainable=4, seed=3), g_train)
    teacher_y = embed(teacher, g_train)
    return manifest, g_train, teacher, teacher_y


def test_finetune_lr_zero_keeps_model():
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=5, seed=2, finetune_lr=0.0,
                        finetune_epochs=3)
    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)
    tuned = finetune_linkpred(student, manifest, g_train, cfg)
    assert np.array_equal(tuned.w1, student.w1)
    assert np.array_equal(tuned.w2, student.w2)


def test_finetune_improves_or_keeps_valid_recall():
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=16, learning_rate=0.05, max_epochs=60, seed=4,
                        finetune_epochs=15, finetune_lr=0.02)
    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)

    def valid_recall(model):
        y = student_embed(model)
        vp = g_train.ids_for([k for p in manifest.valid_pos for k in p]).reshape(-1, 2)
        vn = g_train.ids_for([k for p in manifest.valid_neg for k in p]).reshape(-1, 2)
        z = np.concatenate([
            np.einsum("ij,ij->i", y[vp[:, 0]], y[vp[:, 1]]),
            np.einsum("ij,ij->i", y[vn[:, 0]], y[vn[:, 1]]),
        ])
        labels = np.concatenate([np.ones(len(vp)), np.zeros(len(vn))])
        return recall_at(z, labels, len(vp))

    before = valid_recall(student)
    tuned = finetune_linkpred(student, manifest, g_train, cfg)
    assert valid_recall(tuned) >= before


def test_student_scores_without_graph_access():
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=3, seed=5)
    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)
    # the scoring path takes feature rows only; scoring an isolated node
    # needs no adjacency at all
    iso_features = np.concatenate(
        [np.array([[0.5, 0.5]]), np.zeros((1, teacher.x_prime.shape[1]))], axis=1
    )
    hidden = np.maximum(iso_features @ student.w1 + student.b1, 0.0)
    out = hidden @ student.w2 + student.b2
    assert out.shape == (1, teacher_y.shape[1])
    y = student_embed(student, rows=np.array([0, 3]))
    assert y.shape == (2, teacher_y.shape[1])


def test_imitation_loss_non_increasing_trace():
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=16, learning_rate=0.02, max_epochs=40, seed=6)
    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)
    trace = student.loss_trace
    assert len(trace) >= 2
    # allow tiny stochastic wiggle between epochs, but the trend must descend
    assert trace[-1] <= trace[0]
    assert min(trace) <= trace[0]


def test_student_checkpoint_round_trip(tmp_path):
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    cfg = DistillConfig(hidden=8, max_epochs=2, seed=7)
    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)
    path = tmp_path / "student.bin"
    save_student(path, student, g_train)
    loaded = load_student(path, g_train)
    assert np.allclose(loaded.w1, student.w1, atol=1e-6)
    assert np.allclose(loaded.x_prime, student.x_prime, atol=1e-6)
    y1 = student_embed(student)
    y2 = student_embed(loaded)
    assert np.allclose(y1, y2, atol=1e-5)


def test_imitate_rejects_short_teacher():
    g = fixture_graph()
    with pytest.raises(DataError):
        imitate(np.zeros((3, 2)), g, DistillConfig(), x_prime=np.zeros((5, 2)))


def test_input_matrix_gathers_rows():
    manifest, g_train, teacher, teacher_y = _distill_fixture()
    student = imitate(teacher_y, g_train, DistillConfig(hidden=4, max_epochs=1),
                      x_prime=teacher.x_prime)
    rows = np.array([3, 1, 3, 0])
    full = node_inputs(student.features, student.x_prime)
    assert np.array_equal(node_inputs(student.features, student.x_prime, rows), full[rows])


@pytest.mark.parametrize("train_xprime", [False, True])
def test_student_matches_dense_reference(small_pair, train_xprime):
    src, tar, _ = small_pair
    manifest = make_split(Regime.UNION_TO_TARGET, src, tar, neg_ratio=1.0, seed=2)
    g_train = manifest_training_graph(manifest, src, tar)
    teacher = init_model(ScorerConfig(d_trainable=4, seed=3), g_train)
    teacher_y = embed(teacher, g_train)
    cfg = DistillConfig(hidden=12, learning_rate=0.05, batch_size=16, max_epochs=6,
                        seed=2, train_xprime=train_xprime, finetune_epochs=3,
                        finetune_lr=0.05, finetune_batch_size=16)

    student = imitate(teacher_y, g_train, cfg, x_prime=teacher.x_prime)
    params, x_ref, mse = dense_imitate(teacher_y, g_train, cfg, teacher.x_prime)
    for got, want in zip((student.w1, student.b1, student.w2, student.b2), params):
        assert np.array_equal(got, want)
    assert np.array_equal(student.x_prime, x_ref)
    assert student.imitation_mse == mse

    tuned = finetune_linkpred(student, manifest, g_train, cfg)
    params, x_ref = dense_finetune(params, x_ref, manifest, g_train, cfg)
    for got, want in zip((tuned.w1, tuned.b1, tuned.w2, tuned.b2), params):
        assert np.array_equal(got, want)
    assert np.array_equal(tuned.x_prime, x_ref)
    # fine-tuning keeps a later epoch here, so its steps are compared too
    assert not np.array_equal(tuned.w1, student.w1)


@pytest.mark.parametrize("train_xprime", [False, True])
def test_student_step_memory_is_o_batch(train_xprime):
    """Imitation and fine-tuning steps on 100k nodes allocate a small
    fraction of one N x d_in input."""
    n, d_x, d_t, d_out, hidden, batch = 100_000, 8, 24, 16, 32, 256
    rng = np.random.default_rng(0)
    model = MlpModel(
        config=DistillConfig(hidden=hidden, train_xprime=train_xprime),
        w1=rng.normal(size=(d_x + d_t, hidden)), b1=np.zeros(hidden),
        w2=rng.normal(size=(hidden, d_out)), b2=np.zeros(d_out),
        x_prime=rng.normal(size=(n, d_t)),
        features=rng.normal(size=(n, d_x)).astype(np.float32),
    )
    teacher_y = rng.normal(size=(n, d_out))
    rows = rng.choice(n, size=batch, replace=False)
    pos, neg = rng.integers(0, n, size=(2, batch, 2))
    tracemalloc.start()
    try:
        _, grads = _imitation_pass(model, teacher_y, rows)
        _apply_grads(model, grads, 0.01, rows)
        _, grads, touched = _finetune_pass(model, pos, neg)
        _apply_grads(model, grads, 0.01, touched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("x_prime" in grads) == train_xprime
    assert peak < n * (d_x + d_t) * 8 / 10
