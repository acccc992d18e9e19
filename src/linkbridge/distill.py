"""Pointwise MLP student distilled from the scorer's embeddings.

The student is a 2-layer rectifier MLP mapping each node's feature row X to
the teacher's embedding space. The teacher's embedding [X, ĀX]·W
(``scorer.embed``) is as wide as X, d_x columns, so the student maps d_x
features to d_x outputs: it reads X alone where the teacher also reads the
mean of the neighbours' rows. It first imitates the teacher embeddings
under mean squared error, then fine-tunes on the pairwise ranking loss over
its own inner-product logits, in the scorer's own epoch loop
(``scorer.sgd_epochs``, which keeps the imitated student unless an epoch
beats it on validation) and batch layout (``scorer.batch_rows``). Its
parameters are its weights alone: it reads neither the adjacency nor any
per-node table, so it scores any node from its feature row, an isolated or
low-degree node exactly like any other, and a node of another graph with
the same feature columns too.

The student computes in float32: its weights, activations and gradients.
That is the precision its checkpoint stores (``checkpoint.save_student``),
so a reloaded student is the trained one bit for bit, and each of its dense
steps moves half the bytes of a float64 one. The functions follow the
dtype of the weights (numpy's own promotion), so float64 weights still
compute in float64. Only the batch's rows of the float64 teacher table are
cast, never the table.

A training step gathers only the batch's feature rows, and of hidden width
it holds one activation and one gradient. Inference over many nodes
(``student_embed``, the closing imitation MSE) runs in ``scorer.row_blocks``,
so it holds one block of activations, not N rows of each layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_field_types
from .graph import Graph
from .scorer import batch_rows, pair_loss, pair_recall, row_blocks, sgd_epochs

__all__ = [
    "DistillConfig",
    "MlpModel",
    "student_embed",
    "imitate",
    "finetune_linkpred",
]


@dataclass(frozen=True)
class DistillConfig:
    """Student knobs; a value out of range is a ConfigError at construction."""

    hidden: int = 128
    learning_rate: float = 0.02
    batch_size: int = 256
    max_epochs: int = 200
    seed: int = 0
    plateau_tol: float = 1e-4
    plateau_epochs: int = 5
    finetune_epochs: int = 20
    finetune_lr: float = 0.01
    finetune_batch_size: int = 256

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.hidden < 1:
            raise ConfigError("hidden width must be >= 1")
        if self.learning_rate < 0 or self.finetune_lr < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.max_epochs < 0 or self.finetune_epochs < 0:
            raise ConfigError("epoch budgets must be >= 0")
        if self.batch_size < 1 or self.finetune_batch_size < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.plateau_epochs < 1 or self.plateau_tol < 0:
            raise ConfigError("plateau_epochs must be >= 1 and plateau_tol >= 0")


@dataclass
class MlpModel:
    """2-layer student: X -> hidden (relu) -> teacher embedding dim, plus a
    handle on the feature rows of the graph it embeds. ``imitate`` makes
    the four weights float32, the precision of the student's checkpoint."""

    config: DistillConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    features: np.ndarray
    imitation_mse: float | None = None
    loss_trace: list[float] = field(default_factory=list)


def _init_mlp(config: DistillConfig, d_in: int, d_out: int, rng) -> tuple:
    """Float32 weights from float64 draws of ``rng``."""
    s1 = np.sqrt(2.0 / d_in)
    s2 = np.sqrt(2.0 / config.hidden)
    w1 = rng.normal(0.0, s1, size=(d_in, config.hidden)).astype(np.float32)
    b1 = np.zeros(config.hidden, dtype=np.float32)
    w2 = rng.normal(0.0, s2, size=(config.hidden, d_out)).astype(np.float32)
    b2 = np.zeros(d_out, dtype=np.float32)
    return w1, b1, w2, b2


def _inputs(model: MlpModel, rows: np.ndarray | slice) -> np.ndarray:
    """Feature rows of the nodes ``rows`` in the weights' dtype."""
    return model.features[rows].astype(model.w1.dtype, copy=False)


def _forward(model: MlpModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activation and output for input rows ``h``.

    The bias and the rectifier are applied in place, so the pass holds one
    hidden-width array; ``z1 > 0`` is the pre-activation's ``a > 0`` for
    every float, so the backward pass needs no other.
    """
    z1 = h @ model.w1
    z1 += model.b1
    np.maximum(z1, 0.0, out=z1)
    out = z1 @ model.w2
    out += model.b2
    return z1, out


def _backward(
    model: MlpModel, h: np.ndarray, z1: np.ndarray, d_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients from the output gradient of the rows ``h``."""
    da = d_out @ model.w2.T
    da *= z1 > 0
    return {"w1": h.T @ da, "b1": da.sum(axis=0), "w2": z1.T @ d_out, "b2": d_out.sum(axis=0)}


def _mse(out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    err = out - target
    return float(np.sum(err * err) / err.size), err


def _output_blocks(model: MlpModel, rows: np.ndarray | None = None):
    """Yield ``(block, student output of those rows)`` per ``row_blocks``
    block of ``rows`` (of every node when None), one row of the widest
    layer wide; each output row is the same as in one full forward."""
    n = model.features.shape[0] if rows is None else rows.shape[0]
    width = max(model.w1.shape[0], model.w1.shape[1], model.w2.shape[1])
    for block in row_blocks(n, model.w1.itemsize * width):
        ids = block if rows is None else rows[block]
        yield block, _forward(model, _inputs(model, ids))[1]


def student_embed(model: MlpModel, rows: np.ndarray | None = None) -> np.ndarray:
    """Student embeddings from node features alone (no adjacency access).

    The table is float64 holding the student's float32 outputs, so the
    inner products of ``score_edges`` and ``pair_recall`` sum in float64.
    Besides the output it holds one row block of inputs and activations,
    about ``scorer._BLOCK_BYTES`` per layer, never an N-row activation.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    n = model.features.shape[0] if rows is None else rows.shape[0]
    out = np.empty((n, model.w2.shape[1]))
    for block, y in _output_blocks(model, rows):
        out[block] = y
    return out


def _imitation_mse(model: MlpModel, teacher_y: np.ndarray) -> float:
    """Mean squared error of the student against every teacher row, summed
    block by block, so its last bits may differ from one whole-table sum."""
    total = 0.0
    for block, y in _output_blocks(model):
        err = y - teacher_y[block]
        total += float(np.sum(err * err))
    return total / teacher_y.size


def _imitation_pass(
    model: MlpModel, teacher_y: np.ndarray, rows: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared imitation error of the distinct ``rows`` and its
    gradients, against the batch's teacher rows in the weights' dtype."""
    h = _inputs(model, rows)
    z1, out = _forward(model, h)
    loss, err = _mse(out, teacher_y[rows].astype(model.w1.dtype, copy=False))
    return loss, _backward(model, h, z1, 2.0 * err / err.size)


def _apply_grads(model: MlpModel, grads: dict[str, np.ndarray], lr: float) -> None:
    """SGD step in place."""
    model.w1 -= lr * grads["w1"]
    model.b1 -= lr * grads["b1"]
    model.w2 -= lr * grads["w2"]
    model.b2 -= lr * grads["b2"]


def imitate(teacher_y: np.ndarray, g: Graph, config: DistillConfig) -> MlpModel:
    """Fit the student, from ``g``'s node features, to the teacher
    embeddings until the loss plateaus; a graph without features is a
    DataError. The fitted model records the final imitation MSE and the
    per-epoch loss trace.
    """
    if g.features is None:
        raise DataError("the MLP student reads node features, and the graph has none")
    if teacher_y.shape[0] != g.num_nodes:
        raise DataError("teacher embeddings do not cover all nodes")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD157]))
    w1, b1, w2, b2 = _init_mlp(config, g.feature_dim, teacher_y.shape[1], rng)
    model = MlpModel(config=config, w1=w1, b1=b1, w2=w2, b2=b2, features=g.features)
    n = g.num_nodes
    trace: list[float] = []
    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            rows = perm[start : start + config.batch_size]
            loss, grads = _imitation_pass(model, teacher_y, rows)
            if not np.isfinite(loss):
                raise NumericError(f"imitation diverged at epoch {epoch}")
            losses.append(loss)
            _apply_grads(model, grads, config.learning_rate)
        trace.append(float(np.mean(losses)))
        if len(trace) > config.plateau_epochs:
            past = trace[-config.plateau_epochs - 1]
            if past > 0 and (past - trace[-1]) / past < config.plateau_tol:
                break
    model.imitation_mse = _imitation_mse(model, teacher_y)
    model.loss_trace = trace
    return model


def _finetune_pass(
    model: MlpModel, pos: np.ndarray, neg: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch ranking loss and gradients."""
    rows, inv = batch_rows(pos, neg)
    h = _inputs(model, rows)
    z1, y_rows = _forward(model, h)
    loss, dy = pair_loss(y_rows, inv, pos.shape[0])
    del y_rows
    return loss, _backward(model, h, z1, dy)


def finetune_linkpred(model: MlpModel, splits) -> MlpModel:
    """Continue training the student on the link prediction loss.

    ``sgd_epochs`` over matched train pos/neg pairs of ``splits``, a
    ``selection.SplitIds`` over the graph whose feature rows ``model``
    reads; returns the checkpoint with the best validation recall (at
    |valid_pos|), the imitated student included: an epoch is kept only if
    it beats the recall training starts from. The step size, epochs and
    batches are ``model.config``'s; the input is ``model``'s feature rows,
    as in imitation.
    """
    config = model.config

    pos, neg = splits.train_pos, splits.train_neg
    valid_pos, valid_neg = splits.valid_pos, splits.valid_neg
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("manifest has empty training splits")

    work = replace(model, w1=model.w1.copy(), b1=model.b1.copy(), w2=model.w2.copy(),
                   b2=model.b2.copy())
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xF17E]))

    has_valid = valid_pos.shape[0] > 0 and valid_neg.shape[0] > 0
    # validation embeds only the validation endpoints, under local ids
    valid_rows, valid_local = np.unique(
        np.concatenate([valid_pos.ravel(), valid_neg.ravel()]), return_inverse=True
    )
    valid_pos = valid_local[: valid_pos.size].reshape(-1, 2)
    valid_neg = valid_local[valid_pos.size :].reshape(-1, 2)

    def step(bp: np.ndarray, bn: np.ndarray) -> float:
        loss, grads = _finetune_pass(work, bp, bn)
        _apply_grads(work, grads, config.finetune_lr)
        return loss

    def valid_recall() -> float:
        return pair_recall(student_embed(work, valid_rows), valid_pos, valid_neg)

    def snapshot() -> tuple[np.ndarray, ...]:
        return work.w1.copy(), work.b1.copy(), work.w2.copy(), work.b2.copy()

    _, selected = sgd_epochs(
        pos, neg, config.finetune_epochs, config.finetune_batch_size, rng, step,
        valid_recall if has_valid else None, snapshot,
    )
    work.w1, work.b1, work.w2, work.b2 = selected
    return work
