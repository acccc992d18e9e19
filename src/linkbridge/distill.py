"""Pointwise MLP student distilled from the scorer's embeddings.

The student is a 2-layer rectifier MLP mapping each node's [X, X'] input to
the teacher's embedding space. It first imitates the teacher embeddings
under mean squared error, then fine-tunes on the pairwise ranking loss over
its own inner-product logits, in the scorer's own epoch loop
(``scorer.sgd_epochs``) and batch layout (``scorer.batch_rows``). Inference
touches node features only, never the adjacency, so isolated and
low-degree nodes score exactly like any other node.

A training step reads and writes only the batch's rows: the input [X, X']
is gathered per batch, never rebuilt for all N nodes, and with
``train_xprime`` the X' gradient comes back row-sparse and is applied by
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graph import Graph
from .scorer import batch_rows, node_inputs, pair_loss, pair_recall, sgd_epochs

__all__ = [
    "DistillConfig",
    "MlpModel",
    "student_embed",
    "imitate",
    "finetune_linkpred",
]


@dataclass(frozen=True)
class DistillConfig:
    hidden: int = 128
    learning_rate: float = 0.02
    batch_size: int = 256
    max_epochs: int = 200
    seed: int = 0
    train_xprime: bool = False
    plateau_tol: float = 1e-4
    plateau_epochs: int = 5
    finetune_epochs: int = 20
    finetune_lr: float = 0.01
    finetune_batch_size: int = 256

    def validate(self) -> None:
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
    """2-layer student: [X, X'] -> hidden (relu) -> teacher embedding dim."""

    config: DistillConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    x_prime: np.ndarray
    features: np.ndarray | None
    imitation_mse: float | None = None
    loss_trace: list[float] = field(default_factory=list)


def _init_mlp(config: DistillConfig, d_in: int, d_out: int, rng) -> tuple:
    s1 = np.sqrt(2.0 / d_in)
    s2 = np.sqrt(2.0 / config.hidden)
    w1 = rng.normal(0.0, s1, size=(d_in, config.hidden))
    b1 = np.zeros(config.hidden)
    w2 = rng.normal(0.0, s2, size=(config.hidden, d_out))
    b2 = np.zeros(d_out)
    return w1, b1, w2, b2


def _forward(model: MlpModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activation, hidden activation and output for input rows ``h``."""
    a = h @ model.w1 + model.b1
    z1 = np.maximum(a, 0.0)
    return a, z1, z1 @ model.w2 + model.b2


def _backward(
    model: MlpModel, h: np.ndarray, a: np.ndarray, z1: np.ndarray, d_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients from the output gradient of the rows ``h``.

    With ``train_xprime`` the X' gradient has one row per row of ``h``.
    """
    grads = {"w2": z1.T @ d_out, "b2": d_out.sum(axis=0)}
    da = (d_out @ model.w2.T) * (a > 0)
    grads["w1"] = h.T @ da
    grads["b1"] = da.sum(axis=0)
    if model.config.train_xprime:
        d_x = 0 if model.features is None else model.features.shape[1]
        grads["x_prime"] = (da @ model.w1.T)[:, d_x:]
    return grads


def _mse(out: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    err = out - target
    return float(np.sum(err * err) / err.size), err


def student_embed(model: MlpModel, rows: np.ndarray | None = None) -> np.ndarray:
    """Student embeddings from node inputs alone (no adjacency access)."""
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    return _forward(model, node_inputs(model.features, model.x_prime, rows))[2]


def _imitation_pass(
    model: MlpModel, teacher_y: np.ndarray, rows: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared imitation error of the distinct ``rows`` and its gradients."""
    h = node_inputs(model.features, model.x_prime, rows)
    a, z1, out = _forward(model, h)
    loss, err = _mse(out, teacher_y[rows])
    return loss, _backward(model, h, a, z1, 2.0 * err / err.size)


def _apply_grads(
    model: MlpModel, grads: dict[str, np.ndarray], lr: float, rows: np.ndarray
) -> None:
    """SGD step in place; the X' gradient holds one row per entry of the
    distinct ``rows``."""
    model.w1 -= lr * grads["w1"]
    model.b1 -= lr * grads["b1"]
    model.w2 -= lr * grads["w2"]
    model.b2 -= lr * grads["b2"]
    if "x_prime" in grads:
        model.x_prime[rows] -= lr * grads["x_prime"]


def imitate(
    teacher_y: np.ndarray,
    g: Graph,
    config: DistillConfig,
    x_prime: np.ndarray,
) -> MlpModel:
    """Fit the student to the teacher embeddings until the loss plateaus.

    ``x_prime`` is the teacher's trained table; it stays frozen unless
    ``config.train_xprime`` asks for joint optimization. The fitted model
    records the final imitation MSE and the per-epoch loss trace.
    """
    config.validate()
    if teacher_y.shape[0] != g.num_nodes:
        raise DataError("teacher embeddings do not cover all nodes")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD157]))
    d_x = 0 if g.features is None else g.features.shape[1]
    d_in = d_x + x_prime.shape[1]
    w1, b1, w2, b2 = _init_mlp(config, d_in, teacher_y.shape[1], rng)
    model = MlpModel(
        config=config,
        w1=w1, b1=b1, w2=w2, b2=b2,
        x_prime=np.array(x_prime, dtype=np.float64, copy=True),
        features=g.features,
    )
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
            _apply_grads(model, grads, config.learning_rate, rows)
        trace.append(float(np.mean(losses)))
        if len(trace) > config.plateau_epochs:
            past = trace[-config.plateau_epochs - 1]
            if past > 0 and (past - trace[-1]) / past < config.plateau_tol:
                break
    model.imitation_mse = _mse(student_embed(model), teacher_y)[0]
    model.loss_trace = trace
    return model


def _finetune_pass(
    model: MlpModel, pos: np.ndarray, neg: np.ndarray
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Batch ranking loss and gradients; also returns the distinct node ids
    the X' gradient rows belong to."""
    rows, inv = batch_rows(pos, neg)
    h = node_inputs(model.features, model.x_prime, rows)
    a, z1, y_rows = _forward(model, h)
    loss, dy = pair_loss(y_rows, inv, pos.shape[0])
    return loss, _backward(model, h, a, z1, dy), rows


def finetune_linkpred(
    model: MlpModel, manifest, g: Graph, config: DistillConfig | None = None
) -> MlpModel:
    """Continue training the student on the link prediction loss.

    ``sgd_epochs`` over matched train pos/neg pairs; returns the checkpoint
    with the best validation recall (at |valid_pos|), the imitated student
    included: an epoch is kept only if it beats the recall training starts
    from.
    """
    config = config or model.config
    config.validate()

    pos, neg = g.pair_ids(manifest.train_pos), g.pair_ids(manifest.train_neg)
    valid_pos, valid_neg = g.pair_ids(manifest.valid_pos), g.pair_ids(manifest.valid_neg)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("manifest has empty training splits")

    work = replace(model, w1=model.w1.copy(), b1=model.b1.copy(), w2=model.w2.copy(),
                   b2=model.b2.copy(), x_prime=model.x_prime.copy())
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xF17E]))

    has_valid = valid_pos.shape[0] > 0 and valid_neg.shape[0] > 0
    # validation embeds only the validation endpoints, under local ids
    valid_rows, valid_local = np.unique(
        np.concatenate([valid_pos.ravel(), valid_neg.ravel()]), return_inverse=True
    )
    valid_pos = valid_local[: valid_pos.size].reshape(-1, 2)
    valid_neg = valid_local[valid_pos.size :].reshape(-1, 2)

    def step(bp: np.ndarray, bn: np.ndarray) -> float:
        loss, grads, rows = _finetune_pass(work, bp, bn)
        _apply_grads(work, grads, config.finetune_lr, rows)
        return loss

    def valid_recall() -> float:
        return pair_recall(student_embed(work, valid_rows), valid_pos, valid_neg)

    def snapshot() -> tuple[np.ndarray, ...]:
        return (work.w1.copy(), work.b1.copy(), work.w2.copy(), work.b2.copy(),
                work.x_prime.copy())

    best = (valid_recall(), snapshot()) if has_valid else (-np.inf, None)
    _, selected = sgd_epochs(
        pos, neg, config.finetune_epochs, config.finetune_batch_size, rng, step,
        valid_recall if has_valid else None, snapshot, best,
    )
    work.w1, work.b1, work.w2, work.b2, work.x_prime = selected
    return work
