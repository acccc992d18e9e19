"""Base link scorer: trainable node table, inner-product edge logits.

Each node's representation concatenates its frozen feature row with a
trainable row; an optional one-hop encoder adds the neighborhood mean and
projects through a shared weight matrix. An edge logit is the inner product
of its endpoint embeddings, and training minimizes the squared pairwise
ranking loss (1 - z_pos + z_neg)^2 over matched positive/negative batches
with plain SGD. Gradients are closed-form; no autodiff framework is
involved, which keeps runs deterministic for a fixed seed.

A training step touches only the batch's rows (and, under the one-hop
encoder, their neighbors): gradients come back row-sparse and the trainable
table is updated by index. ``sgd_epochs`` is the epoch loop of both this
scorer and the distilled MLP student, and ``batch_rows`` the one layout of
a batch that ``pair_loss`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError
from .graph import Graph, checked_pairs, mean_aggregator
from .metrics import recall_at

__all__ = [
    "ScorerConfig",
    "ScorerModel",
    "node_inputs",
    "init_model",
    "embed",
    "score_edges",
    "train_scorer",
    "training_loss_and_grads",
    "pair_indices",
    "batch_rows",
    "pair_loss",
    "pair_recall",
    "sgd_epochs",
]

ENCODERS = ("embedding_only", "one_hop_mean")


@dataclass(frozen=True)
class ScorerConfig:
    d_trainable: int = 64
    encoder: str = "embedding_only"
    learning_rate: float = 0.05
    batch_size: int = 512
    epochs: int = 30
    seed: int = 0
    d_out: int | None = None

    def validate(self) -> None:
        if self.d_trainable < 1:
            raise ConfigError("d_trainable must be >= 1")
        if self.d_out is not None and self.d_out < 1:
            raise ConfigError("d_out must be >= 1")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"unknown encoder {self.encoder!r}; options: {ENCODERS}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class ScorerModel:
    """Trainable state plus a handle on the frozen feature matrix."""

    config: ScorerConfig
    x_prime: np.ndarray
    encoder_weights: np.ndarray | None
    features: np.ndarray | None
    loss_trace: list[float] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return int(self.x_prime.shape[0])


def node_inputs(
    features: np.ndarray | None, x_prime: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Rows of [X, X'] as float64; gathers before it concatenates, so a
    batch's input costs O(batch), not O(N)."""
    if rows is not None:
        x_prime = x_prime[rows]
        features = None if features is None else features[rows]
    xp = x_prime.astype(np.float64, copy=False)
    if features is None:
        return xp
    return np.concatenate([features.astype(np.float64), xp], axis=1)


def init_model(config: ScorerConfig, g: Graph) -> ScorerModel:
    """Seeded init: X' uniform in [-1/sqrt(d), 1/sqrt(d)], likewise W."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.d_trainable)
    x_prime = rng.uniform(-bound, bound, size=(g.num_nodes, config.d_trainable))
    weights = None
    if config.encoder == "one_hop_mean":
        d_x = g.feature_dim
        d_in = d_x + config.d_trainable
        d_out = config.d_out if config.d_out is not None else d_in
        wb = 1.0 / np.sqrt(d_in)
        weights = rng.uniform(-wb, wb, size=(d_in, d_out))
    return ScorerModel(
        config=config,
        x_prime=x_prime,
        encoder_weights=weights,
        features=g.features,
    )


def embed(model: ScorerModel, g: Graph) -> np.ndarray:
    """Per-node embeddings Y for the whole graph."""
    if model.num_nodes != g.num_nodes:
        raise DataError(
            f"model has {model.num_nodes} node rows, graph has {g.num_nodes}"
        )
    h = node_inputs(model.features, model.x_prime)
    if model.config.encoder == "embedding_only":
        return h
    agg = mean_aggregator(g)
    return (h + agg @ h) @ model.encoder_weights


def score_edges(y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Inner-product logits for an (m, 2) array of node index pairs."""
    edges = checked_pairs(edges, y.shape[0])
    return np.einsum("ij,ij->i", y[edges[:, 0]], y[edges[:, 1]])


def pair_indices(n_pos: int, n_neg: int, rng: np.random.Generator | None):
    """Index-matched (pos, neg) id arrays covering the longer list once."""
    length = max(n_pos, n_neg)
    if rng is None:
        pp, pn = np.arange(n_pos), np.arange(n_neg)
    else:
        pp, pn = rng.permutation(n_pos), rng.permutation(n_neg)
    idx = np.arange(length)
    return pp[idx % n_pos], pn[idx % n_neg]


def batch_rows(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one batch layout of every trainer: sorted distinct node ids and,
    for ``pair_loss``, 4b indices into them.

    Known defect: it lays endpoints out pair by pair (u0, v0, u1, ...) while
    ``pair_loss`` reads four blocks of b, so logits pair the wrong endpoints.
    The column layout ``pos[:, 0], pos[:, 1], neg[:, 0], neg[:, 1]`` fixes it.
    """
    return np.unique(np.concatenate([pos.ravel(), neg.ravel()]), return_inverse=True)


def pair_loss(
    y_rows: np.ndarray, inv: np.ndarray, b: int
) -> tuple[float, np.ndarray]:
    """Mean squared ranking loss of one batch and its gradient w.r.t. ``y_rows``.

    ``inv`` holds 4b row indices into ``y_rows`` in four blocks of ``b``:
    positive logit i is y[inv[i]] . y[inv[b + i]] and negative logit i is
    y[inv[2b + i]] . y[inv[3b + i]]. Every trainer's batch loss goes through
    here, so the scorer and the MLP student optimize the same objective.
    """
    pu, pv = inv[0:b], inv[b : 2 * b]
    nu, nv = inv[2 * b : 3 * b], inv[3 * b :]
    z_pos = np.einsum("ij,ij->i", y_rows[pu], y_rows[pv])
    z_neg = np.einsum("ij,ij->i", y_rows[nu], y_rows[nv])
    resid = 1.0 - z_pos + z_neg
    loss = float(np.mean(resid * resid))

    dz_pos = -2.0 * resid / b
    dz_neg = 2.0 * resid / b
    # dy[u] += dz * y[v] and dy[v] += dz * y[u] for every logit, as one
    # product with the r x r matrix holding dz at (u, v) and (v, u)
    r = y_rows.shape[0]
    coef = sp.csr_matrix(
        (
            np.concatenate([dz_pos, dz_pos, dz_neg, dz_neg]),
            (inv, np.concatenate([pv, pu, nv, nu])),
        ),
        shape=(r, r),
    )
    return loss, coef @ y_rows


def pair_recall(y: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """Recall at |pos| of inner-product logits over ``pos`` then ``neg`` pairs.

    The model-selection rule of every trainer: the checkpoint with the best
    validation value wins.
    """
    z = np.concatenate([score_edges(y, pos), score_edges(y, neg)])
    labels = np.concatenate(
        [np.ones(len(pos), dtype=np.int8), np.zeros(len(neg), dtype=np.int8)]
    )
    return recall_at(z, labels, len(pos))


def _batch_loss_and_grads(
    h: np.ndarray,
    weights: np.ndarray | None,
    agg: sp.csr_array | None,
    encoder: str,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
    d_x: int,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """Mean pair loss of one batch and its gradients, row-sparse in X'.

    Returns ``(loss, touched, dxp_rows, dw)``: ``touched`` holds the sorted
    node ids whose X' rows get a non-zero batch gradient ``dxp_rows``.
    """
    rows, inv = batch_rows(pos_edges, neg_edges)
    b = pos_edges.shape[0]

    if encoder == "embedding_only":
        loss, dy_rows = pair_loss(h[rows], inv, b)
        return loss, rows, dy_rows[:, d_x:], None
    agg_rows = agg[rows, :]
    p_rows = h[rows] + agg_rows @ h
    loss, dy_rows = pair_loss(p_rows @ weights, inv, b)
    dw = p_rows.T @ dy_rows
    dp_rows = (dy_rows @ weights.T)[:, d_x:]
    # p_rows reads h at the batch rows and, through the mean, at their
    # neighbors; agg_rows re-indexed onto that set stays O(batch)
    touched, local = np.unique(
        np.concatenate([rows, agg_rows.indices]), return_inverse=True
    )
    agg_local = sp.csr_array(
        (agg_rows.data, local[rows.size :], agg_rows.indptr),
        shape=(rows.size, touched.size),
    )
    dxp_rows = np.zeros((touched.size, dp_rows.shape[1]))
    dxp_rows[local[: rows.size]] = dp_rows
    dxp_rows += agg_local.T @ dp_rows
    return loss, touched, dxp_rows, dw


def training_loss_and_grads(
    model: ScorerModel,
    g: Graph,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and analytic gradients over index-matched pos/neg edge arrays.

    The shorter list is cycled to the longer one's length (no shuffling),
    so the value is a pure deterministic function of the model parameters.
    One ``_batch_loss_and_grads`` step, with the X' gradient scattered into
    the table's shape; ``perfbench/probes.py`` times it.
    """
    pos_edges = np.asarray(pos_edges, dtype=np.int64)
    neg_edges = np.asarray(neg_edges, dtype=np.int64)
    if pos_edges.size == 0 or neg_edges.size == 0:
        raise DataError("need nonempty positive and negative edge arrays")
    pp, pn = pair_indices(pos_edges.shape[0], neg_edges.shape[0], rng=None)
    h = node_inputs(model.features, model.x_prime)
    d_x = 0 if model.features is None else model.features.shape[1]
    agg = mean_aggregator(g) if model.config.encoder == "one_hop_mean" else None
    loss, touched, dxp_rows, dw = _batch_loss_and_grads(
        h, model.encoder_weights, agg, model.config.encoder,
        pos_edges[pp], neg_edges[pn], d_x,
    )
    dxp = np.zeros_like(h[:, d_x:])
    dxp[touched] += dxp_rows
    grads = {"x_prime": dxp}
    if dw is not None:
        grads["encoder_weights"] = dw
    return loss, grads


def sgd_epochs(
    pos: np.ndarray, neg: np.ndarray, epochs: int, batch_size: int, rng: np.random.Generator,
    step: Callable[[np.ndarray, np.ndarray], float], valid_recall: Callable[[], float] | None,
    snapshot: Callable[[], Any], best: tuple[float, Any],
) -> tuple[list[float], Any]:
    """Mini-batch pairwise SGD: the epoch loop of the scorer and the student.

    Each epoch draws shuffled index-matched (pos, neg) pairs from ``rng``
    and calls ``step(batch_pos, batch_neg)`` on consecutive batches; the
    step updates the trainer's state in place and returns the batch loss.
    After each epoch ``valid_recall()`` scores the state, and a strictly
    better recall than ``best = (recall, snapshot)`` keeps ``snapshot()``.
    Returns the per-epoch mean losses and the selected snapshot: the final
    state's when there is no validation split (``valid_recall`` None) or
    ``best`` still holds no snapshot.
    """
    trace: list[float] = []
    for epoch in range(epochs):
        pp, pn = pair_indices(pos.shape[0], neg.shape[0], rng)
        epoch_pos, epoch_neg = pos[pp], neg[pn]
        losses = []
        for start in range(0, epoch_pos.shape[0], batch_size):
            batch = slice(start, start + batch_size)
            loss = step(epoch_pos[batch], epoch_neg[batch])
            if not np.isfinite(loss):
                raise NumericError(f"training diverged: non-finite loss {loss} at epoch {epoch}")
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        if valid_recall is not None:
            rec = valid_recall()
            if rec > best[0]:
                best = (rec, snapshot())
    if valid_recall is None or best[1] is None:
        return trace, snapshot()
    return trace, best[1]


def train_scorer(config: ScorerConfig, g_train: Graph, manifest) -> ScorerModel:
    """Fit the scorer on a manifest's training edges.

    ``sgd_epochs`` over the training pairs; after each epoch the model is
    scored on the validation split and the best checkpoint (recall at
    |valid_pos|) is returned. The per-epoch mean batch loss lands in
    ``model.loss_trace``.
    """
    config.validate()
    if len(manifest.train_pos) == 0 or len(manifest.train_neg) == 0:
        raise DataError("manifest has empty training splits")
    model = init_model(config, g_train)

    pos = g_train.pair_ids(manifest.train_pos)
    neg = g_train.pair_ids(manifest.train_neg)
    valid_pos = g_train.pair_ids(manifest.valid_pos)
    valid_neg = g_train.pair_ids(manifest.valid_neg)

    d_x = 0 if g_train.features is None else g_train.features.shape[1]
    h = node_inputs(model.features, model.x_prime).copy()
    weights = None if model.encoder_weights is None else model.encoder_weights.copy()
    agg = mean_aggregator(g_train) if config.encoder == "one_hop_mean" else None
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5C0E]))

    def step(bp: np.ndarray, bn: np.ndarray) -> float:
        loss, touched, dxp_rows, dw = _batch_loss_and_grads(
            h, weights, agg, config.encoder, bp, bn, d_x
        )
        h[touched, d_x:] -= config.learning_rate * dxp_rows
        if dw is not None:
            weights[...] -= config.learning_rate * dw
        return loss

    def valid_recall() -> float:
        y = h if agg is None else (h + agg @ h) @ weights
        return pair_recall(y, valid_pos, valid_neg)

    def snapshot() -> tuple[np.ndarray, np.ndarray | None]:
        return h[:, d_x:].copy(), None if weights is None else weights.copy()

    trace, (x_final, w_final) = sgd_epochs(
        pos, neg, config.epochs, config.batch_size, rng, step,
        valid_recall if len(valid_pos) and len(valid_neg) else None, snapshot, (-np.inf, None),
    )
    return replace(
        model, x_prime=x_final, encoder_weights=w_final, loss_trace=trace
    )
