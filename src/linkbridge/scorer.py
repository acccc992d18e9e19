"""Base link scorer: one linear map of precomputed hop features, with
inner-product edge logits.

Each node's embedding is Y = Q·W. Q = [X, ĀX] is the float32 N x 2d hop
table: a node's feature row beside the mean of its neighbours' rows (Ā is
``graph.mean_aggregator``), built once per graph by ``hop_features``. W is
the scorer's one trained array, a float32 2d x d matrix that starts at
[I; 0], so the untrained scorer is the raw feature product X·Xᵀ. A fixed
hop table times one small trained matrix is the SGC/SIGN simplification
(Wu et al., "Simplifying Graph Convolutional Networks", ICML 2019; Frasca
et al., "SIGN: Scalable Inception Graph Neural Networks", 2020). The scorer
keeps no per-node state, so it embeds any graph with the same feature
columns, nodes it never trained on included (the inductive use of
GraphSAGE: Hamilton, Ying & Leskovec, NeurIPS 2017).

A graph without node features reads a fixed random table of
``_RANDOM_FEATURES`` columns in place of X, drawn in node-id order from a
generator with a fixed seed: random node features give the mean aggregation
something to tell nodes apart by (Sato, Yamada & Kashima, "Random Features
Strengthen Graph Neural Networks", SDM 2021).

An edge logit is the inner product of its endpoint embeddings, and training
minimizes the squared pairwise ranking loss (1 - z_pos + z_neg)^2 over
matched positive/negative batches with plain SGD. A step gathers the
batch's rows of Q, takes ``pair_loss`` of their embeddings and moves W by
the 2d x d product of those rows with the embedding gradient: O(batch)
memory, no row-sparse scatter. Gradients are closed-form; no autodiff
framework is involved, which keeps runs deterministic for a fixed seed.
``sgd_epochs`` is the epoch loop of both this scorer and the distilled MLP
student, and ``batch_rows`` the one layout of a batch that ``pair_loss``
reads.

A pass over a whole table (scoring every pair in ``score_edges``, the
student's forward over every node) walks it in ``row_blocks``: its
transient memory is one block of about ``_BLOCK_BYTES`` (or the caller's
own block size), not one table.

The scorer computes in float32: Q, W, every step's gradient and the
embedding Q·W. That is the precision its checkpoint stores
(``checkpoint.save_scorer``), so a reloaded scorer embeds exactly like the
trained one. What leaves the scorer for other stages is float64: ``embed``
returns the float32 embeddings as a float64 table, and ``score_edges`` sums
every logit in float64, whatever the dtype of its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError, check_field_types
from .graph import Graph, checked_pairs, mean_aggregator
from .metrics import recall_at

__all__ = [
    "ScorerConfig",
    "ScorerModel",
    "fit_error",
    "hop_features",
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
    "row_blocks",
]

# Bytes of the widest array that one row block of a whole-table pass makes:
# small enough that a block and its temporaries stay in a core's L2 cache
# while the pass finishes it
_BLOCK_BYTES = 256 * 1024

# The width and the generator seed of the random table that stands in for
# X on a graph without node features
_RANDOM_FEATURES = 16
_RANDOM_SEED = 0x5EED


def row_blocks(n_rows: int, row_bytes: int, block_bytes: int | None = None) -> list[slice]:
    """Consecutive slices covering ``n_rows`` rows, each of about
    ``block_bytes`` (default ``_BLOCK_BYTES``) of rows ``row_bytes`` wide,
    at least one row: the one block rule of every whole-table pass."""
    budget = _BLOCK_BYTES if block_bytes is None else block_bytes
    per_block = max(1, budget // max(1, row_bytes))
    return [slice(i, min(i + per_block, n_rows)) for i in range(0, n_rows, per_block)]


@dataclass(frozen=True)
class ScorerConfig:
    """Scorer knobs; a value out of range is a ConfigError at construction."""

    learning_rate: float = 0.1
    batch_size: int = 512
    epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class ScorerModel:
    """The scorer's config and its one trained array: W, float32, 2d x d
    for the d columns of X that it reads (``_input_width``)."""

    config: ScorerConfig
    weights: np.ndarray
    loss_trace: list[float] = field(default_factory=list)


def _input_width(g: Graph) -> int:
    """Columns d of the X the scorer reads on ``g``: its feature width, or
    ``_RANDOM_FEATURES`` on a graph without features."""
    return g.feature_dim if g.features is not None else _RANDOM_FEATURES


def hop_features(g: Graph) -> np.ndarray:
    """Q = [X, ĀX] as one float32 N x 2d table, Ā the mean aggregator: an
    isolated node's right half is zero. A graph without features gives X
    the seeded random table, of unit expected squared row norm."""
    n, d = g.num_nodes, _input_width(g)
    if g.features is None:
        x = np.random.default_rng(_RANDOM_SEED).standard_normal((n, d), dtype=np.float32)
        x *= np.float32(1.0 / np.sqrt(d))
    else:
        x = g.features
    q = np.empty((n, 2 * d), dtype=np.float32)
    q[:, :d] = x
    q[:, d:] = mean_aggregator(g, np.float32) @ x
    return q


def init_model(config: ScorerConfig, g: Graph) -> ScorerModel:
    """The untrained scorer on ``g``: W = [I; 0], float32, so that its
    embedding is X and its logits are X·Xᵀ."""
    d = _input_width(g)
    return ScorerModel(config=config, weights=np.eye(2 * d, d, dtype=np.float32))


def fit_error(weights: np.ndarray, g: Graph) -> str | None:
    """Why the W ``weights`` cannot embed ``g``, or None when it can."""
    d = _input_width(g)
    if weights.shape == (2 * d, d):
        return None
    return f"scorer reads {weights.shape[0] // 2} features per node, graph has {g.feature_dim}"


def embed(model: ScorerModel, g: Graph) -> np.ndarray:
    """Per-node embeddings Q·W for the whole graph, computed in float32 and
    returned as a float64 table; a graph whose feature width does not fit
    W is a DataError."""
    error = fit_error(model.weights, g)
    if error is not None:
        raise DataError(error)
    return (hop_features(g) @ model.weights).astype(np.float64)


def score_edges(y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Inner-product logits for an (m, 2) array of node index pairs.

    Every logit sums in float64, whatever the dtype of ``y``: a float32
    table scores as its float64 copy would. The pairs are scored in
    ``row_blocks`` of one endpoint row of ``y``, so besides the m logits and
    the checked (m, 2) pairs it holds two gathered endpoint blocks of about
    ``_BLOCK_BYTES`` each, never the two m x d endpoint tables. Each logit
    is the same einsum row as in one pass.
    """
    edges = checked_pairs(edges, y.shape[0])
    out = np.empty(edges.shape[0])
    for block in row_blocks(edges.shape[0], y[:1].nbytes):
        np.einsum("ij,ij->i", y[edges[block, 0]], y[edges[block, 1]],
                  out=out[block], dtype=np.float64)
    return out


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
    for ``pair_loss``, 4b indices into them, in the four blocks
    ``pos[:, 0], pos[:, 1], neg[:, 0], neg[:, 1]``."""
    return np.unique(np.concatenate([pos[:, 0], pos[:, 1], neg[:, 0], neg[:, 1]]),
                     return_inverse=True)


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
    q: np.ndarray, weights: np.ndarray, pos_edges: np.ndarray, neg_edges: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean pair loss of one batch and its gradient w.r.t. W, from the
    batch's rows of the hop table ``q`` alone."""
    rows, inv = batch_rows(pos_edges, neg_edges)
    q_rows = q[rows]
    loss, dy_rows = pair_loss(q_rows @ weights, inv, pos_edges.shape[0])
    return loss, q_rows.T @ dy_rows


def training_loss_and_grads(
    model: ScorerModel,
    g: Graph,
    pos_edges: np.ndarray,
    neg_edges: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and analytic gradient over index-matched pos/neg edge arrays.

    The shorter list is cycled to the longer one's length (no shuffling),
    so the value is a pure deterministic function of W. One
    ``_batch_loss_and_grads`` step on ``g``'s hop table, which it builds;
    ``perfbench/probes.py`` times it.
    """
    pos_edges = np.asarray(pos_edges, dtype=np.int64)
    neg_edges = np.asarray(neg_edges, dtype=np.int64)
    if pos_edges.size == 0 or neg_edges.size == 0:
        raise DataError("need nonempty positive and negative edge arrays")
    pp, pn = pair_indices(pos_edges.shape[0], neg_edges.shape[0], rng=None)
    loss, dw = _batch_loss_and_grads(
        hop_features(g), model.weights, pos_edges[pp], neg_edges[pn]
    )
    return loss, {"weights": dw}


def sgd_epochs(
    pos: np.ndarray, neg: np.ndarray, epochs: int, batch_size: int, rng: np.random.Generator,
    step: Callable[[np.ndarray, np.ndarray], float], valid_recall: Callable[[], float] | None,
    snapshot: Callable[[], Any],
) -> tuple[list[float], Any]:
    """Mini-batch pairwise SGD: the epoch loop of the scorer and the student.

    Each epoch draws shuffled index-matched (pos, neg) pairs from ``rng``
    and calls ``step(batch_pos, batch_neg)`` on consecutive batches; the
    step updates the trainer's state in place and returns the batch loss.
    ``valid_recall()`` scores the initial state, whose ``snapshot()`` is
    the first best, and the state after each epoch: a strictly better
    recall keeps a new ``snapshot()``. So training keeps its initial state
    unless an epoch beats it on validation. Returns the per-epoch mean
    losses and the selected snapshot: the final state's when there is no
    validation split (``valid_recall`` None). A non-finite batch loss is a
    NumericError, raised without a numpy overflow warning before it.
    """
    best = None if valid_recall is None else (valid_recall(), snapshot())
    trace: list[float] = []
    # a diverging step overflows; the loss check below reports it, alone
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            pp, pn = pair_indices(pos.shape[0], neg.shape[0], rng)
            epoch_pos, epoch_neg = pos[pp], neg[pn]
            losses = []
            for start in range(0, epoch_pos.shape[0], batch_size):
                batch = slice(start, start + batch_size)
                loss = step(epoch_pos[batch], epoch_neg[batch])
                if not np.isfinite(loss):
                    raise NumericError(
                        f"training diverged: non-finite loss {loss} at epoch {epoch}")
                losses.append(loss)
            trace.append(float(np.mean(losses)))
            if best is not None:
                rec = valid_recall()
                if rec > best[0]:
                    best = (rec, snapshot())
    return trace, snapshot() if best is None else best[1]


def train_scorer(config: ScorerConfig, g_train: Graph, splits) -> ScorerModel:
    """Fit W on the training edges of ``splits``, a ``selection.SplitIds``
    over ``g_train``.

    ``sgd_epochs`` over the training pairs from ``init_model``'s W; the
    initial W and the W after each epoch are scored on the validation split
    (recall at |valid_pos|), and the best is returned. The per-epoch mean
    batch loss lands in ``model.loss_trace``. Of N-row arrays it holds the
    float32 hop table and, while validating, its embedding.
    """
    pos, neg = splits.train_pos, splits.train_neg
    valid_pos, valid_neg = splits.valid_pos, splits.valid_neg
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("manifest has empty training splits")
    q = hop_features(g_train)
    w = init_model(config, g_train).weights
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5C0E]))

    def step(bp: np.ndarray, bn: np.ndarray) -> float:
        loss, dw = _batch_loss_and_grads(q, w, bp, bn)
        w[...] -= config.learning_rate * dw
        return loss

    def valid_recall() -> float:
        return pair_recall(q @ w, valid_pos, valid_neg)

    trace, w_best = sgd_epochs(
        pos, neg, config.epochs, config.batch_size, rng, step,
        valid_recall if len(valid_pos) and len(valid_neg) else None, w.copy,
    )
    return ScorerModel(config=config, weights=w_best, loss_trace=trace)
