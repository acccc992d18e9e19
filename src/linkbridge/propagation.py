"""Edge-centric label propagation over scored edges.

The broadcast step turns edges into nodes: two original edges are adjacent
in the "line graph" exactly when they share an endpoint, so every original
node contributes a clique among its incident edges. Three variants ride the
same damped diffusion Z <- alpha*S*Z + (1-alpha)*G on a symmetric-normalized
operator S:

* logit-LP: diffuse residuals (train label minus sigmoid logit) over the
  positive+negative edge graph, then add the initial predictions back.
* embedding-LP: diffuse concatenated endpoint embeddings over the
  positive-edge graph, split them back per endpoint, and rescore by dot
  product of the updated node embeddings. The diffusion acts from the left,
  so each column of the m x 2d edge state evolves on its own: it is run one
  ``scorer.row_blocks`` block of columns at a time, and only one m x 2c
  block of the state ever exists.
* matrix-LP: diffuse the logit matrix Y*Y^T over the original graph and
  read scores off matrix entries.

Neither large object is built. With B the N x m node-edge incidence matrix
of m distinct edges, B^T*B has 2 on its diagonal and 1 exactly where two
edges share an endpoint, so the line-graph operator is
S_L = D_L^-1/2 (B^T*B - 2I) D_L^-1/2 with line degree k_u + k_v - 2 for edge
(u, v); it is applied as two sparse products of O(m*d) cost. The product
is handed out one row block of about 256 KiB at a time: ``damped_iteration``
finishes each block while it is in cache and writes it back into the state
in place, so a line-graph diffusion holds two state arrays, the iterate and
(1-alpha)*G, plus C*Z and one block. Other operators run the same loop with
their full product as one block. Matrix-LP acts on the logit matrix from
the left, so diffuse(S, Y*Y^T) = diffuse(S, Y)*Y^T and the N x N matrix
never exists. ``build_line_graph`` materializes S_L as a reference for
tests and size probes; no propagation variant calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError, check_field_types
from .graph import Graph, checked_pairs
from .scorer import row_blocks, score_edges

__all__ = [
    "DiffusionConfig",
    "LineGraph",
    "LineOperator",
    "line_operator",
    "build_line_graph",
    "sym_norm_adjacency",
    "damped_iteration",
    "diffuse",
    "endpoint_mean",
    "sigmoid",
    "train_residuals",
    "logit_lp",
    "emb_lp",
    "xmc_scores",
]


@dataclass(frozen=True)
class DiffusionConfig:
    """Damping, iteration budget and early-stop tolerance for diffusion; a
    value out of range is a ConfigError at construction."""

    alpha: float = 0.8
    k_max: int = 50
    tol: float = 1e-6

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol must be >= 0")


@dataclass(frozen=True)
class LineGraph:
    """Materialized edge-centric graph: one node per original edge.

    Node ids follow the order of the (pos, neg) input lists, positives
    first. ``norm_adjacency`` is the symmetric-normalized operator with zero
    rows for isolated edge-nodes.
    """

    num_edge_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    norm_adjacency: sp.csr_array
    num_line_edges: int


def _line_edges(
    num_nodes: int, pos: np.ndarray | Sequence, neg: np.ndarray | Sequence = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Validated (lo, hi) endpoints of pos then neg edges.

    The incidence identity behind the line-graph operator holds only for
    distinct edges without self-loops, so both are rejected here.
    """
    edges = np.concatenate(
        [checked_pairs(pos, num_nodes), checked_pairs(neg, num_nodes)]
    )
    if edges.shape[0] == 0:
        raise DataError("cannot build a line graph over zero edges")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if np.any(lo == hi):
        raise DataError("self-loop among line-graph input edges")
    keys = np.sort(lo * num_nodes + hi)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        key = (int(keys[dup[0]] // num_nodes), int(keys[dup[0]] % num_nodes))
        raise DataError(f"duplicate edge {key} in pos/neg input")
    return lo, hi


def _incidence(
    num_nodes: int, lo: np.ndarray, hi: np.ndarray, weight: np.ndarray
) -> sp.csr_array:
    """N x m node-edge incidence matrix B with column e scaled by weight[e]."""
    cols = np.tile(np.arange(lo.size), 2)
    return sp.csr_array(
        (np.tile(weight, 2), (np.concatenate([lo, hi]), cols)),
        shape=(num_nodes, lo.size),
    )


def _inv_sqrt(degs: np.ndarray) -> np.ndarray:
    """Elementwise deg^-1/2, with 0 where the degree is 0."""
    out = np.zeros(degs.shape[0])
    nz = degs > 0
    out[nz] = 1.0 / np.sqrt(degs[nz].astype(np.float64))
    return out


class LineOperator:
    """S_L = D_L^-1/2 (B^T*B - 2I) D_L^-1/2 applied without the line graph.

    With C = B*D_L^-1/2, S_L*x = C^T*(C*x) - 2*D_L^-1*x: two sparse products
    through the N nodes, O(m) memory. ``line_degrees`` is k_u + k_v - 2 per
    edge-node; an isolated edge-node has degree 0 and a zero row, as in the
    materialized operator.

    The product is handed out one row block at a time (``row_products``):
    w = C*x once, then C^T[rows]*w - 2*D_L^-1[rows]*x[rows] per block of
    ``scorer.row_blocks`` rows of x, so a caller can finish each block while
    it is in cache. The row blocks of C^T are sliced from a CSR copy once
    per state row width. ``@`` assembles the same blocks.
    """

    def __init__(self, num_nodes: int, lo: np.ndarray, hi: np.ndarray) -> None:
        incident = np.bincount(np.concatenate([lo, hi]), minlength=num_nodes)
        self.line_degrees = incident[lo] + incident[hi] - 2
        scale = _inv_sqrt(self.line_degrees)
        self._c = _incidence(num_nodes, lo, hi, scale)
        self._diag = 2.0 * scale * scale
        self.shape = (lo.size, lo.size)
        # state row bytes -> [(rows, C^T[rows])]
        self._blocks: dict[int, list[tuple[slice, sp.csr_array]]] = {}

    def _row_blocks(self, x: np.ndarray) -> list[tuple[slice, sp.csr_array]]:
        row_bytes = x[:1].nbytes
        if row_bytes not in self._blocks:
            ct = self._c.T.tocsr()
            self._blocks[row_bytes] = [
                (rows, ct[rows]) for rows in row_blocks(self.shape[0], row_bytes)
            ]
        return self._blocks[row_bytes]

    def row_products(self, x: np.ndarray):
        """Yield ``(rows, (S_L @ x)[rows])`` per row block, each a new array;
        a block reads only C*x and ``x[rows]``."""
        w = self._c @ x
        diag = self._diag.reshape((-1,) + (1,) * (x.ndim - 1))
        for rows, ct in self._row_blocks(x):
            part = ct @ w
            part -= diag[rows] * x[rows]
            yield rows, part

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([part for _, part in self.row_products(x)])


def line_operator(
    g: Graph, pos: np.ndarray | Sequence, neg: np.ndarray | Sequence = ()
) -> LineOperator:
    """Implicit line-graph operator over pos (then neg) edges, in input order."""
    lo, hi = _line_edges(g.num_nodes, pos, neg)
    return LineOperator(g.num_nodes, lo, hi)


def _sym_normalize(n: int, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_array:
    """D^-1/2 A D^-1/2 of a 0/1 CSR adjacency; zero rows when isolated."""
    degs = np.diff(indptr)
    inv_sqrt = _inv_sqrt(degs)
    rows = np.repeat(np.arange(n), degs)
    data = inv_sqrt[rows] * inv_sqrt[indices]
    return sp.csr_array((data, indices.copy(), indptr.copy()), shape=(n, n))


def build_line_graph(
    g: Graph,
    pos: np.ndarray | Sequence,
    neg: np.ndarray | Sequence = (),
) -> LineGraph:
    """Materialize the edge-centric graph over pos (and optionally neg) edges.

    The adjacency is the off-diagonal of B^T*B, i.e. Sigma_v C(k_v, 2) line
    edges. This is the reference the implicit ``LineOperator`` is checked
    against; the propagation variants never build it.
    """
    lo, hi = _line_edges(g.num_nodes, pos, neg)
    m = lo.size
    b = _incidence(g.num_nodes, lo, hi, np.ones(m))
    gram = (b.T @ b).tocoo()
    off = gram.row != gram.col
    adj = sp.csr_array(
        (gram.data[off], (gram.row[off], gram.col[off])), shape=(m, m)
    )
    adj.sort_indices()
    indptr = adj.indptr.astype(np.int64)
    indices = adj.indices.astype(np.int64)
    return LineGraph(
        num_edge_nodes=m,
        indptr=indptr,
        indices=indices,
        norm_adjacency=_sym_normalize(m, indptr, indices),
        num_line_edges=indices.size // 2,
    )


def sym_norm_adjacency(g: Graph) -> sp.csr_array:
    """D^-1/2 A D^-1/2 over the original graph; zero rows when isolated."""
    return _sym_normalize(g.num_nodes, g.indptr, g.indices)


def _row_products(operator, z: np.ndarray):
    """``(rows, (operator @ z)[rows])`` blocks: a ``LineOperator``'s
    cache-sized row blocks, or one block holding any other operator's full
    product."""
    if isinstance(operator, LineOperator):
        return operator.row_products(z)
    return ((slice(None), operator @ z),)


def _advance(old: np.ndarray, new: np.ndarray, g_rows: np.ndarray, alpha: float) -> float:
    """Finish one row block of a damped step: ``new`` <- alpha*new + g_rows,
    and the block's max-abs step from ``old``, which is overwritten on the
    way. The maximum is NaN or inf if either iterate is not finite."""
    new *= alpha
    new += g_rows
    # |old - new| is |new - old| bit for bit
    np.subtract(old, new, out=old)
    return float(np.abs(old, out=old).max(initial=0.0))


def damped_iteration(
    operator, z: np.ndarray, g_term: np.ndarray, alpha: float, k_max: int, tol: float
) -> tuple[np.ndarray, bool]:
    """Iterate Z <- alpha*S*Z + g_term from ``z``, which is used up.

    Each step walks the row blocks of S*Z, ``LineOperator.row_products``
    or one block holding any other operator's full ``operator @ z``, and
    finishes each block (``_advance``) before the next is made. A partial
    block is then copied into its rows of ``z``, so the update is in place;
    a block of all rows becomes the new iterate, and the old one is freed.
    A block reads the old iterate only through C*Z, made before the first
    block, and its own rows, so every step is the plain update bit for bit.

    Returns ``(Z, converged)``: converged once the max-abs step drops below
    ``tol`` (tol=0 forces ``k_max`` rounds). A non-finite iterate makes that
    maximum non-finite and raises ``NumericError``; numpy's warnings on the
    way (inf - inf, 0 * inf) are silenced.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(k_max):
            delta = 0.0
            for rows, new in _row_products(operator, z):
                step = _advance(z[rows], new, g_term[rows], alpha)
                # checked per block: max(delta, NaN) would drop the NaN
                if not math.isfinite(step):
                    raise NumericError(f"diffusion produced non-finite values at step {k}")
                delta = max(delta, step)
                if new.shape == z.shape:
                    z = new
                else:
                    z[rows] = new
            if delta < tol:
                return z, True
    return z, False


def diffuse(
    operator,
    z0: np.ndarray,
    source: np.ndarray,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """Iterate Z <- alpha*S*Z + (1-alpha)*G from Z0.

    ``operator`` is anything with a ``shape`` and ``@`` on an (n,) or (n, d)
    array: a sparse or dense matrix, or a ``LineOperator``. Runs
    ``damped_iteration`` on a copy of Z0 that only the loop holds, so
    neither input is modified: at most ``k_max`` rounds, or until the
    max-abs step change drops below ``tol`` (set tol=0 to force exactly
    k_max iterations). Raises on non-finite intermediate values.
    """
    z = np.asarray(z0, dtype=np.float64)
    g_mat = np.asarray(source, dtype=np.float64)
    if z.shape != g_mat.shape:
        raise DataError(f"Z0 shape {z.shape} != source shape {g_mat.shape}")
    if operator.shape[0] != z.shape[0]:
        raise DataError(
            f"operator rows {operator.shape[0]} != state rows {z.shape[0]}"
        )
    return damped_iteration(
        operator, z.copy(), (1.0 - cfg.alpha) * g_mat, cfg.alpha, cfg.k_max, cfg.tol
    )[0]


def endpoint_mean(
    num_nodes: int, u: np.ndarray, v: np.ndarray, at_u: np.ndarray, at_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the mean of the values its edges hand it: ``(means, touched)``.

    Edge e hands ``at_u[e]`` to ``u[e]`` and ``at_v[e]`` to ``v[e]``, summed
    in that order, u side first. A node no edge touches gets 0.
    """
    means = np.zeros((num_nodes,) + np.shape(at_u)[1:])
    np.add.at(means, u, at_u)
    np.add.at(means, v, at_v)
    counts = np.bincount(np.concatenate([u, v]), minlength=num_nodes)
    touched = counts > 0
    means[touched] /= counts[touched].reshape((-1,) + (1,) * (means.ndim - 1))
    return means, touched


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_residuals(manifest, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sigmoid(z), r, n_train)`` for raw logits ``z`` aligned with
    ``manifest.all_edges()``: r is label - sigmoid(z) on the first
    ``n_train`` (training) edges, positives first, and 0 elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    n_all = len(manifest.all_edges())
    if z.shape[0] != n_all:
        raise DataError(f"logit vector has {z.shape[0]} entries, manifest has {n_all} edges")
    p = sigmoid(z)
    n_tp = len(manifest.train_pos)
    n_train = n_tp + len(manifest.train_neg)
    resid = np.zeros(n_all)
    resid[:n_tp] = 1.0
    resid[:n_train] -= p[:n_train]
    return p, resid, n_train


def logit_lp(
    g: Graph,
    manifest,
    z: np.ndarray,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """Residual propagation over the positive+negative edge graph.

    ``z`` holds raw logits aligned with ``manifest.all_edges()``, the order
    the line-graph operator is built in. Train edge-nodes seed the diffusion
    with (label - sigmoid(z)); all other edge-nodes start at zero. The
    diffused residual is added back onto the sigmoid predictions and clamped
    to [0, 1]. Returns calibrated scores in ``manifest.all_edges()`` order.
    """
    p, source, _ = train_residuals(manifest, z)
    operator = line_operator(g, g.pair_ids(manifest.all_edges()))
    z_final = diffuse(operator, source, source, cfg)
    return np.clip(p + z_final, 0.0, 1.0)


def emb_lp(
    g: Graph,
    pos: np.ndarray | Sequence,
    y: np.ndarray,
    cfg: DiffusionConfig,
    query_edges: np.ndarray | Sequence,
) -> np.ndarray:
    """Unsupervised embedding diffusion over the positive-edge graph.

    Each positive edge carries the concatenation [Y[i], Y[j]] (canonical
    endpoint order). After diffusion the two halves are handed back to the
    endpoints and averaged over incident edges; nodes without a positive
    edge keep their original embedding. Query edges are scored by dot
    product of the updated node embeddings.

    The diffusion acts from the left, so each column evolves on its own.
    The m x 2d edge state is walked one block of c columns of Y at a time,
    c from ``row_blocks(d, 2*m*8)`` (about ``scorer._BLOCK_BYTES`` of state):
    gather [Y[lo, cols], Y[hi, cols]], ``diffuse`` it over the one shared
    ``LineOperator``, restore its isolated edge-nodes, fold it into the
    updated embedding's columns with ``endpoint_mean``, and free it. Besides
    the N x d update, one m x 2c block and its diffusion working set are
    held, never the whole state. Every element is summed in the same order
    as in one whole-state pass. The ``tol`` early stop is measured on each
    block's own columns, as PPR measures it per chunk and ``xmc_scores`` on
    Yhat; where no block stops early (always at tol=0) the scores are the
    whole-state ones bit for bit.
    """
    if y.shape[0] != g.num_nodes:
        raise DataError("embedding row count does not match graph")
    lo, hi = _line_edges(g.num_nodes, pos)
    operator = LineOperator(g.num_nodes, lo, hi)
    # an edge-node with no neighbor has nothing to mix with; keep it intact
    # rather than letting the damping shrink it toward (1-alpha)*G
    isolated = operator.line_degrees == 0
    y_upd = np.array(y, dtype=np.float64)
    for cols in row_blocks(y.shape[1], 2 * lo.size * 8):
        feats = np.concatenate([y[lo, cols], y[hi, cols]], axis=1)
        diffused = diffuse(operator, feats, feats, cfg)
        diffused[isolated] = feats[isolated]
        c = feats.shape[1] // 2
        means, touched = endpoint_mean(
            y.shape[0], lo, hi, diffused[:, :c], diffused[:, c:]
        )
        # nodes without a positive edge keep their row of y
        np.copyto(y_upd[:, cols], means, where=touched[:, None])
        # freed before the next block is gathered
        del feats, diffused, means
    return score_edges(y_upd, query_edges)


def xmc_scores(
    g: Graph,
    y: np.ndarray,
    cfg: DiffusionConfig,
    query_edges: np.ndarray | Sequence,
) -> np.ndarray:
    """Score query edges off the diffused logit matrix Z = diffuse(S, Y*Y^T).

    Diffusion is linear and acts from the left, and Z0 = Y*Y^T, so every
    iterate factors as Z_k = Yhat_k * Y^T with Yhat_k the same diffusion run
    on Y itself: Z = diffuse(S, Y, Y) * Y^T. Edge (u, v) with u < v reads
    entry (u, v), i.e. Yhat[u] . Y[v]; only N x d state is ever held. The
    ``tol`` early stop is measured on Yhat, not on Z.
    """
    if y.shape[0] != g.num_nodes:
        raise DataError("embedding row count does not match graph")
    y = np.asarray(y, dtype=np.float64)
    y_hat = diffuse(sym_norm_adjacency(g), y, y, cfg)
    q = np.sort(checked_pairs(query_edges, g.num_nodes), axis=1)
    return np.einsum("ij,ij->i", y_hat[q[:, 0]], y[q[:, 1]])
