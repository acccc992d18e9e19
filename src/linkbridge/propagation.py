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
  product of the updated node embeddings.
* matrix-LP: diffuse the logit matrix Y*Y^T over the original graph and
  read scores off matrix entries.

Neither large object is built. With B the N x m node-edge incidence matrix
of m distinct edges, B^T*B has 2 on its diagonal and 1 exactly where two
edges share an endpoint, so the line-graph operator is
S_L = D_L^-1/2 (B^T*B - 2I) D_L^-1/2 with line degree k_u + k_v - 2 for edge
(u, v); it is applied as two sparse products of O(m*d) cost. Matrix-LP acts
on the logit matrix from the left, so diffuse(S, Y*Y^T) = diffuse(S, Y)*Y^T
and the N x N matrix never exists. ``build_line_graph`` materializes S_L as
a reference for tests and size probes; no propagation variant calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError
from .graph import Graph, checked_pairs
from .scorer import score_edges

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
    """Damping, iteration budget and early-stop tolerance for diffusion."""

    alpha: float = 0.8
    k_max: int = 50
    tol: float = 1e-6

    def validate(self) -> None:
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
    """

    def __init__(self, num_nodes: int, lo: np.ndarray, hi: np.ndarray) -> None:
        incident = np.bincount(np.concatenate([lo, hi]), minlength=num_nodes)
        self.line_degrees = incident[lo] + incident[hi] - 2
        scale = _inv_sqrt(self.line_degrees)
        self._c = _incidence(num_nodes, lo, hi, scale)
        self._diag = 2.0 * scale * scale
        self.shape = (lo.size, lo.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        diag = self._diag.reshape((-1,) + (1,) * (x.ndim - 1))
        out = self._c.T @ (self._c @ x)
        out -= diag * x
        return out


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


def damped_iteration(
    operator, z: np.ndarray, g_term: np.ndarray, alpha: float, k_max: int, tol: float
) -> tuple[np.ndarray, bool]:
    """Iterate Z <- alpha*S*Z + g_term from ``z``, which is overwritten.

    ``operator @ z`` must return a new array. Returns ``(Z, converged)``:
    converged once the max-abs step drops below ``tol`` (tol=0 forces
    ``k_max`` rounds). A non-finite iterate makes that maximum non-finite
    and raises ``NumericError``; numpy's warnings on the way (inf - inf,
    0 * inf) are silenced.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(k_max):
            z_next = operator @ z
            z_next *= alpha
            z_next += g_term
            # the step overwrites the old iterate, so no third state is held
            np.subtract(z_next, z, out=z)
            delta = float(np.abs(z, out=z).max(initial=0.0))
            z = z_next
            if not np.isfinite(delta):
                raise NumericError(f"diffusion produced non-finite values at step {k}")
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
    cfg.validate()
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
    """
    if y.shape[0] != g.num_nodes:
        raise DataError("embedding row count does not match graph")
    lo, hi = _line_edges(g.num_nodes, pos)
    operator = LineOperator(g.num_nodes, lo, hi)
    d = y.shape[1]
    feats = np.concatenate([y[lo], y[hi]], axis=1)
    diffused = diffuse(operator, feats, feats, cfg)
    # an edge-node with no neighbor has nothing to mix with; keep it intact
    # rather than letting the damping shrink it toward (1-alpha)*G
    isolated = operator.line_degrees == 0
    diffused[isolated] = feats[isolated]

    y_upd, touched = endpoint_mean(y.shape[0], lo, hi, diffused[:, :d], diffused[:, d:])
    y_upd[~touched] = y[~touched]
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
