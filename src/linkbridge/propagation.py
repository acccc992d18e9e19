"""Edge-centric label propagation over scored edges.

The broadcast step turns edges into nodes: two original edges are adjacent
in the "line graph" exactly when they share an endpoint, so every original
node contributes a clique among its incident edges. Three variants solve
the same label-spreading fixed point Z = alpha*S*Z + (1-alpha)*G (Zhou et
al., "Learning with Local and Global Consistency", NIPS 2004):

* logit-LP: diffuse residuals (train label minus sigmoid logit) over the
  positive+negative edge graph on its symmetric-normalized operator S_L,
  then add the initial predictions back.
* embedding-LP: diffuse the endpoint mean (Y[u] + Y[v]) / 2 of each
  positive edge over the weighted line graph M = B^T*D^-1*B / 2 (Evans &
  Lambiotte, Phys. Rev. E 80, 016105, 2009), B the N x m node-edge
  incidence matrix, hand each node the mean D^-1*B of its edges' rows, and
  rescore by dot product. B*B^T = D + A gives M*B^T = B^T*P for the lazy
  walk P = (I + D^-1*A)/2, so this is P * diffuse(P, Y): a diffusion of
  the rows of Y of the nodes with an edge in place of an m x d one.
* matrix-LP: diffuse the logit matrix Y*Y^T over the original graph and
  read scores off matrix entries.

One loop, ``damped_iteration``, reaches the fixed point for all of them and
for personalized PageRank, by Chebyshev semi-iteration (Golub & Varga,
Numer. Math. 3, 1961) for a round count fixed before the loop
(``chebyshev_rounds``): neither its weights nor its error bound read the
data, so a state cut into column blocks or chunks gives the whole state's
result bit for bit. The weights need S's spectrum to be real and inside
[-1, 1]; every operator handed to the loop meets that need:

* ``sym_norm_adjacency`` is D^-1/2 A D^-1/2, symmetric, and similar to the
  random walk D^-1 A, whose rows sum to 1 or 0, so its eigenvalues are real
  and at most 1 in modulus.
* The line-graph operator S_L is the same normalization of the line graph's
  0/1 adjacency: two distinct edges share at most one endpoint.
* PPR's P^T = A*D^-1 = D^1/2 (D^-1/2 A D^-1/2) D^-1/2 is similar to the
  first. Isolated rows are zero in all three, which adds the eigenvalue 0.
* The lazy walk P, over the nodes with an edge, is similar to
  D^-1/2 (D + A) D^-1/2 / 2 = (I + D^-1/2 A D^-1/2)/2, positive
  semi-definite (D + A = B*B^T) with its spectrum in [0, 1].

The line graph is never built. Over the m distinct edges of a logit-LP
state, B^T*B has 2 on its diagonal and 1 exactly where two edges share an
endpoint, so S_L = D_L^-1/2 (B^T*B - 2I) D_L^-1/2 with line degree
k_u + k_v - 2 for edge (u, v); it is applied as two sparse products of
O(m) cost through the N nodes and one diagonal term. Embedding-LP and
matrix-LP diffuse Y in blocks of its columns. Matrix-LP acts on the logit
matrix from the left, so diffuse(S, Y*Y^T) = diffuse(S, Y)*Y^T and the
N x N matrix never exists. ``build_line_graph`` materializes S_L as a
reference for tests and size probes; no propagation variant calls it.
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
    "chebyshev_rounds",
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
    """Damping, round cap and accuracy relative to the initial error
    (``chebyshev_rounds``: 21 rounds at the defaults, k_max at tol 0) for
    diffusion; a value out of range is a ConfigError at construction."""

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
    through the N nodes and a diagonal term, O(m) memory, on a 1-D or 2-D
    state. ``line_degrees`` is k_u + k_v - 2 per edge-node; an isolated
    edge-node has degree 0 and a zero row, as in the materialized operator.
    """

    def __init__(self, num_nodes: int, lo: np.ndarray, hi: np.ndarray) -> None:
        incident = np.bincount(np.concatenate([lo, hi]), minlength=num_nodes)
        self.line_degrees = incident[lo] + incident[hi] - 2
        scale = _inv_sqrt(self.line_degrees)
        self._c = _incidence(num_nodes, lo, hi, scale)
        self._ct = self._c.T.tocsr()
        self._diag = 2.0 * scale * scale
        self.shape = (lo.size, lo.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = self._ct @ (self._c @ x)
        out -= self._diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
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


def chebyshev_rounds(alpha: float, tol: float, cap: int) -> int:
    """The fewest rounds k >= 1, at most ``cap``, whose error bound
    1/T_k(1/alpha) = 2*rho^k/(1 + rho^(2k)), rho = alpha/(1 + sqrt(1 -
    alpha^2)), is at most ``tol``: after k Chebyshev rounds the error is at
    most that times the initial error, in the norm in which S is symmetric
    (Saad, "Iterative Methods for Sparse Linear Systems", 2nd ed., SIAM
    2003, ch. 12). 21 rounds at alpha 0.8 and tol 1e-6; tol 0 runs the cap.
    """
    if tol <= 0:
        return cap
    k = math.acosh(max(1.0, 1.0 / tol)) / math.acosh(1.0 / alpha)
    return cap if k >= cap else max(1, math.ceil(k))


def damped_iteration(operator, z: np.ndarray, source, alpha: float, rounds: int) -> np.ndarray:
    """Solve Z = alpha*S*Z + source by ``rounds`` rounds of Chebyshev
    semi-iteration from ``z``, which is used up.

    With M = alpha*S and b the source, the rounds are (Golub & Varga, Numer.
    Math. 3, 1961)::

        Z_1 = M*Z_0 + b
        Z_{k+1} = w_{k+1}*(M*Z_k + b - Z_{k-1}) + Z_{k-1}
        w_2 = 2/(2 - alpha^2),  w_{k+1} = 1/(1 - alpha^2*w_k/4)

    held as the step D_{k+1} = Z_{k+1} - Z_k = w_{k+1}*(M*Z_k + b - Z_k) +
    (w_{k+1} - 1)*D_k, so that a round holds the iterate, the step and one
    product. The weights assume that S is similar to a symmetric matrix with
    its spectrum in [-1, 1], as every operator handed here is (the module
    docstring says why); the error then shrinks by about
    alpha/(1 + sqrt(1 - alpha^2)) a round, 0.5 at alpha 0.8, where the plain
    step Z <- M*Z + b shrinks it by alpha, and ``chebyshev_rounds`` gives
    the rounds that reach a relative accuracy. Nothing in a round reads the
    data, so each column of the state evolves on its own, and every iterate
    is a polynomial in S applied to Z_0 and b.

    ``source`` is an array of the iterate's shape, added as is each round,
    or a scipy sparse array, whose entries are added by index, so a source
    with few entries, such as PPR's teleport, is never dense.

    The iterate and the step are updated in place, and a round makes
    exactly one product ``operator @ z`` and frees it before the next round
    starts. Returns the iterate.

    A non-finite iterate raises ``NumericError`` after the loop, since no
    update makes a NaN or an inf finite again; numpy's warnings on the way
    (inf - inf, 0 * inf) are silenced in the loop's own numpy error state.
    """
    index = None
    if sp.issparse(source):
        entries = sp.coo_array(source)
        entries.sum_duplicates()
        index, source = (entries.row, entries.col), entries.data
    step = np.zeros_like(z)
    omega = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(rounds):
            new = operator @ z
            new *= alpha
            if index is None:
                new += source
            else:
                new[index] += source
            new -= z
            new *= omega
            step *= omega - 1.0
            step += new
            del new  # freed before the next product is made
            z += step
            if k == 0:
                omega = 2.0 / (2.0 - alpha * alpha)
            else:
                omega = 1.0 / (1.0 - alpha * alpha * omega / 4.0)
    if not np.isfinite(z).all():
        raise NumericError(f"diffusion produced non-finite values within {rounds} rounds")
    return z


def diffuse(
    operator,
    z0: np.ndarray,
    source: np.ndarray,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """Solve Z = alpha*S*Z + (1-alpha)*G from Z0, the label-spreading fixed
    point (Zhou et al., "Learning with Local and Global Consistency", NIPS
    2004), by ``damped_iteration``'s Chebyshev rounds.

    ``operator`` is anything with a ``shape`` and ``@`` on an (n,) or (n, d)
    array: a sparse or dense matrix, or a ``LineOperator``. The rounds'
    weights hold for an S similar to a symmetric matrix with its spectrum in
    [-1, 1]; the symmetric-normalized adjacency of a graph or of a line
    graph is one, and so is the lazy walk. The loop runs on U = Z/(1-alpha),
    which solves U = alpha*S*U + G, so the caller's G is added as is each
    round and (1-alpha)*G is never made; U starts from a copy of
    Z0/(1-alpha) that only the loop holds, so neither input is modified.
    Runs ``chebyshev_rounds(alpha, tol, k_max)`` rounds, after which
    ||Z - Z*|| <= tol*||Z0 - Z*|| in the norm in which S is symmetric
    (tol=0 runs exactly k_max rounds). Raises on non-finite values, an
    overflow of Z0/(1-alpha) among them.
    """
    z = np.asarray(z0, dtype=np.float64)
    g_mat = np.asarray(source, dtype=np.float64)
    if z.shape != g_mat.shape:
        raise DataError(f"Z0 shape {z.shape} != source shape {g_mat.shape}")
    if operator.shape[0] != z.shape[0]:
        raise DataError(f"operator rows {operator.shape[0]} != state rows {z.shape[0]}")
    weight = 1.0 - cfg.alpha
    with np.errstate(over="ignore"):
        u = z / weight
    rounds = chebyshev_rounds(cfg.alpha, cfg.tol, cfg.k_max)
    out = damped_iteration(operator, u, g_mat, cfg.alpha, rounds)
    out *= weight
    return out


def endpoint_mean(
    num_nodes: int, u: np.ndarray, v: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per node, the mean of the values its edges hand it.

    Edge e hands the scalar ``values[e]`` to both ``u[e]`` and ``v[e]``,
    summed u side first. A node no edge touches gets 0.
    """
    means = np.zeros(num_nodes)
    np.add.at(means, u, values)
    np.add.at(means, v, values)
    counts = np.bincount(np.concatenate([u, v]), minlength=num_nodes)
    touched = counts > 0
    means[touched] /= counts[touched]
    return means


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_residuals(splits, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sigmoid(z), r, n_train)`` for raw logits ``z`` of the edges of the
    ``selection.SplitIds`` ``splits`` in order: r is label - sigmoid(z) on
    the first ``n_train`` (training) edges, positives first, 0 elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    n_all = sum(map(len, splits))
    if z.shape[0] != n_all:
        raise DataError(f"logit vector has {z.shape[0]} entries, manifest has {n_all} edges")
    p = sigmoid(z)
    n_tp = len(splits.train_pos)
    n_train = n_tp + len(splits.train_neg)
    resid = np.zeros(n_all)
    resid[:n_tp] = 1.0
    resid[:n_train] -= p[:n_train]
    return p, resid, n_train


def logit_lp(
    g: Graph,
    splits,
    z: np.ndarray,
    cfg: DiffusionConfig,
) -> np.ndarray:
    """Residual propagation over the positive+negative edge graph.

    ``z`` holds raw logits of ``np.concatenate(splits)``, the edges of the
    ``selection.SplitIds``, the order the line-graph operator is built in.
    Train edge-nodes seed the diffusion with (label - sigmoid(z)); all other
    edge-nodes start at zero. The diffused residual is added back onto the
    sigmoid predictions and clamped to [0, 1]. Returns calibrated scores in
    that order.
    """
    p, source, _ = train_residuals(splits, z)
    operator = line_operator(g, np.concatenate(splits))
    z_final = diffuse(operator, source, source, cfg)
    return np.clip(p + z_final, 0.0, 1.0)


# a diffusion of Y's columns in flight: one n x c block, at most half of it
_STATE_BYTES = 1024 * 1024


def _diffused_columns(operator, y: np.ndarray, cfg: DiffusionConfig, rows=slice(None)):
    """Yield ``(cols, diffuse(operator, Y[rows, cols], Y[rows, cols], cfg))``
    for an n-row operator, one block after the other, over ``row_blocks(d,
    2*n*8, _STATE_BYTES)``: a block is at most half the budget and at least
    one column. Each column evolves on its own for the rounds ``cfg`` alone
    fixes, so the blocks give the whole diffusion bit for bit, whatever the
    width. A block is copied out first: no round reads Y at its stride."""
    for cols in row_blocks(y.shape[1], 2 * operator.shape[0] * 8, _STATE_BYTES):
        part = np.ascontiguousarray(y[rows, cols], dtype=np.float64)
        yield cols, diffuse(operator, part, part, cfg)


def emb_lp(
    g: Graph,
    pos: np.ndarray | Sequence,
    y: np.ndarray,
    cfg: DiffusionConfig,
    query_edges: np.ndarray | Sequence,
) -> np.ndarray:
    """Unsupervised embedding diffusion over the positive-edge graph.

    Each positive edge carries (Y[u] + Y[v]) / 2, diffused over the weighted
    line graph M = B^T*D^-1*B / 2 (Evans & Lambiotte, "Line graphs, link
    partitions, and overlapping communities", Phys. Rev. E 80, 016105,
    2009); each node takes the mean of its edges' rows, and query edges are
    scored by dot product. B*B^T = D + A gives M*B^T = B^T*P for the lazy
    walk P = (I + D^-1*A)/2, and a Chebyshev round is linear, so this is
    P*diffuse(P, Y) round for round; P is similar to D^-1/2 (D + A) D^-1/2
    / 2, whose spectrum in [0, 1] meets the loop's premise. D and A are
    those of ``pos``, which ``_line_edges`` checks for the distinct,
    loop-free edges the identity needs. A node without an edge keeps its
    row of Y and no other row reads it, so P is one n x n CSR over the n
    nodes with an edge, in id order (2m + n entries), whose rows sum in the
    N x N walk's order. Each ``_diffused_columns`` block becomes P*block in
    their rows; a lone edge hands its endpoints its mean. A block holds four
    n x c arrays. A non-finite diffusion is a ``NumericError``.
    """
    if y.shape[0] != g.num_nodes:
        raise DataError("embedding row count does not match graph")
    queries = checked_pairs(query_edges, g.num_nodes)
    lo, hi = _line_edges(g.num_nodes, pos)
    nodes, ends = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    n, degs, diag = nodes.size, np.bincount(ends), np.arange(nodes.size)
    walk = sp.csr_array((
        np.concatenate([0.5 / degs[ends], np.full(n, 0.5)]),
        (np.concatenate([ends, diag]), np.concatenate([np.roll(ends, lo.size), diag])),
    ), shape=(n, n))
    y_upd = np.array(y, dtype=np.float64)
    for cols, block in _diffused_columns(walk, y, cfg, nodes):
        y_upd[nodes, cols] = walk @ block
        del block  # before the next block is diffused
    return score_edges(y_upd, queries)


def xmc_scores(
    g: Graph,
    y: np.ndarray,
    cfg: DiffusionConfig,
    query_edges: np.ndarray | Sequence,
) -> np.ndarray:
    """Score query edges off the diffused logit matrix Z = diffuse(S, Y*Y^T).

    Diffusion is linear and acts from the left, and Z0 = Y*Y^T, so every
    iterate factors as Z_k = Yhat_k * Y^T with Yhat_k the same diffusion run
    on Y itself: Z = diffuse(S, Y, Y) * Y^T, made in ``_diffused_columns``'
    blocks. Edge (u, v) with u < v reads entry (u, v), i.e. Yhat[u] . Y[v].
    """
    if y.shape[0] != g.num_nodes:
        raise DataError("embedding row count does not match graph")
    q = np.sort(checked_pairs(query_edges, g.num_nodes), axis=1)
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.empty_like(y)
    for cols, block in _diffused_columns(sym_norm_adjacency(g), y, cfg):
        y_hat[:, cols] = block
        del block  # before the next block is diffused
    return np.einsum("ij,ij->i", y_hat[q[:, 0]], y[q[:, 1]])
