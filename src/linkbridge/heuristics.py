"""Non-learned edge-ranking baselines: CN, AA, and personalized PageRank."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, check_field_types
from .graph import Graph, checked_pairs, mean_aggregator
from .propagation import chebyshev_rounds, damped_iteration
from .scorer import row_blocks

__all__ = ["PprConfig", "common_neighbors", "adamic_adar", "ppr_scores"]


@dataclass(frozen=True)
class PprConfig:
    """PPR knobs, ``tol`` relative to the initial error as in
    ``DiffusionConfig``; a value out of range is a ConfigError at construction."""

    # at teleport 0.15 the Chebyshev rounds shrink the error by
    # 0.85/(1 + sqrt(1 - 0.85^2)) = 0.56 per round, so the default tol is
    # reached in 15 of the 50 rounds the cap allows
    teleport: float = 0.15
    iterations: int = 50
    tol: float = 5e-4

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.teleport < 1.0:
            raise ConfigError(f"teleport must be in (0, 1), got {self.teleport}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol must be >= 0")


def _shared_neighbors(g: Graph, edges: np.ndarray) -> sp.csr_array:
    """A[u] * A[v] elementwise for the 0/1 adjacency A: row i stores a 1 at
    each shared neighbour of pair i, in node order."""
    adj = sp.csr_array(
        (np.ones(g.indices.size), g.indices, g.indptr),
        shape=(g.num_nodes, g.num_nodes),
    )
    return adj[edges[:, 0]].multiply(adj[edges[:, 1]]).tocsr()


def common_neighbors(g: Graph, edges: np.ndarray) -> np.ndarray:
    """|N(u) & N(v)| per query pair."""
    edges = checked_pairs(edges, g.num_nodes)
    return np.diff(_shared_neighbors(g, edges).indptr).astype(np.int64)


def adamic_adar(g: Graph, edges: np.ndarray) -> np.ndarray:
    """Sum of 1/ln(deg(w)) over shared neighbors w.

    A shared neighbor has edges to both endpoints, so deg(w) >= 2 and the
    log never vanishes; the weight of every other node is 0. The sparse
    product sums each pair's terms left to right in node order.
    """
    edges = checked_pairs(edges, g.num_nodes)
    degs = g.degrees()
    weight = np.zeros(g.num_nodes)
    shareable = degs >= 2
    weight[shareable] = 1.0 / np.log(degs[shareable])
    return _shared_neighbors(g, edges) @ weight


# a PPR chunk's three live-node x c float64 arrays (iterate, step, product):
# 23 columns at the 20k profile, one chunk a call on the heuristics benchmark
_CHUNK_BYTES = 8 * 1024 * 1024


def ppr_scores(g: Graph, edges: np.ndarray, cfg: PprConfig) -> np.ndarray:
    """Symmetrized personalized PageRank, pi_u[v] + pi_v[u] per query pair.

    pi_s solves pi = t*e_s + (1-t)*(P^T pi + stranded*e_s), with P = D^-1 A
    and the random-walk mass stranded on degree-0 nodes restarting at the
    source. It is reached from pi = e_s by the Chebyshev rounds of
    ``damped_iteration``, the loop of label spreading
    (``propagation.diffuse``), with alpha = 1-t and the teleport t*E of the
    one-hot chunk E added at its seed rows by index, so that t*E is never a
    dense array. The rounds' weights need P^T's spectrum to be real and in
    [-1, 1]: P^T = D^1/2 (D^-1/2 A D^-1/2) D^-1/2 is similar to a symmetric
    normalized adjacency, whose spectrum is. Every chunk runs the same
    ``chebyshev_rounds(1-t, tol, iterations)`` rounds, fixed before the
    loop; when ``iterations`` cuts that count short of ``tol`` (tol > 0),
    the call warns once and keeps the last iterate.

    After k rounds pi_s is a polynomial of degree k in P^T applied to e_s,
    as a power iteration's is, so it is zero on every node more than k hops
    from s: the pattern of zero scores follows the round count. A pair
    further apart than the rounds ran reads 0, where more rounds would give
    it a small positive score; the default tol runs 15 rounds.

    Only the pairs whose two endpoints both have an edge are iterated, and
    only one endpoint of each. On an undirected graph d_u*pi_u[v] =
    d_v*pi_v[u] holds for every truncation of the power series (Andersen,
    Chung & Lang, "Local Graph Partitioning using PageRank Vectors", FOCS
    2006), and for any polynomial q in P^T applied to e_u and e_v, since
    q(P^T) = D^1/2 q(D^-1/2 A D^-1/2) D^-1/2; so a pair (s, w) reads
    pi_s[w] * (1 + d_s/d_w) off the column of s alone, and a self-pair
    reads 2*pi_u[u]. The iterated endpoint s is the one that more of these
    pairs contain (its query degree), the lower id on a tie. This O(pairs)
    rule needs a few percent more sources than a greedy vertex cover of the
    pairs. The distinct s, sorted, are the sources, iterated in chunks over
    the rows of the non-isolated nodes:

    - Every other pair reads exactly what the iteration over all N nodes and
      all endpoints reads: 0, or 1 + 1 = 2 on the self-pair of a degree-0
      node. A walk never reaches a degree-0 node, since its row of P^T is
      empty, and a degree-0 source's column stays e_s (t + (1-t)*1 rounds
      to 1).
    - A live column strands no mass, and P^T restricted to the live nodes
      keeps each row's entries in order, so a column holds the same floats
      whichever sources share its chunk, and the chunk width only bounds
      memory. As every round's iterate is a polynomial in P^T, the
      identity holds at every round, and the scores are those of iterating
      both endpoints, up to rounding.

    A chunk holds three live-node x c float64 arrays, c fixed by
    ``_CHUNK_BYTES``, not O(N x |sources|), and its scores are read off
    before the next one starts.
    """
    edges = checked_pairs(edges, g.num_nodes)
    degs = g.degrees()
    scores = np.where(edges[:, 0] == edges[:, 1], 2.0, 0.0)
    kept = np.flatnonzero((degs[edges] > 0).all(axis=1))
    # s, the endpoint iterated: the one in more kept pairs, the lower id on
    # a tie; w, the endpoint read
    u, v = edges[kept].T
    query_degs = np.bincount(edges[kept].ravel(), minlength=g.num_nodes)
    qu, qv = query_degs[u], query_degs[v]
    from_u = np.where(qu == qv, u <= v, qu > qv)
    s = np.where(from_u, u, v)
    w = np.where(from_u, v, u)
    t = cfg.teleport
    sources, col = np.unique(s, return_inverse=True)
    live_nodes = np.flatnonzero(degs)
    local = np.full(g.num_nodes, -1)
    local[live_nodes] = np.arange(live_nodes.size)
    # a live node's P^T row only holds its neighbours, which are live too
    rows = mean_aggregator(g).T.tocsr()[live_nodes]
    p_t = sp.csr_array(
        (rows.data, local[rows.indices], rows.indptr),
        shape=(live_nodes.size, live_nodes.size),
    )

    # pi_s[w] per kept pair: the row of w and the index of the column of s
    row = local[w]
    reads = np.empty(kept.size)
    rounds = chebyshev_rounds(1.0 - t, cfg.tol, cfg.iterations)
    # the cap binds when a cap one round higher would run more rounds
    if cfg.tol > 0 and rounds < chebyshev_rounds(1.0 - t, cfg.tol, cfg.iterations + 1):
        warnings.warn(f"personalized PageRank does not reach tol {cfg.tol} within "
                      f"{cfg.iterations} iterations", RuntimeWarning, stacklevel=2)
    for chunk in row_blocks(sources.size, 3 * live_nodes.size * 8, _CHUNK_BYTES):
        seeds = local[sources[chunk]]
        cols = np.arange(seeds.size)
        # the one-hot restart E is the iterate the loop uses up; the teleport
        # t*E is added at the seed rows by index, never as a dense array
        restart = np.zeros((live_nodes.size, seeds.size))
        restart[seeds, cols] = 1.0
        teleport = sp.coo_array((np.full(seeds.size, t), (seeds, cols)), shape=restart.shape)
        pi = damped_iteration(p_t, restart, teleport, 1.0 - t, rounds)
        idx = np.flatnonzero((col >= chunk.start) & (col < chunk.stop))
        reads[idx] = pi[row[idx], col[idx] - chunk.start]
    scores[kept] = reads * (1.0 + degs[s] / degs[w])
    return scores
