"""Non-learned edge-ranking baselines: CN, AA, and personalized PageRank."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import Graph, checked_pairs, mean_aggregator
from .propagation import damped_iteration

__all__ = ["PprConfig", "common_neighbors", "adamic_adar", "ppr_scores"]


@dataclass(frozen=True)
class PprConfig:
    # at teleport 0.15 the residual shrinks by 0.85 per round, so the
    # default tol is reachable within the 50-iteration budget
    teleport: float = 0.15
    iterations: int = 50
    tol: float = 5e-4

    def validate(self) -> None:
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


# Personalized PageRank sources are iterated this many columns at a time
_CHUNK = 256


def ppr_scores(g: Graph, edges: np.ndarray, cfg: PprConfig) -> np.ndarray:
    """Symmetrized personalized PageRank, pi_u[v] + pi_v[u] per query pair.

    pi_s is the power iteration pi <- t*e_s + (1-t)*(P^T pi + stranded*e_s)
    from pi = e_s, with P = D^-1 A and the random-walk mass stranded on
    degree-0 nodes restarting at the source: ``damped_iteration`` with
    alpha = 1-t and the teleport term t*E of the one-hot chunk E, the loop of
    label spreading (``propagation.diffuse``). The sorted unique endpoints are
    the sources, iterated 256 at a time; a chunk stops once the max-abs step
    over its columns drops below ``tol``, or warns at ``iterations`` and keeps
    the last iterate.

    Only the rows and source columns of the non-isolated nodes are iterated,
    and the floats are those of the iteration over all N nodes:

    - A walk never reaches a degree-0 node: its row of P^T is empty, so every
      iterate is exactly 0 on it. A live column strands no mass, and its step
      is 0 on those rows.
    - A degree-0 source's column stays exactly e_s (t + (1-t)*1 rounds to 1),
      so its step is 0, and it scores 0 except on the pair (s, s).
    - P^T restricted to the live nodes keeps each row's entries in order, so
      every product entry is the same sum. The chunks, their step maxima and
      hence their round counts and warnings are unchanged.

    Memory is O(live nodes x 256) per chunk, not O(N x |sources|): each
    chunk's scores are read off before the next one starts.
    """
    edges = checked_pairs(edges, g.num_nodes)
    if edges.size == 0:
        return np.zeros(0)
    cfg.validate()
    t = cfg.teleport
    sources, inv = np.unique(edges.ravel(), return_inverse=True)
    live_nodes = np.flatnonzero(g.degrees())
    local = np.full(g.num_nodes, -1)
    local[live_nodes] = np.arange(live_nodes.size)
    # a live node's P^T row only holds its neighbours, which are live too
    rows = mean_aggregator(g).T.tocsr()[live_nodes]
    p_t = sp.csr_array(
        (rows.data, local[rows.indices], rows.indptr),
        shape=(live_nodes.size, live_nodes.size),
    )

    # the two reads per pair, pi_u[v] and pi_v[u]: the node read and the
    # index of the source column it is read from
    node = np.concatenate([edges[:, 1], edges[:, 0]])
    col = inv.reshape(-1, 2).T.ravel()
    # a read on a degree-0 node is 1 on its own column and 0 elsewhere
    reads = (node == sources[col]).astype(np.float64)

    for start in range(0, sources.size, _CHUNK):
        chunk_local = local[sources[start : start + _CHUNK]]
        live = np.flatnonzero(chunk_local >= 0)
        seeds, slots = chunk_local[live], np.arange(live.size)
        teleport = np.zeros((live_nodes.size, live.size))
        teleport[seeds, slots] = t
        # from the one-hot E (t > 0 marks it exactly), teleport = t*E
        pi, converged = damped_iteration(
            p_t, (teleport > 0).astype(np.float64), teleport, 1.0 - t,
            cfg.iterations, cfg.tol,
        )
        if not converged:
            warnings.warn(
                f"personalized PageRank did not converge within {cfg.iterations} "
                "iterations; using the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        idx = np.flatnonzero(col // _CHUNK == start // _CHUNK)
        slot = np.full(chunk_local.size, -1)
        slot[live] = slots
        row, s = local[node[idx]], slot[col[idx] - start]
        hit = (row >= 0) & (s >= 0)
        reads[idx[hit]] = pi[row[hit], s[hit]]
    half = edges.shape[0]
    return reads[:half] + reads[half:]
