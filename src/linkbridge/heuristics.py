"""Non-learned edge-ranking baselines: CN, AA, and personalized PageRank."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph, mean_aggregator

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


def _check_edges(g: Graph, edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.min() < 0 or edges.max() >= g.num_nodes):
        raise DataError("edge endpoint out of range")
    return edges


def common_neighbors(g: Graph, edges: np.ndarray) -> np.ndarray:
    """|N(u) & N(v)| per query pair."""
    edges = _check_edges(g, edges)
    out = np.zeros(edges.shape[0], dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        out[i] = np.intersect1d(
            g.neighbors(int(u)), g.neighbors(int(v)), assume_unique=True
        ).size
    return out


def adamic_adar(g: Graph, edges: np.ndarray) -> np.ndarray:
    """Sum of 1/ln(deg(w)) over shared neighbors w.

    A shared neighbor has edges to both endpoints, so deg(w) >= 2 and the
    log never vanishes.
    """
    edges = _check_edges(g, edges)
    degs = g.degrees()
    out = np.zeros(edges.shape[0])
    for i, (u, v) in enumerate(edges):
        shared = np.intersect1d(
            g.neighbors(int(u)), g.neighbors(int(v)), assume_unique=True
        )
        if shared.size:
            out[i] = float(np.sum(1.0 / np.log(degs[shared])))
    return out


def ppr_vectors(
    g: Graph, sources: np.ndarray, cfg: PprConfig, chunk: int = 256
) -> np.ndarray:
    """Personalized PageRank vectors, one column per source node.

    Power iteration of pi <- t*e_s + (1-t)*(P^T pi + dangling_mass*e_s);
    random-walk mass stranded on degree-0 nodes restarts at the source, so
    every column sums to one. Warns and keeps the last iterate if the
    iteration budget runs out before ``tol`` is met.
    """
    cfg.validate()
    sources = np.asarray(sources, dtype=np.int64)
    n = g.num_nodes
    p_t = mean_aggregator(g).T.tocsr()
    dangling = g.degrees() == 0
    t = cfg.teleport
    out = np.zeros((n, sources.size))
    for start in range(0, sources.size, chunk):
        cols = sources[start : start + chunk]
        restart = np.zeros((n, cols.size))
        restart[cols, np.arange(cols.size)] = 1.0
        pi = restart.copy()
        converged = False
        for _ in range(cfg.iterations):
            stranded = pi[dangling].sum(axis=0) if dangling.any() else 0.0
            nxt = t * restart + (1.0 - t) * (p_t @ pi + restart * stranded)
            delta = float(np.max(np.abs(nxt - pi)))
            pi = nxt
            if delta < cfg.tol:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"personalized PageRank did not converge within {cfg.iterations} "
                "iterations; using the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        out[:, start : start + cols.size] = pi
    return out


def ppr_scores(g: Graph, edges: np.ndarray, cfg: PprConfig) -> np.ndarray:
    """Symmetrized scores pi_u[v] + pi_v[u] per query pair."""
    edges = _check_edges(g, edges)
    if edges.size == 0:
        return np.zeros(0)
    sources, inv = np.unique(edges.ravel(), return_inverse=True)
    pi = ppr_vectors(g, sources, cfg)
    inv = inv.reshape(-1, 2)
    u_col, v_col = inv[:, 0], inv[:, 1]
    u_node, v_node = edges[:, 0], edges[:, 1]
    return pi[v_node, u_col] + pi[u_node, v_col]
