"""Immutable CSR-indexed undirected graph with external<->internal id mapping.

External node ids are opaque strings; internal ids are dense integers assigned
in first-seen ingest order, so construction is deterministic given the input
edge order. All edges are canonical unordered pairs (u < v internally), with
self-loops and duplicates dropped at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = [
    "Graph",
    "BuildStats",
    "build_graph",
    "checked_pairs",
    "node_intersection",
    "union_graph",
    "degree_stats",
    "mean_aggregator",
]


@dataclass(frozen=True)
class BuildStats:
    """Counts reported by build_graph for dropped input rows."""

    self_loops_dropped: int = 0
    duplicates_dropped: int = 0


@dataclass(frozen=True)
class Graph:
    """Undirected graph over a fixed node set.

    ``keys[i]`` is the external id of internal node ``i``; ``key_to_id`` is
    the inverse map. ``indptr``/``indices`` form a CSR adjacency with sorted
    neighbor lists; ``edges`` is the canonical (u < v) edge array of shape
    (E, 2). ``features`` is an optional (N, d) float32 matrix and ``sides``
    an optional per-node bipartite side label (0/1).
    """

    keys: tuple[str, ...]
    key_to_id: Mapping[str, int]
    indptr: np.ndarray
    indices: np.ndarray
    edges: np.ndarray
    features: np.ndarray | None = None
    sides: np.ndarray | None = None
    build_stats: BuildStats | None = field(default=None, compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return 0 if self.features is None else int(self.features.shape[1])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_keys(self) -> list[tuple[str, str]]:
        """Edges as external key pairs, in canonical internal order."""
        return [(self.keys[u], self.keys[v]) for u, v in self.edges]

    def ids_for(self, keys: Iterable[str]) -> np.ndarray:
        try:
            return np.array([self.key_to_id[k] for k in keys], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"unknown node key {exc.args[0]!r}") from exc

    def pair_ids(self, pairs: Iterable[tuple[str, str]]) -> np.ndarray:
        """(m, 2) int64 internal ids of external key pairs; (0, 2) if empty."""
        return self.ids_for(chain.from_iterable(pairs)).reshape(-1, 2)


def checked_pairs(edges: Sequence | np.ndarray, num_nodes: int) -> np.ndarray:
    """(m, 2) int64 node-id pairs; raises unless every id is in [0, num_nodes)."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise DataError("edge endpoint out of range")
    return np.stack([arr[:, 0], arr[:, 1]], axis=1)


def _csr_from_edges(num_nodes: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build sorted-CSR (indptr, indices) from a canonical edge array."""
    if edges.size == 0:
        return np.zeros(num_nodes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)


def _freeze(*arrays: np.ndarray | None) -> None:
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False


def _canonicalize_edges(
    edge_list: Sequence[tuple[str, str]],
    key_to_id: dict[str, int],
    keys: list[str],
) -> tuple[np.ndarray, BuildStats]:
    """Assign internal ids in first-seen order, drop self-loops/duplicates."""
    pairs: list[tuple[int, int]] = []
    self_loops = 0
    for a, b in edge_list:
        a, b = str(a), str(b)
        for key in (a, b):
            if key not in key_to_id:
                key_to_id[key] = len(keys)
                keys.append(key)
        if a == b:
            self_loops += 1
            continue
        u, v = key_to_id[a], key_to_id[b]
        pairs.append((u, v) if u < v else (v, u))
    if pairs:
        arr = np.array(pairs, dtype=np.int64)
        edges = np.unique(arr, axis=0)  # rows in lexicographic order
        duplicates = arr.shape[0] - edges.shape[0]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        duplicates = 0
    return edges, BuildStats(self_loops_dropped=self_loops, duplicates_dropped=duplicates)


def build_graph(
    edge_list: Sequence[tuple[str, str]],
    features: Mapping[str, Sequence[float]] | None = None,
    sides: Mapping[str, int] | None = None,
    extra_nodes: Sequence[str] = (),
) -> Graph:
    """Build a canonical Graph from external-id edge pairs.

    Duplicate undirected edges and self-loops are dropped; the counts are
    reported on ``Graph.build_stats``. ``extra_nodes`` admits isolated nodes
    (appended after all edge endpoints, in given order). Feature keys must be
    a subset of node keys and all rows must share one dimension.
    """
    if len(edge_list) == 0 and len(extra_nodes) == 0:
        raise DataError("empty edge list")
    key_to_id: dict[str, int] = {}
    keys: list[str] = []
    edges, stats = _canonicalize_edges(edge_list, key_to_id, keys)
    for key in extra_nodes:
        key = str(key)
        if key not in key_to_id:
            key_to_id[key] = len(keys)
            keys.append(key)
    num_nodes = len(keys)
    indptr, indices = _csr_from_edges(num_nodes, edges)

    feat_matrix = None
    if features is not None:
        dims = {len(row) for row in features.values()}
        if len(dims) > 1:
            raise DataError(f"inconsistent feature dimensions: {sorted(dims)}")
        unknown = [k for k in features if k not in key_to_id]
        if unknown:
            raise DataError(f"feature rows for unknown nodes: {unknown[:5]}")
        missing = [k for k in keys if k not in features]
        if missing:
            raise DataError(f"missing feature rows for nodes: {missing[:5]}")
        dim = dims.pop() if dims else 0
        feat_matrix = np.zeros((num_nodes, dim), dtype=np.float32)
        for key, row in features.items():
            feat_matrix[key_to_id[key]] = np.asarray(row, dtype=np.float32)

    side_arr = None
    if sides is not None:
        side_arr = np.zeros(num_nodes, dtype=np.int8)
        for key, side in sides.items():
            if key not in key_to_id:
                raise DataError(f"side label for unknown node {key!r}")
            side_arr[key_to_id[key]] = int(side)

    _freeze(indptr, indices, edges, feat_matrix, side_arr)
    return Graph(
        keys=tuple(keys),
        key_to_id=key_to_id,
        indptr=indptr,
        indices=indices,
        edges=edges,
        features=feat_matrix,
        sides=side_arr,
        build_stats=stats,
    )


def node_intersection(g1: Graph, g2: Graph) -> list[str]:
    """Shared external node keys of two graphs, sorted for determinism."""
    smaller, larger = (g1, g2) if g1.num_nodes <= g2.num_nodes else (g2, g1)
    return sorted(k for k in smaller.keys if k in larger.key_to_id)


def _merge_features(g1: Graph, g2: Graph, keys: list[str]) -> np.ndarray | None:
    if g1.features is None and g2.features is None:
        return None
    if g1.features is None or g2.features is None:
        raise DataError("cannot merge graphs where only one side has features")
    if g1.feature_dim != g2.feature_dim:
        raise DataError(
            f"feature dimension mismatch: {g1.feature_dim} vs {g2.feature_dim}"
        )
    out = np.zeros((len(keys), g1.feature_dim), dtype=np.float32)
    for i, key in enumerate(keys):
        in1, in2 = key in g1.key_to_id, key in g2.key_to_id
        if in1 and in2:
            r1 = g1.features[g1.key_to_id[key]]
            r2 = g2.features[g2.key_to_id[key]]
            if not np.allclose(r1, r2, atol=1e-6):
                raise DataError(f"conflicting feature rows for shared node {key!r}")
            out[i] = r1
        else:
            src = g1 if in1 else g2
            out[i] = src.features[src.key_to_id[key]]
    return out


def union_graph(g1: Graph, g2: Graph) -> Graph:
    """Graph over the union keyspace with the union of both edge sets.

    Node order: g1's nodes first, then g2-only nodes in g2 order. Features
    are merged when both graphs carry them (shared rows must agree); side
    labels are merged the same way.
    """
    keys = list(g1.keys) + [k for k in g2.keys if k not in g1.key_to_id]
    key_to_id = {k: i for i, k in enumerate(keys)}

    def remap(g: Graph) -> np.ndarray:
        if g.num_edges == 0:
            return np.zeros((0, 2), dtype=np.int64)
        lookup = np.array([key_to_id[k] for k in g.keys], dtype=np.int64)
        e = lookup[g.edges]
        return np.sort(e, axis=1)

    merged = np.concatenate([remap(g1), remap(g2)], axis=0)
    if merged.size:
        merged = np.unique(merged, axis=0)
    indptr, indices = _csr_from_edges(len(keys), merged)
    feats = _merge_features(g1, g2, keys)

    side_arr = None
    if g1.sides is not None or g2.sides is not None:
        side_arr = np.zeros(len(keys), dtype=np.int8)
        for g in (g1, g2):
            if g.sides is None:
                continue
            for i, key in enumerate(g.keys):
                side_arr[key_to_id[key]] = g.sides[i]

    _freeze(indptr, indices, merged, feats, side_arr)
    return Graph(
        keys=tuple(keys),
        key_to_id=key_to_id,
        indptr=indptr,
        indices=indices,
        edges=merged,
        features=feats,
        sides=side_arr,
    )


def degree_stats(g: Graph) -> tuple[float, int]:
    """(mean degree, median degree); median is the lower median on ties."""
    if g.num_nodes == 0:
        raise DataError("degree stats of an empty graph")
    degs = np.sort(g.degrees())
    mean = 2.0 * g.num_edges / g.num_nodes
    median = int(degs[(g.num_nodes - 1) // 2])
    return mean, median


def mean_aggregator(g: Graph) -> sp.csr_array:
    """Row-normalized adjacency D^-1 A; isolated nodes get a zero row."""
    n = g.num_nodes
    degs = g.degrees().astype(np.float64)
    inv = np.zeros(n)
    nz = degs > 0
    inv[nz] = 1.0 / degs[nz]
    rows = np.repeat(np.arange(n), g.degrees())
    data = inv[rows]
    return sp.csr_array((data, g.indices.copy(), g.indptr.copy()), shape=(n, n))
