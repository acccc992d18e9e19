"""Immutable CSR-indexed undirected graph with external<->internal id mapping.

External node ids are opaque strings; internal ids are dense integers. Every
graph is built by ``graph_from_ids`` from integer edge ids, and numbered by
one rule, ``first_seen``: nodes in order of first appearance over the edge
endpoints, then any extra nodes. Seeded draws over nodes (negative pairs, the
scorer's random table for a graph without features) follow that order, so
construction must stay deterministic given the input order. ``build_graph``
interns string keys by the same rule. All edges are canonical unordered pairs
(u < v internally), with self-loops and duplicates dropped at build time.

Construction does no per-edge Python work: edges are deduplicated and the CSR
ordered through int64 codes ``u * N + v``, and keys map to ids and back with
one dict lookup or one object-array gather per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = [
    "Graph",
    "BuildStats",
    "build_graph",
    "checked_pairs",
    "first_seen",
    "graph_from_ids",
    "key_pairs",
    "sorted_distinct",
    "node_intersection",
    "union_graph",
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
        return key_pairs(self.keys, self.edges)

    def ids_for(self, keys: Iterable[str]) -> np.ndarray:
        try:
            return np.fromiter(map(self.key_to_id.__getitem__, keys), dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"unknown node key {exc.args[0]!r}") from exc

    def pair_ids(self, pairs: Iterable[tuple[str, str]]) -> np.ndarray:
        """(m, 2) int64 internal ids of external key pairs; (0, 2) if empty."""
        return self.ids_for(chain.from_iterable(pairs)).reshape(-1, 2)


def key_pairs(keys: Sequence[str], ids: np.ndarray) -> list[tuple[str, str]]:
    """The key pairs of an (m, 2) array of indices into ``keys``, row by row."""
    table = np.array(keys, dtype=object)
    return list(zip(table[ids[:, 0]].tolist(), table[ids[:, 1]].tolist()))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by one sort. numpy 2.4's ``np.unique``
    takes a hash path on int64 that is much slower: 3.1 ms against 0.18 ms
    at 18,000 values on a 2-vCPU VM."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def checked_pairs(edges: Sequence | np.ndarray, num_nodes: int) -> np.ndarray:
    """(m, 2) int64 node-id pairs; raises unless every id is an integer in
    [0, num_nodes). Floats and strings are not converted: 0.7 is not node 0,
    and the key "03" is not node 3."""
    arr = np.asarray(edges)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"node ids must be integers, got {arr.dtype} values")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise DataError("edge endpoint out of range")
    return np.stack([arr[:, 0], arr[:, 1]], axis=1)


def first_seen(ids: Sequence[np.ndarray]) -> np.ndarray:
    """The distinct ids of a sequence of id arrays (each read row-major), in
    order of first appearance: the node-numbering rule."""
    flat = np.concatenate([np.asarray(a, dtype=np.int64).ravel() for a in ids])
    _, first = np.unique(flat, return_index=True)
    return flat[np.sort(first)]


def graph_from_ids(
    keys: Sequence[str],
    edges: np.ndarray,
    features: np.ndarray | None = None,
    sides: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> Graph:
    """The one Graph constructor: ``edges`` is an (m, 2) array of ids into
    ``keys``, and ``features``/``sides`` hold one row per key.

    ``order``, when given, lists the ids to keep: node i of the graph is
    ``keys[order[i]]``, and every edge must join two kept ids. Edges are
    canonicalized (u < v); self-loops and duplicates are dropped and counted
    on ``build_stats``. Side labels must be 0 or 1.
    """
    if len(keys) == 0:
        raise DataError("graph has no nodes")
    edges = checked_pairs(edges, len(keys))
    if features is not None:
        features = np.array(features, dtype=np.float32)
        if features.ndim != 2 or features.shape[0] != len(keys):
            raise DataError(f"{len(keys)} nodes but feature rows of shape {features.shape}")
    if sides is not None:
        sides = np.array(sides)
        if sides.shape != (len(keys),):
            raise DataError(f"{len(keys)} nodes but side labels of shape {sides.shape}")
        bad = np.flatnonzero((sides != 0) & (sides != 1))
        if bad.size:
            raise DataError(f"side of node {keys[bad[0]]!r} is {sides[bad[0]].item()!r}, not 0 or 1")
        sides = sides.astype(np.int8)
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        new_id = np.full(len(keys), -1, dtype=np.int64)
        new_id[order] = np.arange(order.size)
        edges = checked_pairs(new_id[edges], order.size)
        keys = [keys[i] for i in order.tolist()]
        features = None if features is None else features[order]
        sides = None if sides is None else sides[order]
    keys = tuple(keys)
    n = len(keys)
    key_to_id = dict(zip(keys, range(n)))
    if len(key_to_id) != n:
        raise DataError("duplicate node keys")

    # distinct (u < v) pairs in lexicographic order: one sort of the codes u*n+v
    loops = edges[:, 0] == edges[:, 1]
    u, v = edges[~loops, 0], edges[~loops, 1]
    codes = sorted_distinct(np.minimum(u, v) * n + np.maximum(u, v))
    edges = np.stack([codes // n, codes % n], axis=1)
    stats = BuildStats(self_loops_dropped=int(loops.sum()),
                       duplicates_dropped=u.size - codes.size)

    # sorted CSR: both directions of every edge, ordered by the code row*n+col
    both = np.concatenate([codes, edges[:, 1] * n + edges[:, 0]])
    both.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both // n, minlength=n), out=indptr[1:])
    indices = both % n

    for arr in (indptr, indices, edges, features, sides):
        if arr is not None:
            arr.flags.writeable = False
    return Graph(keys, key_to_id, indptr, indices, edges, features, sides, build_stats=stats)


# node-keyed rows: a mapping from key to row, or distinct keys and an array
# holding one row per key
KeyedRows = Mapping[str, object] | tuple[Sequence[str], np.ndarray]


def _rows_in_id_order(
    rows: KeyedRows | None, key_to_id: Mapping[str, int], name: str
) -> np.ndarray | None:
    """Node-keyed rows in id order: exactly one row per node."""
    if rows is None:
        return None
    keys, values = (list(rows), list(rows.values())) if isinstance(rows, Mapping) else rows
    at = np.fromiter(map(key_to_id.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
    unknown = np.flatnonzero(at < 0)
    if unknown.size:
        raise DataError(f"{name} rows for unknown nodes: {[keys[i] for i in unknown[:5]]}")
    if at.size < len(key_to_id):  # distinct known keys, so some node has none
        have = np.zeros(len(key_to_id), dtype=bool)
        have[at] = True
        missing = list(compress(key_to_id, ~have))
        raise DataError(f"missing {name} rows for nodes: {missing[:5]}")
    where = np.empty_like(at)
    where[at] = np.arange(at.size)
    return np.asarray(values)[where]


def build_graph(
    edge_list: Sequence[tuple[str, str]],
    features: KeyedRows | None = None,
    sides: KeyedRows | None = None,
    extra_nodes: Iterable[str] = (),
) -> Graph:
    """Build a canonical Graph from external-id edge pairs.

    Keys are strings, interned in first-seen order over the edge endpoints,
    then ``extra_nodes`` (isolated nodes, in given order). Duplicate
    undirected edges and self-loops are dropped; the counts are reported on
    ``Graph.build_stats``. ``features`` and ``sides`` need exactly one row per
    node, given as a ``{key: row}`` mapping or as distinct keys with an array
    of their rows: feature rows share one dimension, side labels are 0 or 1.
    """
    keys = dict.fromkeys(chain(chain.from_iterable(edge_list), extra_nodes))
    key_to_id = dict(zip(keys, range(len(keys))))
    ids = np.fromiter(map(key_to_id.__getitem__, chain.from_iterable(edge_list)), dtype=np.int64)
    if isinstance(features, Mapping):
        dims = {len(row) for row in features.values()}
        if len(dims) > 1:
            raise DataError(f"inconsistent feature dimensions: {sorted(dims)}")
    return graph_from_ids(
        list(keys),
        ids.reshape(-1, 2),
        features=_rows_in_id_order(features, key_to_id, "feature"),
        sides=_rows_in_id_order(sides, key_to_id, "side"),
    )


def node_intersection(g1: Graph, g2: Graph) -> list[str]:
    """Shared external node keys of two graphs, sorted for determinism."""
    smaller, larger = (g1, g2) if g1.num_nodes <= g2.num_nodes else (g2, g1)
    return sorted(k for k in smaller.keys if k in larger.key_to_id)


def _merged_rows(
    name: str, rows1: np.ndarray | None, rows2: np.ndarray | None, lookup: np.ndarray,
    keys: Sequence[str],
) -> np.ndarray | None:
    """Per-node rows of a union: g1's, then g2's at their union ids ``lookup``.

    Both graphs carry rows or neither does, and a shared node's two rows must
    agree (``np.isclose`` with atol 1e-6).
    """
    if rows1 is None and rows2 is None:
        return None
    if rows1 is None or rows2 is None:
        raise DataError(f"cannot merge a graph with {name} rows and one without")
    if rows1.shape[1:] != rows2.shape[1:]:
        raise DataError(f"{name} dimension mismatch: {rows1.shape[1]} vs {rows2.shape[1]}")
    shared = lookup < len(rows1)
    agree = np.isclose(rows1[lookup[shared]], rows2[shared], atol=1e-6)
    clash = lookup[shared][~agree.all(axis=tuple(range(1, agree.ndim)))]
    if clash.size:
        raise DataError(f"conflicting {name} rows for shared node {keys[clash.min()]!r}")
    out = np.empty((len(keys), *rows1.shape[1:]), dtype=rows1.dtype)
    out[lookup] = rows2
    out[: len(rows1)] = rows1
    return out


def union_graph(g1: Graph, g2: Graph) -> Graph:
    """Graph over the union keyspace with the union of both edge sets.

    Node order: g1's nodes first, then g2-only nodes in g2 order. Feature
    rows and side labels each merge the same way: both graphs carry them or
    neither does, and a shared node's rows must agree (features to within
    1e-6; sides, being 0 or 1, exactly).
    """
    lookup = np.fromiter(map(g1.key_to_id.get, g2.keys, repeat(-1)), dtype=np.int64,
                         count=g2.num_nodes)
    fresh = lookup < 0
    lookup[fresh] = np.arange(g1.num_nodes, g1.num_nodes + int(fresh.sum()))
    keys = g1.keys + tuple(compress(g2.keys, fresh))
    return graph_from_ids(
        keys,
        np.concatenate([g1.edges, lookup[g2.edges]]),
        features=_merged_rows("feature", g1.features, g2.features, lookup, keys),
        sides=_merged_rows("side", g1.sides, g2.sides, lookup, keys),
    )


def mean_aggregator(g: Graph, dtype=np.float64) -> sp.csr_array:
    """Row-normalized adjacency D^-1 A with entries of ``dtype``, each the
    float64 1/degree rounded once; isolated nodes get a zero row."""
    n = g.num_nodes
    degs = g.degrees()
    inv = np.zeros(n)
    nz = degs > 0
    inv[nz] = 1.0 / degs[nz]
    data = np.repeat(inv.astype(dtype, copy=False), degs)
    return sp.csr_array((data, g.indices.copy(), g.indptr.copy()), shape=(n, n))
