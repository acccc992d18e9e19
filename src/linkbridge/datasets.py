"""Source/target graph pair construction.

Two ways to obtain a (dense source, sparse target) pair with shared nodes:
split one timestamped edge list at two cut years, or generate a seeded
degree-corrected stochastic block model pair at desk scale. In the synthetic
pair the communities are shared across domains, the overlap nodes carry the
same external ids in both graphs, and the target is produced by subsampling
a full-density draw, so the removed edges double as recovery ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, check_field_types
from .graph import (
    Graph,
    build_graph,
    first_seen,
    graph_from_ids,
    key_pairs,
    node_intersection,
    sorted_distinct,
)

__all__ = ["SyntheticSpec", "temporal_split", "generate_synthetic"]


def temporal_split(
    edges: Sequence[tuple[str, str, int]],
    y_low: int,
    y_high: int,
    features: dict[str, np.ndarray] | None = None,
) -> tuple[Graph, Graph]:
    """Split timestamped edges into (source, target) graphs.

    The source keeps every edge strictly before ``y_high``; the target keeps
    every edge strictly after ``y_low``. With ``y_low < y_high`` the window
    in between lands in both graphs, which guarantees node overlap on any
    edge set spanning it. Node sets are induced by each side's edges, and
    each side keeps the feature rows of its nodes; a feature row for a node
    that no edge names is a DataError, as in ``build_graph``.
    """
    if y_low >= y_high:
        raise DataError(f"y_low must be < y_high, got {y_low} >= {y_high}")
    src_pairs: list[tuple[str, str]] = []
    tar_pairs: list[tuple[str, str]] = []
    for item in edges:
        u, v, year = item
        if year is None:
            raise DataError(f"edge ({u}, {v}) has no year; temporal split needs one")
        if year < y_high:
            src_pairs.append((u, v))
        if year > y_low:
            tar_pairs.append((u, v))
    if not src_pairs:
        raise DataError(f"no edges before y_high={y_high}: empty source graph")
    if not tar_pairs:
        raise DataError(f"no edges after y_low={y_low}: empty target graph")

    def subset_feats(pairs: list[tuple[str, str]]) -> dict[str, np.ndarray] | None:
        if features is None:
            return None
        nodes = {k for pair in pairs for k in pair}
        return {k: features[k] for k in nodes if k in features}

    src = build_graph(src_pairs, features=subset_feats(src_pairs))
    tar = build_graph(tar_pairs, features=subset_feats(tar_pairs))
    if features is not None:
        unknown = [k for k in features if k not in src.key_to_id and k not in tar.key_to_id]
        if unknown:
            raise DataError(f"feature rows for unknown nodes: {unknown[:5]}")
    if not node_intersection(src, tar):
        raise DataError("source and target graphs share no nodes")
    return src, tar


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic transfer benchmark.

    ``overlap_ratio`` is the shared fraction of the smaller node set;
    ``mean_deg_src > mean_deg_tar`` encodes the source's richer links.
    ``feature_shift`` moves the feature mean of target-exclusive nodes along
    a fixed random direction, modelling the cross-domain distribution gap.
    A spec out of range is a ConfigError at construction.
    """

    n_src: int
    n_tar: int
    overlap_ratio: float
    mean_deg_src: float
    mean_deg_tar: float
    feature_dim: int
    feature_shift: float
    seed: int
    n_communities: int = 8
    intra_prob: float = 0.85
    degree_sigma: float = 0.5
    feature_noise: float = 0.35

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_src < 2 or self.n_tar < 2:
            raise ConfigError("need at least 2 nodes per domain")
        if not 0.0 < self.overlap_ratio <= 1.0:
            raise ConfigError(f"overlap_ratio must be in (0, 1], got {self.overlap_ratio}")
        if self.overlap_ratio * min(self.n_src, self.n_tar) < 1.0:
            raise ConfigError("overlap_ratio leaves no shared node")
        # equality admits the degenerate no-gap limit (identical domains);
        # a sparser source than target is never meaningful here
        if self.mean_deg_src < self.mean_deg_tar:
            raise ConfigError(
                "source must not be sparser than target: "
                f"mean_deg_src={self.mean_deg_src} < mean_deg_tar={self.mean_deg_tar}"
            )
        for name, n in (("n_src", self.n_src), ("n_tar", self.n_tar)):
            if self.mean_deg_src >= n - 1:
                raise ConfigError(f"mean_deg_src={self.mean_deg_src} infeasible for {name}={n}")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.n_communities < 1:
            raise ConfigError("n_communities must be >= 1")


def _sample_block_edges(
    members: np.ndarray,
    comm: np.ndarray,
    theta: np.ndarray,
    mean_deg: float,
    intra_prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ~mean_deg*|members|/2 unique undirected edges over ``members``.

    Endpoints are drawn proportionally to per-node propensity theta; a
    seeded coin decides for each edge whether both endpoints come from one
    community. Duplicates and self-pairs are dropped, then the draw is
    trimmed to the requested count with a seeded permutation. Pairs are kept
    as int64 codes ``lo * n + hi`` over the local ids, whose sort order is
    the pairs' lexicographic order.
    """
    n = members.size
    target_count = int(round(mean_deg * n / 2.0))
    if target_count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    local_comm = comm[members]
    local_theta = theta[members].astype(np.float64)
    weight = local_theta / local_theta.sum()
    comm_ids = np.unique(local_comm)
    comm_weight = np.array(
        [local_theta[local_comm == c].sum() for c in comm_ids], dtype=np.float64
    )
    comm_weight /= comm_weight.sum()

    collected: list[np.ndarray] = []
    n_unique = 0
    want = int(target_count * 1.5) + 16
    for _attempt in range(12):
        m = want
        intra = rng.random(m) < intra_prob
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        # inter-community: both endpoints global theta draws
        n_inter = int((~intra).sum())
        if n_inter:
            u[~intra] = rng.choice(n, size=n_inter, p=weight)
            v[~intra] = rng.choice(n, size=n_inter, p=weight)
        # intra-community: group by drawn community, draw endpoints within
        n_intra = int(intra.sum())
        if n_intra:
            drawn = rng.choice(comm_ids.size, size=n_intra, p=comm_weight)
            uu = np.empty(n_intra, dtype=np.int64)
            vv = np.empty(n_intra, dtype=np.int64)
            for ci, c in enumerate(comm_ids):
                mask = drawn == ci
                cnt = int(mask.sum())
                if cnt == 0:
                    continue
                cand = np.flatnonzero(local_comm == c)
                if cand.size < 2:
                    # degenerate community: fall back to global draw
                    uu[mask] = rng.choice(n, size=cnt, p=weight)
                    vv[mask] = rng.choice(n, size=cnt, p=weight)
                    continue
                w = local_theta[cand] / local_theta[cand].sum()
                uu[mask] = cand[rng.choice(cand.size, size=cnt, p=w)]
                vv[mask] = cand[rng.choice(cand.size, size=cnt, p=w)]
            u[intra] = uu
            v[intra] = vv
        keep = u != v
        collected.append(np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep]))
        pool = sorted_distinct(np.concatenate(collected))
        n_unique = pool.size
        if n_unique >= target_count:
            break
        want = max(256, int((target_count - n_unique) * 2))
    pool = sorted_distinct(np.concatenate(collected))
    if pool.size > target_count:
        take = rng.permutation(pool.size)[:target_count]
        pool = pool[np.sort(take)]
    return members[np.stack([pool // n, pool % n], axis=1)]


def generate_synthetic(spec: SyntheticSpec) -> tuple[Graph, Graph, list[tuple[str, str]]]:
    """Generate (source, target, held-out target edges) from one seed.

    Both domains draw from one planted-community universe; the overlap nodes
    share external ids and feature rows. The target starts from a draw at
    source density and keeps a subsample at ``mean_deg_tar``; the removed
    edges are returned as the latent-link recovery ground truth.
    """
    rng = np.random.default_rng(spec.seed)
    n_overlap = int(round(spec.overlap_ratio * min(spec.n_src, spec.n_tar)))
    n_union = spec.n_src + spec.n_tar - n_overlap
    keys = [f"n{idx:06d}" for idx in range(n_union)]
    shared = np.arange(n_overlap)
    src_only = np.arange(n_overlap, spec.n_src)
    tar_only = np.arange(spec.n_src, n_union)
    src_members = np.concatenate([shared, src_only])
    tar_members = np.concatenate([shared, tar_only])

    # balanced communities over a seeded permutation of the universe
    comm = np.empty(n_union, dtype=np.int64)
    comm[rng.permutation(n_union)] = np.arange(n_union) % spec.n_communities
    theta = rng.lognormal(mean=0.0, sigma=spec.degree_sigma, size=n_union)

    src_edges = _sample_block_edges(
        src_members, comm, theta, spec.mean_deg_src, spec.intra_prob, rng
    )
    tar_full = _sample_block_edges(
        tar_members, comm, theta, spec.mean_deg_src, spec.intra_prob, rng
    )
    n_keep = int(round(spec.mean_deg_tar * tar_members.size / 2.0))
    n_keep = min(n_keep, tar_full.shape[0])
    order = rng.permutation(tar_full.shape[0])
    kept = tar_full[np.sort(order[:n_keep])]
    removed = tar_full[np.sort(order[n_keep:])]

    # per-community feature means; target-exclusive nodes get a mean shift
    scale = 1.0 / np.sqrt(spec.feature_dim)
    mu = rng.normal(0.0, 1.0, size=(spec.n_communities, spec.feature_dim)) * scale
    noise = rng.normal(0.0, 1.0, size=(n_union, spec.feature_dim)) * (
        spec.feature_noise * scale
    )
    feats = mu[comm] + noise
    shift_dir = rng.normal(0.0, 1.0, size=spec.feature_dim)
    shift_dir /= np.linalg.norm(shift_dir)
    feats[tar_only] += spec.feature_shift * scale * shift_dir
    feats = feats.astype(np.float32)

    def to_graph(members: np.ndarray, edge_arr: np.ndarray) -> Graph:
        order = first_seen([edge_arr, members])
        return graph_from_ids(keys, edge_arr, feats, order=order)

    src = to_graph(src_members, src_edges)
    tar = to_graph(tar_members, kept)
    heldout = key_pairs(keys, removed)
    return src, tar, heldout
