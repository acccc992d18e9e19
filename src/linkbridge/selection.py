"""Training-graph selection and train/valid/test split construction.

The regime picks the pairs a split draws its positives from: the target
graph's edges, the union of both graphs' edges, or the intersection's (every
source/target edge with at least one endpoint among the shared nodes).
The split protocol puts all edges with both endpoints inside the source
node set into training, sends a fixed fraction of the remaining "outside"
edges to training as well, and halves the rest into validation and test,
so evaluation always happens on edges that reach beyond the source graph.
Negatives are uniform non-edges of the union graph, sampled per stratum so
every split keeps the requested negative:positive ratio. The scorer trains
on the union keyspace with the training positives as its only edges
(``training_graph_from_universe``).

The split works on union ids from the regime's positives to the negative
draws. Key strings enter at two places only: a pair's canonical order is
the order of its two keys (``_canon``), read off ranks from Python's
``sorted`` over the union's keys, and the manifest's key pairs are made
once, from the finished id splits. After the split, ``split_ids`` is the one
way back from the manifest's key pairs to node ids: every stage that reads
the split (scorer, student, propagation, evaluation) takes its ``SplitIds``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, is_of_type
from .graph import Graph, first_seen, graph_from_ids, key_pairs, union_graph

__all__ = [
    "Regime",
    "SplitManifest",
    "SplitIds",
    "split_ids",
    "sample_negatives",
    "check_split_knobs",
    "make_split",
    "audit_manifest",
    "manifest_training_graph",
    "training_graph_from_universe",
]

Pair = tuple[str, str]

# Most nodes the exhaustive negative-pair fallback enumerates. Its grids are
# k x k, about 85 MiB at this bound, so it never runs over a whole large graph.
ENUMERATION_NODES = 2048

# split defaults of make_split, audit_manifest and the run config
NEG_RATIO = 2.0
TRAIN_FRAC_OUTSIDE = 0.2

# the manifest's splits, in all_edges() and JSON order
SPLIT_NAMES = ("train_pos", "train_neg", "valid_pos", "valid_neg", "test_pos", "test_neg")


class Regime(str, Enum):
    """Which training graph feeds the scorer."""

    TARGET_TO_TARGET = "target_to_target"
    UNION_TO_TARGET = "union_to_target"
    INTERSECTION_TO_TARGET = "intersection_to_target"

    @classmethod
    def parse(cls, text: str) -> "Regime":
        """A regime by its value or its short name."""
        text = str(text).strip().lower()
        for regime in cls:
            if text in (regime.value, regime.short):
                return regime
        raise DataError(f"unknown regime {text!r}")

    @property
    def short(self) -> str:
        """The value's first three letters: ``tar``, ``uni`` or ``int``."""
        return self.value[:3]


def _canon(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


def _key_ranks(g: Graph) -> np.ndarray:
    """Each node's position in the sorted order of the key strings. Python's
    ``sorted``, since numpy's ``U`` dtype drops trailing NULs."""
    ranks = np.empty(g.num_nodes, dtype=np.int64)
    ranks[g.ids_for(sorted(g.keys))] = np.arange(g.num_nodes)
    return ranks


def _canonical(pairs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """(m, 2) id pairs, each row put in the order of its two keys (``_canon``)."""
    swap = ranks[pairs[:, 0]] > ranks[pairs[:, 1]]
    return np.where(swap[:, None], pairs[:, ::-1], pairs)


def _regime_positives(
    regime: Regime, src: Graph, tar: Graph, union: Graph, ranks: np.ndarray
) -> np.ndarray:
    """The pairs a regime draws its positives from, as (m, 2) union ids: the
    target's edges, the union's, or every edge of either graph touching a
    shared node. The order is the one the split permutes: the target's or
    the union's edge order, or for the intersection the edge order of a
    graph built from the canonical pairs (``_canon``, ranks from
    ``_key_ranks``) of the source's edges then the target's."""
    if regime is Regime.UNION_TO_TARGET:
        return union.edges
    tar_ids = union.ids_for(tar.keys)
    if regime is Regime.TARGET_TO_TARGET:
        return tar_ids[tar.edges]
    src_ids = union.ids_for(src.keys)
    in_src = np.zeros(union.num_nodes, dtype=bool)
    in_src[src_ids] = True
    shared = np.zeros(union.num_nodes, dtype=bool)
    shared[tar_ids[in_src[tar_ids]]] = True
    if not shared.any():
        raise DataError("source and target graphs share no nodes")
    pairs = np.concatenate([src_ids[src.edges], tar_ids[tar.edges]])
    kept = _canonical(pairs[shared[pairs].any(axis=1)], ranks)
    if not kept.size:
        return kept
    order = first_seen([kept])
    return order[graph_from_ids(union.keys, kept, order=order).edges]


# ---------------------------------------------------------------------------
# negative sampling

def _enumerate_non_edges(
    g: Graph, pool: np.ndarray, outside_only: np.ndarray | None
) -> np.ndarray:
    """Exhaustive fallback: every candidate non-edge within the pool as (m, 2).

    Only the pool's nodes are enumerated, so the grid is |pool| x |pool|, not
    N x N; pairs come in ascending (u, v) order. A graph with ``sides`` keeps
    only cross-side pairs.
    """
    nodes = np.unique(pool)
    k = nodes.size
    if k > ENUMERATION_NODES:
        raise DataError(
            f"cannot enumerate candidate pairs over {k} nodes "
            f"(limit {ENUMERATION_NODES}); the graph is too dense to sample negatives"
        )
    adj = np.zeros((k, k), dtype=bool)
    if g.num_edges:
        at = np.minimum(np.searchsorted(nodes, g.edges), k - 1)
        inside = (nodes[at] == g.edges).all(axis=1)
        adj[at[inside, 0], at[inside, 1]] = True
    uu, vv = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mask = (uu < vv) & ~adj
    if outside_only is not None:
        out = np.isin(nodes, outside_only)
        mask &= out[uu] | out[vv]
    if g.sides is not None:
        sides = g.sides[nodes]
        mask &= sides[uu] != sides[vv]
    return np.stack([nodes[uu[mask]], nodes[vv[mask]]], axis=1)


def _rejection_sample_pairs(
    g: Graph,
    count: int,
    rng: np.random.Generator,
    inside_pool: np.ndarray,
    outside_pool: np.ndarray | None = None,
    taken: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` distinct non-adjacent pairs from a stratum.

    With ``outside_pool`` unset, the stratum is all pairs within
    ``inside_pool``, drawn uniformly. Otherwise it is all pairs with at least
    one endpoint in ``outside_pool``: the other endpoint comes from
    ``outside_pool`` with weight o(o-1)/2 against o*s for ``inside_pool``.
    Self-pairs drawn from the outside pool are rejected afterwards, so
    outside-outside pairs come at (o-1)/o of the rate of outside-inside
    pairs; the stratum is not quite uniform. Pairs are rejected when
    adjacent in ``g``, already in ``taken`` (sorted uint64 codes
    ``lo * N + hi``), self-pairs, or same-side when ``g`` has ``sides``.
    Falls back to exhaustive enumeration after eight batches without a new
    pair.

    Returns the (lo, hi) pairs in draw order as a (count, 2) array and
    ``taken`` with their codes added.
    """
    taken = np.zeros(0, dtype=np.uint64) if taken is None else taken
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64), taken
    n = np.uint64(g.num_nodes)

    def code(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return lo.astype(np.uint64) * n + hi.astype(np.uint64)

    # sorted codes of edges and taken pairs, disjoint sets, so a sort merges
    # them; the sentinel n*n encodes no pair, so searchsorted always lands
    # on an entry
    blocked = np.sort(np.concatenate([code(g.edges[:, 0], g.edges[:, 1]), taken, [n * n]]))

    def fresh(codes: np.ndarray) -> np.ndarray:
        return codes[blocked[np.searchsorted(blocked, codes)] != codes]

    picked: list[np.ndarray] = []
    need = count

    if outside_pool is not None:
        o, s = len(outside_pool), len(inside_pool)
        w_oo = o * (o - 1) / 2.0
        w_os = float(o * s)
        if w_oo + w_os <= 0:
            raise DataError("outside stratum has no candidate pairs")
        p_oo = w_oo / (w_oo + w_os)

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        if outside_pool is None:
            u = inside_pool[rng.integers(0, len(inside_pool), size=batch)]
            v = inside_pool[rng.integers(0, len(inside_pool), size=batch)]
            return u, v
        both_out = rng.random(batch) < p_oo
        u = outside_pool[rng.integers(0, len(outside_pool), size=batch)]
        v = np.empty(batch, dtype=np.int64)
        k = int(both_out.sum())
        if k:
            v[both_out] = outside_pool[rng.integers(0, len(outside_pool), size=k)]
        if batch - k:
            v[~both_out] = inside_pool[rng.integers(0, len(inside_pool), size=batch - k)]
        return u, v

    stalls = 0
    while need > 0:
        u, v = draw(max(1024, 2 * need))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ok = lo != hi
        if g.sides is not None:
            ok &= g.sides[lo] != g.sides[hi]
        codes = fresh(code(lo[ok], hi[ok]))
        # first draw of each code, in draw order
        _, first = np.unique(codes, return_index=True)
        new = codes[np.sort(first)][:need]
        stalls = 0 if new.size else stalls + 1
        if stalls >= 8:
            pool = inside_pool if outside_pool is None else np.concatenate([inside_pool, outside_pool])
            cand = _enumerate_non_edges(g, pool, outside_pool)
            cand = fresh(code(cand[:, 0], cand[:, 1]))
            if cand.size < need:
                raise DataError(
                    f"graph too dense: only {cand.size + count - need} candidate "
                    f"negative pairs available, {count} requested"
                )
            new = cand[rng.choice(cand.size, size=need, replace=False)]
        picked.append(new)
        blocked = np.sort(np.concatenate([blocked, new]))
        need -= new.size
    codes = np.concatenate(picked)
    pairs = np.stack([codes // n, codes % n], axis=1).astype(np.int64)
    return pairs, np.sort(np.concatenate([taken, codes]))


def sample_negatives(g: Graph, count: int, seed: int) -> list[Pair]:
    """Uniformly sample ``count`` distinct non-edges of ``g`` as key pairs.

    A graph with ``sides`` is bipartite: only cross-side pairs qualify.
    """
    if count < 0:
        raise DataError("negative count must be >= 0")
    n = g.num_nodes
    if g.sides is not None:
        n0 = int((g.sides == 0).sum())
        cross_edges = int((g.sides[g.edges[:, 0]] != g.sides[g.edges[:, 1]]).sum())
        available = n0 * (n - n0) - cross_edges
    else:
        available = n * (n - 1) // 2 - g.num_edges
    if count > available:
        raise DataError(
            f"graph too dense: {available} non-edges available, {count} requested"
        )
    rng = np.random.default_rng(seed)
    pairs, _ = _rejection_sample_pairs(g, count, rng, np.arange(n, dtype=np.int64))
    return [_canon(g.keys[u], g.keys[v]) for u, v in pairs.tolist()]


# ---------------------------------------------------------------------------
# split manifest

@dataclass(frozen=True)
class SplitManifest:
    """Positive/negative edges partitioned into train/valid/test.

    Edge lists hold canonical external-key pairs over the union keyspace.
    Valid/test edges always have an endpoint outside the source node set.
    """

    regime: Regime
    seed: int
    neg_ratio: float
    train_pos: tuple[Pair, ...]
    train_neg: tuple[Pair, ...]
    valid_pos: tuple[Pair, ...]
    valid_neg: tuple[Pair, ...]
    test_pos: tuple[Pair, ...]
    test_neg: tuple[Pair, ...]

    def splits(self) -> dict[str, tuple[Pair, ...]]:
        return {name: getattr(self, name) for name in SPLIT_NAMES}

    def all_edges(self) -> list[Pair]:
        """Canonical edge ordering used for logit vectors and line graphs."""
        return list(chain.from_iterable(self.splits().values()))

    def to_json(self) -> str:
        """One line of compact JSON: with ``indent``, ``json`` switches to
        its pure-Python encoder, about 4x slower on a large manifest."""
        payload = {
            "regime": self.regime.value,
            "seed": self.seed,
            "neg_ratio": self.neg_ratio,
            "splits": self.splits(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SplitManifest":
        # ValueError covers invalid JSON as well as bad numbers and pairs
        try:
            payload = json.loads(text)
            splits = {
                name: tuple(_canon(str(a), str(b)) for a, b in payload["splits"][name])
                for name in SPLIT_NAMES
            }
            return cls(
                regime=Regime.parse(payload["regime"]),
                seed=int(payload["seed"]),
                neg_ratio=float(payload["neg_ratio"]),
                **splits,
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"malformed manifest: {exc!r}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"{path}: cannot read manifest ({exc.strerror})") from exc
        return cls.from_json(text)


# the six splits as (m, 2) node-id arrays of one graph
SplitIds = NamedTuple("SplitIds", [(name, np.ndarray) for name in SPLIT_NAMES])


def split_ids(manifest: SplitManifest, g: Graph) -> SplitIds:
    """The manifest's splits as node ids of ``g``: one ``pair_ids`` over
    ``all_edges()``, cut at the split sizes, so ``np.concatenate`` of the
    result is the ids of ``all_edges()``."""
    ends = np.cumsum([len(pairs) for pairs in manifest.splits().values()])
    return SplitIds(*np.split(g.pair_ids(manifest.all_edges()), ends[:-1]))


def check_split_knobs(neg_ratio, train_frac_outside) -> None:
    """ConfigError naming every split knob out of range: ``neg_ratio`` must
    be a finite positive number and ``train_frac_outside`` one in [0, 1),
    neither a bool (``errors.is_of_type``)."""
    problems = []
    if not is_of_type(neg_ratio, float) or not neg_ratio > 0:
        problems.append(f"neg_ratio must be positive, got {neg_ratio!r}")
    elif not math.isfinite(neg_ratio):
        problems.append(f"neg_ratio must be finite, got {neg_ratio!r}")
    if not is_of_type(train_frac_outside, float) or not 0.0 <= train_frac_outside < 1.0:
        problems.append(f"train_frac_outside must be in [0, 1), got {train_frac_outside!r}")
    if problems:
        raise ConfigError("; ".join(problems))


def _negative_counts(neg_ratio: float, n_pos: list[int], pairs: int) -> list[int]:
    """``neg_ratio`` times each positive count, rounded: the negative counts
    of one stratum of ``pairs`` node pairs. Asking for more negatives than
    node pairs is a "graph too dense" DataError, raised before any draw."""
    # clamped to pairs + 1, a count is exact up to the bound and past it
    # beyond, and a huge finite ratio cannot overflow int()
    counts = [int(round(min(neg_ratio * n, pairs + 1))) for n in n_pos]
    if sum(counts) > pairs:
        raise DataError(
            f"graph too dense: neg_ratio {neg_ratio!r} asks for "
            f"{neg_ratio * sum(n_pos):.6g} negative pairs from a stratum of {pairs} node pairs"
        )
    return counts


def make_split(
    regime: Regime,
    src: Graph,
    tar: Graph,
    neg_ratio: float = NEG_RATIO,
    train_frac_outside: float = TRAIN_FRAC_OUTSIDE,
    seed: int = 0,
    union: Graph | None = None,
) -> SplitManifest:
    """Build the split manifest for one regime.

    Positives are the regime's pairs (``_regime_positives``). Those with
    both endpoints in the source node set train the model; of the rest, a seeded
    ``train_frac_outside`` share also trains and the remainder is halved
    into validation and test. Negatives are uniform non-edges of the union
    graph, drawn inside/outside the source node set in proportion to the
    positive counts so each split keeps the negative ratio. Every pair is a
    pair of union ids until the manifest's key pairs are made, each in
    canonical key order.
    """
    check_split_knobs(neg_ratio, train_frac_outside)
    union = union if union is not None else union_graph(src, tar)
    rng = np.random.default_rng(seed)
    ranks = _key_ranks(union)

    # the source's nodes as sorted union ids, and the rest
    src_ids = np.sort(union.ids_for(src.keys))
    in_src = np.zeros(union.num_nodes, dtype=bool)
    in_src[src_ids] = True
    outside_ids = np.flatnonzero(~in_src)

    pos = _regime_positives(regime, src, tar, union, ranks)
    inside = in_src[pos].all(axis=1)
    inside_pos, outside_pos = pos[inside], pos[~inside]
    if not len(outside_pos):
        raise DataError(
            "no edges reach outside the source node set; nothing to evaluate"
        )
    outside_pos = outside_pos[rng.permutation(len(outside_pos))]
    n_out = len(outside_pos)
    n_train_out = int(round(train_frac_outside * n_out))
    rem = n_out - n_train_out
    n_valid = (rem + 1) // 2
    train_pos = np.concatenate([inside_pos, outside_pos[:n_train_out]])
    valid_pos = outside_pos[n_train_out : n_train_out + n_valid]
    test_pos = outside_pos[n_train_out + n_valid :]
    if not len(valid_pos) or not len(test_pos):
        raise DataError("too few outside edges to form validation/test splits")

    # negative strata over the union graph
    s, o = src_ids.size, outside_ids.size
    (n_in_neg,) = _negative_counts(neg_ratio, [len(inside_pos)], s * (s - 1) // 2)
    n_tr_out_neg, n_va_neg, n_te_neg = _negative_counts(
        neg_ratio, [n_train_out, len(valid_pos), len(test_pos)], o * (o - 1) // 2 + o * s
    )

    inside_neg, taken = _rejection_sample_pairs(union, n_in_neg, rng, src_ids)
    outside_neg, _ = _rejection_sample_pairs(
        union, n_tr_out_neg + n_va_neg + n_te_neg, rng, src_ids,
        outside_pool=outside_ids, taken=taken,
    )
    train_neg = np.concatenate([inside_neg, outside_neg[:n_tr_out_neg]])
    valid_neg = outside_neg[n_tr_out_neg : n_tr_out_neg + n_va_neg]
    test_neg = outside_neg[n_tr_out_neg + n_va_neg :]

    # key pairs, in canonical order, made once for every split
    splits = (train_pos, train_neg, valid_pos, valid_neg, test_pos, test_neg)
    pairs = key_pairs(union.keys, _canonical(np.concatenate(splits), ranks))
    ends = np.cumsum([0] + [len(ids) for ids in splits])
    return SplitManifest(
        regime=regime,
        seed=seed,
        neg_ratio=neg_ratio,
        **{name: tuple(pairs[a:b]) for name, a, b in zip(SPLIT_NAMES, ends, ends[1:])},
    )


def audit_manifest(
    manifest: SplitManifest,
    src: Graph,
    tar: Graph,
    train_frac_outside: float = TRAIN_FRAC_OUTSIDE,
) -> list[str]:
    """Machine-check every manifest invariant; returns a list of violations."""
    problems: list[str] = []
    union = union_graph(src, tar)
    union_edges = {(_canon(a, b)) for a, b in union.edge_keys()}
    src_keys = set(src.keys)
    splits = manifest.splits()

    names = list(splits)
    for i, a in enumerate(names):
        set_a = set(splits[a])
        if len(set_a) != len(splits[a]):
            problems.append(f"{a} contains duplicate pairs")
        for b in names[i + 1 :]:
            overlap = set_a & set(splits[b])
            if overlap:
                problems.append(f"{a} and {b} overlap on {len(overlap)} pairs")

    for name in ("valid_pos", "valid_neg", "test_pos", "test_neg"):
        for u, v in splits[name]:
            if u in src_keys and v in src_keys:
                problems.append(f"{name} edge ({u},{v}) has no outside endpoint")
                break

    for name in ("train_neg", "valid_neg", "test_neg"):
        bad = set(splits[name]) & union_edges
        if bad:
            problems.append(f"{name} contains {len(bad)} union-graph edges")

    ratio = manifest.neg_ratio
    for pos_name, neg_name in (
        ("train_pos", "train_neg"),
        ("valid_pos", "valid_neg"),
        ("test_pos", "test_neg"),
    ):
        want = ratio * len(splits[pos_name])
        got = len(splits[neg_name])
        if abs(got - want) > 1.0 + 1e-9:
            problems.append(
                f"{neg_name} size {got} not within rounding of {want:.1f}"
            )

    n_out_train = sum(
        1 for u, v in manifest.train_pos if u not in src_keys or v not in src_keys
    )
    n_out = n_out_train + len(manifest.valid_pos) + len(manifest.test_pos)
    if n_out:
        want_train = round(train_frac_outside * n_out)
        if abs(n_out_train - want_train) > 1:
            problems.append(
                f"outside-train fraction off: {n_out_train} of {n_out} (want ~{want_train})"
            )
        if abs(len(manifest.valid_pos) - len(manifest.test_pos)) > 1:
            problems.append("valid/test positive counts differ by more than 1")
    return problems


def training_graph_from_universe(manifest: SplitManifest, universe: Graph) -> Graph:
    """Graph the scorer sees: the universe's nodes, training positives only.

    Nodes are numbered first-seen over the training pairs, then the rest of
    the universe in its order; features and sides follow their nodes. A pair
    naming a node outside the universe is a DataError. Valid/test edges never
    appear in the adjacency, so message passing and heuristics cannot peek at
    evaluation edges.
    """
    ids = universe.pair_ids(manifest.train_pos)
    order = first_seen([ids, np.arange(universe.num_nodes)])
    return graph_from_ids(universe.keys, ids, universe.features, universe.sides, order=order)


def manifest_training_graph(
    manifest: SplitManifest, src: Graph, tar: Graph, union: Graph | None = None
) -> Graph:
    """Training graph over the union keyspace of a source/target pair."""
    union = union if union is not None else union_graph(src, tar)
    return training_graph_from_universe(manifest, union)
