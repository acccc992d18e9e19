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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import Graph, build_graph, node_intersection, union_graph

__all__ = [
    "Regime",
    "SplitManifest",
    "sample_negatives",
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


class Regime(str, Enum):
    """Which training graph feeds the scorer."""

    TARGET_TO_TARGET = "target_to_target"
    UNION_TO_TARGET = "union_to_target"
    INTERSECTION_TO_TARGET = "intersection_to_target"

    @classmethod
    def parse(cls, text: str) -> "Regime":
        aliases = {
            "tar": cls.TARGET_TO_TARGET,
            "uni": cls.UNION_TO_TARGET,
            "int": cls.INTERSECTION_TO_TARGET,
        }
        text = str(text).strip().lower()
        if text in aliases:
            return aliases[text]
        try:
            return cls(text)
        except ValueError:
            raise DataError(f"unknown regime {text!r}") from None

    @property
    def short(self) -> str:
        return {"target_to_target": "tar", "union_to_target": "uni",
                "intersection_to_target": "int"}[self.value]


def _canon(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


def _regime_positives(regime: Regime, src: Graph, tar: Graph, union: Graph) -> list[Pair]:
    """The pairs a regime draws its positives from: the target's edges, the
    union's, or every edge of either graph touching a shared node, taken in
    ``build_graph``'s deduplicated edge order, which the split permutes."""
    if regime is Regime.TARGET_TO_TARGET:
        return tar.edge_keys()
    if regime is Regime.UNION_TO_TARGET:
        return union.edge_keys()
    shared = set(node_intersection(src, tar))
    if not shared:
        raise DataError("source and target graphs share no nodes")
    kept = [
        _canon(a, b)
        for g in (src, tar)
        for a, b in g.edge_keys()
        if a in shared or b in shared
    ]
    return build_graph(kept).edge_keys() if kept else []


# ---------------------------------------------------------------------------
# negative sampling

def _edge_code_set(g: Graph) -> np.ndarray:
    """Sorted uint64 codes of existing canonical edges, for O(log E) lookup."""
    n = np.uint64(g.num_nodes)
    codes = g.edges[:, 0].astype(np.uint64) * n + g.edges[:, 1].astype(np.uint64)
    return np.sort(codes)


def _codes_exist(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_codes, codes)
    pos = np.minimum(pos, max(len(sorted_codes) - 1, 0))
    if len(sorted_codes) == 0:
        return np.zeros(len(codes), dtype=bool)
    return sorted_codes[pos] == codes


def _cross_side_ok(g: Graph, u: np.ndarray, v: np.ndarray, bipartite: bool) -> np.ndarray:
    if not bipartite or g.sides is None:
        return np.ones(u.shape, dtype=bool)
    return g.sides[u] != g.sides[v]


def _enumerate_non_edges(
    g: Graph, pool: np.ndarray, outside_only: np.ndarray | None, bipartite: bool
) -> np.ndarray:
    """Exhaustive fallback: every candidate non-edge within the pool as (m, 2).

    Only the pool's nodes are enumerated, so the grid is |pool| x |pool|, not
    N x N; pairs come in ascending (u, v) order.
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
    if bipartite and g.sides is not None:
        sides = g.sides[nodes]
        mask &= sides[uu] != sides[vv]
    return np.stack([nodes[uu[mask]], nodes[vv[mask]]], axis=1)


def _rejection_sample_pairs(
    g: Graph,
    count: int,
    rng: np.random.Generator,
    inside_pool: np.ndarray,
    outside_pool: np.ndarray | None = None,
    bipartite: bool = False,
    taken: set[int] | None = None,
) -> list[tuple[int, int]]:
    """Sample ``count`` distinct non-adjacent pairs uniformly from a stratum.

    With ``outside_pool`` unset, the stratum is all pairs within
    ``inside_pool``. Otherwise it is all pairs with at least one endpoint in
    ``outside_pool`` (the other drawn from ``inside_pool`` or ``outside_pool``
    with the exact category weights, so the stratum stays uniform). Pairs are
    rejected when adjacent in ``g``, already taken, self-pairs, or same-side
    in bipartite mode. Falls back to exhaustive enumeration when the graph is
    small and rejection stalls.
    """
    if count == 0:
        return []
    n = np.uint64(g.num_nodes)
    sorted_codes = _edge_code_set(g)
    taken = taken if taken is not None else set()
    out: list[tuple[int, int]] = []

    if outside_pool is not None:
        o, s = len(outside_pool), len(inside_pool)
        w_oo = o * (o - 1) / 2.0
        w_os = float(o * s)
        if w_oo + w_os <= 0:
            raise DataError("outside stratum has no candidate pairs")
        p_oo = w_oo / (w_oo + w_os)
    else:
        p_oo = None

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

    def accept_array(u: np.ndarray, v: np.ndarray) -> None:
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ok = lo != hi
        ok &= _cross_side_ok(g, lo, hi, bipartite)
        codes = lo.astype(np.uint64) * n + hi.astype(np.uint64)
        ok &= ~_codes_exist(codes, sorted_codes)
        for i in np.flatnonzero(ok):
            code = int(codes[i])
            if code in taken:
                continue
            taken.add(code)
            out.append((int(lo[i]), int(hi[i])))
            if len(out) >= count:
                return

    stalls = 0
    while len(out) < count:
        batch = max(1024, 2 * (count - len(out)))
        before = len(out)
        u, v = draw(batch)
        accept_array(u, v)
        stalls = stalls + 1 if len(out) == before else 0
        if stalls >= 8:
            pool = inside_pool if outside_pool is None else np.concatenate([inside_pool, outside_pool])
            cand = _enumerate_non_edges(g, pool, outside_pool, bipartite)
            codes = cand[:, 0].astype(np.uint64) * n + cand[:, 1].astype(np.uint64)
            fresh = np.array([c not in taken for c in codes.tolist()], dtype=bool)
            cand = cand[fresh]
            need = count - len(out)
            if cand.shape[0] < need:
                raise DataError(
                    f"graph too dense: only {cand.shape[0] + len(out)} candidate "
                    f"negative pairs available, {count} requested"
                )
            pick = rng.choice(cand.shape[0], size=need, replace=False)
            for i in pick:
                u_i, v_i = int(cand[i, 0]), int(cand[i, 1])
                taken.add(u_i * int(n) + v_i)
                out.append((u_i, v_i))
    return out


def sample_negatives(
    g: Graph, count: int, seed: int, bipartite_aware: bool = False
) -> list[Pair]:
    """Uniformly sample ``count`` distinct non-edges of ``g`` as key pairs."""
    if count < 0:
        raise DataError("negative count must be >= 0")
    n = g.num_nodes
    if bipartite_aware and g.sides is not None:
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
    pool = np.arange(n, dtype=np.int64)
    # exhaustive path when rejection would thrash (small and nearly full)
    if n <= ENUMERATION_NODES and count > 0.5 * available:
        cand = _enumerate_non_edges(g, pool, None, bipartite_aware)
        pick = np.sort(rng.choice(cand.shape[0], size=count, replace=False))
        pairs = [(int(u), int(v)) for u, v in cand[pick]]
    else:
        pairs = _rejection_sample_pairs(g, count, rng, pool, bipartite=bipartite_aware)
    return [_canon(g.keys[u], g.keys[v]) for u, v in pairs]


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
        return {
            "train_pos": self.train_pos,
            "train_neg": self.train_neg,
            "valid_pos": self.valid_pos,
            "valid_neg": self.valid_neg,
            "test_pos": self.test_pos,
            "test_neg": self.test_neg,
        }

    def all_edges(self) -> list[Pair]:
        """Canonical edge ordering used for logit vectors and line graphs."""
        out: list[Pair] = []
        for name in ("train_pos", "train_neg", "valid_pos",
                     "valid_neg", "test_pos", "test_neg"):
            out.extend(getattr(self, name))
        return out

    def to_json(self) -> str:
        payload = {
            "regime": self.regime.value,
            "seed": self.seed,
            "neg_ratio": self.neg_ratio,
            "splits": {k: [list(p) for p in v] for k, v in self.splits().items()},
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SplitManifest":
        def tup(name: str) -> tuple[Pair, ...]:
            return tuple(_canon(str(a), str(b)) for a, b in splits[name])

        # ValueError covers invalid JSON as well as bad numbers and pairs
        try:
            payload = json.loads(text)
            splits = payload["splits"]
            return cls(
                regime=Regime.parse(payload["regime"]),
                seed=int(payload["seed"]),
                neg_ratio=float(payload["neg_ratio"]),
                train_pos=tup("train_pos"),
                train_neg=tup("train_neg"),
                valid_pos=tup("valid_pos"),
                valid_neg=tup("valid_neg"),
                test_pos=tup("test_pos"),
                test_neg=tup("test_neg"),
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
    positive counts so each split keeps the negative ratio.
    """
    if neg_ratio <= 0:
        raise DataError("neg_ratio must be positive")
    if not 0.0 <= train_frac_outside < 1.0:
        raise DataError("train_frac_outside must be in [0, 1)")
    union = union if union is not None else union_graph(src, tar)
    rng = np.random.default_rng(seed)

    src_keys = set(src.keys)
    pos_pairs = [_canon(a, b) for a, b in _regime_positives(regime, src, tar, union)]
    inside_pos = [p for p in pos_pairs if p[0] in src_keys and p[1] in src_keys]
    outside_pos = [p for p in pos_pairs if p[0] not in src_keys or p[1] not in src_keys]
    if not outside_pos:
        raise DataError(
            "no edges reach outside the source node set; nothing to evaluate"
        )
    outside_pos = [outside_pos[i] for i in rng.permutation(len(outside_pos))]
    n_out = len(outside_pos)
    n_train_out = int(round(train_frac_outside * n_out))
    rem = n_out - n_train_out
    n_valid = (rem + 1) // 2
    train_pos = inside_pos + outside_pos[:n_train_out]
    valid_pos = outside_pos[n_train_out : n_train_out + n_valid]
    test_pos = outside_pos[n_train_out + n_valid :]
    if not valid_pos or not test_pos:
        raise DataError("too few outside edges to form validation/test splits")

    # negative strata over the union graph
    src_ids = union.ids_for([k for k in union.keys if k in src_keys])
    outside_ids = union.ids_for([k for k in union.keys if k not in src_keys])
    bipartite = union.sides is not None
    taken: set[int] = set()

    n_in_neg = int(round(neg_ratio * len(inside_pos)))
    n_tr_out_neg = int(round(neg_ratio * n_train_out))
    n_va_neg = int(round(neg_ratio * len(valid_pos)))
    n_te_neg = int(round(neg_ratio * len(test_pos)))

    inside_neg_ids = _rejection_sample_pairs(
        union, n_in_neg, rng, src_ids, bipartite=bipartite, taken=taken
    )
    outside_neg_ids = _rejection_sample_pairs(
        union,
        n_tr_out_neg + n_va_neg + n_te_neg,
        rng,
        src_ids,
        outside_pool=outside_ids,
        bipartite=bipartite,
        taken=taken,
    )

    def to_keys(pairs: list[tuple[int, int]]) -> list[Pair]:
        return [_canon(union.keys[u], union.keys[v]) for u, v in pairs]

    train_neg = to_keys(inside_neg_ids) + to_keys(outside_neg_ids[:n_tr_out_neg])
    valid_neg = to_keys(outside_neg_ids[n_tr_out_neg : n_tr_out_neg + n_va_neg])
    test_neg = to_keys(outside_neg_ids[n_tr_out_neg + n_va_neg :])

    return SplitManifest(
        regime=regime,
        seed=seed,
        neg_ratio=neg_ratio,
        train_pos=tuple(train_pos),
        train_neg=tuple(train_neg),
        valid_pos=tuple(valid_pos),
        valid_neg=tuple(valid_neg),
        test_pos=tuple(test_pos),
        test_neg=tuple(test_neg),
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

    Valid/test edges never appear in the adjacency, so message passing and
    heuristics cannot peek at evaluation edges.
    """
    feats = None
    if universe.features is not None:
        feats = {k: universe.features[i] for i, k in enumerate(universe.keys)}
    return build_graph(
        list(manifest.train_pos), features=feats, extra_nodes=list(universe.keys)
    )


def manifest_training_graph(
    manifest: SplitManifest, src: Graph, tar: Graph, union: Graph | None = None
) -> Graph:
    """Training graph over the union keyspace of a source/target pair."""
    union = union if union is not None else union_graph(src, tar)
    return training_graph_from_universe(manifest, union)
