"""Broadcast-method dispatch, ranking evaluation and the report.

``method_scores`` turns one regime's trained scorer into evaluation-edge
scores under each broadcast method; ``evaluate_scores`` ranks them against
the held-out labels. ``pipeline.run_pipeline`` is the one loop over regimes
and methods that calls both, and the CLI stage commands call the same
functions one stage at a time. Reports carry every knob so a rerun from the
same config and seed reproduces them bit for bit (modulo wall-clock fields,
which stay out of the content hash).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distill import DistillConfig, finetune_linkpred, imitate, student_embed
from .errors import ConfigError, NumericError, check_field_types, is_of_type
from .graph import Graph, checked_pairs
from .heuristics import PprConfig, adamic_adar, common_neighbors, ppr_scores
from .metrics import precision_accuracy, recall_at
from .propagation import (
    DiffusionConfig,
    diffuse,
    emb_lp,
    endpoint_mean,
    logit_lp,
    sym_norm_adjacency,
    train_residuals,
    xmc_scores,
)
from .scorer import ScorerConfig, score_edges
from .seeds import derive_seed
from .selection import NEG_RATIO, TRAIN_FRAC_OUTSIDE, check_split_knobs

__all__ = [
    "SuiteConfig",
    "EvalReport",
    "node_centric_lp_ablation",
    "evaluate_scores",
    "shuffle_eval_order",
    "KNOWN_METHODS",
    "CALIBRATED_METHODS",
    "HEURISTIC_METHODS",
    "EVAL_SPLITS",
    "check_k_multipliers",
    "eval_pairs",
    "train_student",
    "recall_at",
    "precision_accuracy",
]

KNOWN_METHODS = (
    "scorer",
    "logit_lp",
    "emb_lp",
    "xmc_lp",
    "node_lp",
    "mlp",
    "cn",
    "aa",
    "ppr",
)

# methods that score every manifest edge at once and return calibrated
# [0, 1] scores (threshold 0.5); the rest score only the evaluation edges and
# return raw logits (threshold 0.0) or heuristic scores
CALIBRATED_METHODS = ("logit_lp", "node_lp")

# non-negative scores with no decision point (at 0.0 every pair is positive),
# so these methods report no threshold, precision or accuracy
HEURISTIC_METHODS = ("cn", "aa", "ppr")

EVAL_SPLITS = ("test", "valid", "pooled")


def node_centric_lp_ablation(
    g: Graph, splits, z: np.ndarray, cfg: DiffusionConfig
) -> np.ndarray:
    """Node-level residual diffusion, the node-space ablation of
    ``logit_lp``; logits and scores in the order of ``logit_lp``.

    Each node starts from the mean residual (label - sigmoid(z)) of its
    incident training edges; the residuals diffuse over the original graph
    and each edge receives the mean diffused residual of its endpoints on
    top of its sigmoid prediction, as ``logit_lp`` adds its diffused edge
    residual.
    """
    p, resid, n_train = train_residuals(splits, z)
    ids = np.concatenate(splits)
    node_resid = endpoint_mean(g.num_nodes, ids[:n_train, 0], ids[:n_train, 1], resid[:n_train])
    z_final = diffuse(sym_norm_adjacency(g), node_resid, node_resid, cfg)
    edge_corr = 0.5 * (z_final[ids[:, 0]] + z_final[ids[:, 1]])
    return np.clip(p + edge_corr, 0.0, 1.0)


@dataclass(frozen=True)
class SuiteConfig:
    """Every knob of one regime-comparison run; a value out of range is a
    ConfigError at construction."""

    seed: int = 0
    neg_ratio: float = NEG_RATIO
    train_frac_outside: float = TRAIN_FRAC_OUTSIDE
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    ppr: PprConfig = field(default_factory=PprConfig)
    k_multipliers: tuple[float, ...] = (1.0, 1.25)
    eval_split: str = "test"

    def __post_init__(self) -> None:
        check_field_types(self)
        check_split_knobs(self.neg_ratio, self.train_frac_outside)
        if self.eval_split not in EVAL_SPLITS:
            raise ConfigError(f"eval split must be one of {EVAL_SPLITS}, got {self.eval_split!r}")
        check_k_multipliers(self.k_multipliers)


@dataclass
class EvalReport:
    """Per (regime, method) metric rows plus the config echo."""

    rows: list[dict]
    config: dict
    seed: int
    runtime_seconds: float

    def content_hash(self) -> str:
        """Digest of everything deterministic (wall-clock fields excluded)."""
        rows = [
            {k: v for k, v in row.items() if not k.startswith("runtime")}
            for row in self.rows
        ]
        payload = json.dumps(
            {"rows": rows, "config": self.config, "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": self.rows,
                "config": self.config,
                "seed": self.seed,
                "content_hash": self.content_hash(),
                "runtime_seconds": self.runtime_seconds,
            },
            sort_keys=True,
            indent=2,
        )

    def text_table(self) -> str:
        """Aligned-column table, one row per (regime, method, split)."""
        if not self.rows:
            return "(empty report)\n"
        metric_keys: list[str] = []
        for row in self.rows:
            for key in row:
                if key.startswith("recall_at_") and key not in metric_keys:
                    metric_keys.append(key)
        header = ["regime", "method", "split"] + metric_keys + ["precision", "accuracy"]
        table = [header]
        for row in self.rows:
            table.append(
                [str(row.get("regime")), str(row.get("method")), str(row.get("split"))]
                + [_cell(row.get(k, float("nan")))
                   for k in metric_keys + ["precision", "accuracy"]]
            )
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        lines = []
        for i, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def save(self, json_path=None, table_path=None) -> None:
        from pathlib import Path

        if json_path is not None:
            Path(json_path).write_text(self.to_json() + "\n", encoding="utf-8")
        if table_path is not None:
            Path(table_path).write_text(self.text_table(), encoding="utf-8")


def _cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _mult_key(mult: float) -> str:
    return f"recall_at_{mult:g}x"


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    k_multipliers: tuple[float, ...],
    threshold: float | None,
    seed: int,
) -> dict:
    """Recall at each multiplier of |positives| plus balanced precision and
    accuracy, which are None without a threshold."""
    check_k_multipliers(k_multipliers)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    out: dict = {"n_pos": n_pos, "n_neg": int(labels.size - n_pos)}
    for mult in k_multipliers:
        # a cut-off past the last score is every score; only one below it is
        # rounded, so that a huge multiplier cannot overflow int()
        cut = mult * n_pos
        k = scores.size if cut >= scores.size else int(round(cut))
        out[_mult_key(mult)] = recall_at(scores, labels, k)
    if threshold is None:
        out["precision"] = out["accuracy"] = None
        return out
    # balanced subset: all positives plus an equal-count negative subsample
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels != 1)
    rng = np.random.default_rng(derive_seed(seed, "balanced-eval"))
    if neg_idx.size > pos_idx.size:
        neg_idx = neg_idx[np.sort(rng.permutation(neg_idx.size)[: pos_idx.size])]
    subset = np.concatenate([pos_idx, neg_idx])
    precision, accuracy = precision_accuracy(
        scores[subset], labels[subset], threshold=threshold
    )
    out["precision"] = precision
    out["accuracy"] = accuracy
    return out


def check_k_multipliers(mults) -> None:
    """Recall cut-offs are finite positive multiples of the positive count."""
    if not isinstance(mults, (list, tuple)) or not mults or any(
        not is_of_type(m, float) or not 0 < m < math.inf for m in mults
    ):
        raise ConfigError("k_multipliers must be a list of positive numbers")


def eval_pairs(splits, split: str) -> tuple[list, list]:
    """(positive, negative) evaluation entries of a test/valid/pooled split
    (valid then test) of a manifest's key pairs, or of any record with its
    split fields, such as a ``selection.SplitIds`` of edge positions."""
    if split not in EVAL_SPLITS:
        raise ConfigError(f"eval split must be one of {EVAL_SPLITS}, got {split!r}")
    names = ("valid", "test") if split == "pooled" else (split,)
    return tuple([x for n in names for x in getattr(splits, f"{n}_{s}")] for s in ("pos", "neg"))


def shuffle_eval_order(pos_eval: list, neg_eval: list, seed: int):
    """Seeded interleave of evaluation edges.

    recall_at breaks score ties by input position, so a positives-first
    layout would hand methods with many tied scores (e.g. all-zero common
    neighbors) a free perfect ranking. A fixed shuffled order keeps ties
    honest and the run deterministic.
    """
    pairs = list(pos_eval) + list(neg_eval)
    labels = np.concatenate(
        [np.ones(len(pos_eval), dtype=np.int8), np.zeros(len(neg_eval), dtype=np.int8)]
    )
    rng = np.random.default_rng(derive_seed(seed, "eval-order"))
    perm = rng.permutation(len(pairs))
    return [pairs[i] for i in perm], labels[perm]


def train_student(y: np.ndarray, g_train: Graph, splits, config: DistillConfig):
    """The MLP student: imitate the scorer's embeddings ``y`` from the node
    features of ``g_train``, then fine-tune on the training pairs of
    ``splits``, a ``selection.SplitIds`` over ``g_train``.

    Training that diverges is a ``NumericError``; numpy's overflow and
    invalid-value warnings on the way are not raised, here as in
    ``method_scores``, so ``linkbridge distill`` prints the error alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return finetune_linkpred(imitate(y, g_train, config), splits)


def method_scores(
    method: str,
    g_train: Graph,
    splits,
    y: np.ndarray,
    z_all: np.ndarray,
    eval_ids: np.ndarray,
    config: SuiteConfig,
) -> np.ndarray:
    """Scores for the evaluation edges under one broadcast method.

    ``z_all`` holds the scorer's logits of the ``selection.SplitIds``
    ``splits``, in order. ``logit_lp`` and ``node_lp`` score every manifest
    edge at once and return the full vector in that order; the caller
    slices the evaluation block. All other methods score ``eval_ids``.

    A score that is not finite, such as an inner product that overflows on
    large but finite embeddings, is a ``NumericError`` naming the method,
    raised before the caller writes a score file; numpy's overflow and
    invalid-value warnings on the way are not raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _method_scores(method, g_train, splits, y, z_all, eval_ids, config)
    if not np.isfinite(scores).all():
        raise NumericError(f"{method} scores are not finite")
    return scores


def _method_scores(method, g_train, splits, y, z_all, eval_ids, config) -> np.ndarray:
    if method == "scorer":
        return score_edges(y, eval_ids)
    if method == "logit_lp":
        return logit_lp(g_train, splits, z_all, config.diffusion)
    if method == "node_lp":
        return node_centric_lp_ablation(g_train, splits, z_all, config.diffusion)
    if method == "emb_lp":
        return emb_lp(g_train, splits.train_pos, y, config.diffusion, eval_ids)
    if method == "xmc_lp":
        return xmc_scores(g_train, y, config.diffusion, eval_ids)
    if method == "mlp":
        student = train_student(y, g_train, splits, config.distill)
        # embed only the distinct evaluation endpoints, then score local ids
        pairs = checked_pairs(eval_ids, g_train.num_nodes)
        rows, local = np.unique(pairs, return_inverse=True)
        return score_edges(student_embed(student, rows), local.reshape(-1, 2))
    if method == "cn":
        return common_neighbors(g_train, eval_ids).astype(np.float64)
    if method == "aa":
        return adamic_adar(g_train, eval_ids)
    if method == "ppr":
        return ppr_scores(g_train, eval_ids, config.ppr)
    raise ConfigError(f"unknown method {method!r}")
