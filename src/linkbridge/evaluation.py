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
from dataclasses import dataclass, field

import numpy as np

from .distill import DistillConfig, finetune_linkpred, imitate, student_embed
from .errors import ConfigError, DataError
from .graph import Graph
from .heuristics import PprConfig, adamic_adar, common_neighbors, ppr_scores
from .metrics import precision_accuracy, recall_at
from .propagation import (
    DiffusionConfig,
    diffuse,
    emb_lp,
    logit_lp,
    sigmoid,
    sym_norm_adjacency,
    xmc_scores,
)
from .scorer import ScorerConfig, score_edges
from .seeds import derive_seed
from .selection import NEG_RATIO, TRAIN_FRAC_OUTSIDE

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
    g: Graph, manifest, z: np.ndarray, cfg: DiffusionConfig
) -> np.ndarray:
    """Node-level residual diffusion, the deliberately weak LP baseline.

    Each node starts from the mean residual (label - sigmoid(z)) of its
    incident training edges; the residuals diffuse over the original graph
    and each edge receives the mean propagated increment of its endpoints
    on top of its sigmoid prediction. At alpha -> 0 the increment vanishes
    and the raw predictions come back unchanged.
    """
    z = np.asarray(z, dtype=np.float64)
    pairs = manifest.all_edges()
    if z.shape[0] != len(pairs):
        raise DataError("logit vector does not align with manifest edges")
    ids = g.pair_ids(pairs)
    p = sigmoid(z)
    n_tp, n_tn = len(manifest.train_pos), len(manifest.train_neg)
    labels = np.zeros(len(pairs))
    labels[:n_tp] = 1.0

    resid_sum = np.zeros(g.num_nodes)
    resid_cnt = np.zeros(g.num_nodes)
    train_ids = ids[: n_tp + n_tn]
    train_resid = labels[: n_tp + n_tn] - p[: n_tp + n_tn]
    np.add.at(resid_sum, train_ids[:, 0], train_resid)
    np.add.at(resid_sum, train_ids[:, 1], train_resid)
    np.add.at(resid_cnt, train_ids[:, 0], 1.0)
    np.add.at(resid_cnt, train_ids[:, 1], 1.0)
    node_resid = np.zeros(g.num_nodes)
    touched = resid_cnt > 0
    node_resid[touched] = resid_sum[touched] / resid_cnt[touched]

    z_final = diffuse(sym_norm_adjacency(g), node_resid, node_resid, cfg)
    increment = z_final - node_resid
    edge_corr = 0.5 * (increment[ids[:, 0]] + increment[ids[:, 1]])
    return np.clip(p + edge_corr, 0.0, 1.0)


@dataclass(frozen=True)
class SuiteConfig:
    """Every knob of one regime-comparison run."""

    seed: int = 0
    neg_ratio: float = NEG_RATIO
    train_frac_outside: float = TRAIN_FRAC_OUTSIDE
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    ppr: PprConfig = field(default_factory=PprConfig)
    k_multipliers: tuple[float, ...] = (1.0, 1.25)
    eval_split: str = "test"


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
        k = min(int(round(mult * n_pos)), scores.size)
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
    """Recall cut-offs are positive multiples of the positive count."""
    if not isinstance(mults, (list, tuple)) or not mults or any(
        not isinstance(m, (int, float)) or m <= 0 for m in mults
    ):
        raise ConfigError("k_multipliers must be a list of positive numbers")


def eval_pairs(manifest, split: str) -> tuple[list, list]:
    """(positive, negative) evaluation pairs of a test/valid/pooled split."""
    if split == "valid":
        pos, neg = manifest.valid_pos, manifest.valid_neg
    elif split == "test":
        pos, neg = manifest.test_pos, manifest.test_neg
    elif split == "pooled":
        pos = manifest.valid_pos + manifest.test_pos
        neg = manifest.valid_neg + manifest.test_neg
    else:
        raise ConfigError(f"eval split must be one of {EVAL_SPLITS}, got {split!r}")
    return list(pos), list(neg)


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


def train_student(y: np.ndarray, g_train: Graph, manifest, model, config: DistillConfig):
    """The MLP student: imitate the scorer's embeddings, then fine-tune."""
    student = imitate(y, g_train, config, x_prime=model.x_prime)
    return finetune_linkpred(student, manifest, g_train, config)


def method_scores(
    method: str,
    g_train: Graph,
    manifest,
    model,
    y: np.ndarray,
    z_all: np.ndarray,
    eval_ids: np.ndarray,
    config: SuiteConfig,
) -> np.ndarray:
    """Scores for the evaluation edges under one broadcast method.

    ``logit_lp`` and ``node_lp`` score every manifest edge at once and
    return the full vector in manifest order; the caller slices the
    evaluation block. All other methods score ``eval_ids`` directly.
    """
    if method == "scorer":
        return score_edges(y, eval_ids)
    if method == "logit_lp":
        return logit_lp(g_train, manifest, z_all, config.diffusion)
    if method == "node_lp":
        return node_centric_lp_ablation(g_train, manifest, z_all, config.diffusion)
    if method == "emb_lp":
        train_pos_ids = g_train.pair_ids(manifest.train_pos)
        return emb_lp(g_train, train_pos_ids, y, config.diffusion, eval_ids)
    if method == "xmc_lp":
        return xmc_scores(g_train, y, config.diffusion, eval_ids)
    if method == "mlp":
        y_s = student_embed(train_student(y, g_train, manifest, model, config.distill))
        return np.einsum("ij,ij->i", y_s[eval_ids[:, 0]], y_s[eval_ids[:, 1]])
    if method == "cn":
        return common_neighbors(g_train, eval_ids).astype(np.float64)
    if method == "aa":
        return adamic_adar(g_train, eval_ids)
    if method == "ppr":
        return ppr_scores(g_train, eval_ids, config.ppr)
    raise ConfigError(f"unknown method {method!r}")
