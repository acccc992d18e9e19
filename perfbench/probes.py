"""Kernel probes on the workload's own graphs, timed as medians of repeats.

Each probe calls one public kernel with fixed-size work, so a change to the
kernel shows here even when the stage around it is dominated by other work:
one negative-sampling draw, one 512-pair scorer batch step and one diffusion
iteration on the logit-LP line-graph operator.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from linkbridge.graph import union_graph
from linkbridge.propagation import DiffusionConfig, build_line_graph, diffuse
from linkbridge.scorer import ScorerConfig, init_model, training_loss_and_grads
from linkbridge.selection import (
    Regime,
    SplitManifest,
    manifest_training_graph,
    sample_negatives,
)

__all__ = ["run_probes"]

REPEATS = 15
NEGATIVES = 2000
BATCH = 512


def _median_ms(fn) -> float:
    fn()  # warm caches and lazy set-up before timing
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _ids(g, pairs) -> np.ndarray:
    return g.ids_for([k for pair in pairs for k in pair]).reshape(-1, 2)


def run_probes(workload, inputs, out_dir: Path) -> dict[str, float]:
    """Probe timings on the first regime of a finished run in ``out_dir``."""
    tag = Regime.parse(workload.regimes[0]).short
    manifest = SplitManifest.load(out_dir / "manifests" / f"{tag}.json")
    union = union_graph(inputs.src, inputs.tar)
    g_train = manifest_training_graph(manifest, inputs.src, inputs.tar, union=union)

    # the cap only binds on the self-test's toy graphs
    n = union.num_nodes
    count = min(NEGATIVES, (n * (n - 1) // 2 - union.num_edges) // 4)
    neg_ms = _median_ms(lambda: sample_negatives(union, count, seed=1))

    model = init_model(ScorerConfig(**workload.scorer), g_train)
    pos = _ids(g_train, manifest.train_pos[:BATCH])
    neg = _ids(g_train, manifest.train_neg[:BATCH])
    step_ms = _median_ms(lambda: training_loss_and_grads(model, g_train, pos, neg))

    # the operator logit_lp diffuses over: every manifest edge, positives first
    splits = manifest.splits()
    pos_all = _ids(g_train, splits["train_pos"] + splits["valid_pos"] + splits["test_pos"])
    neg_all = _ids(g_train, splits["train_neg"] + splits["valid_neg"] + splits["test_neg"])
    lg = build_line_graph(g_train, np.sort(pos_all, axis=1), np.sort(neg_all, axis=1))
    x = np.random.default_rng(1).normal(size=lg.num_edge_nodes)
    one_step = DiffusionConfig(k_max=1, tol=0.0)
    iter_ms = _median_ms(lambda: diffuse(lg.norm_adjacency, x, x, one_step))

    return {
        "selection.sample_negatives_ms": neg_ms,
        "scorer.batch_step_ms": step_ms,
        "scorer.batch_step_nodes": float(g_train.num_nodes),
        "propagation.diffuse_iter_ms": iter_ms,
    }
