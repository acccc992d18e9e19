"""Workload definitions and set-up: seeded synthetic pairs written as files.

Every workload is a dense source / sparse target pair drawn by
``linkbridge.datasets.generate_synthetic`` from the workload seed, written as
``source.tsv`` / ``target.tsv`` plus sibling ``*.features.csv`` files and
handed to ``run_pipeline`` as a ``files`` dataset. The pair is passed as edge
TSVs, not as graph directories, because a graph directory input makes
``run_pipeline`` fail in ``write_provenance`` (see README.md, known defects).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from linkbridge.datasets import SyntheticSpec, generate_synthetic
from linkbridge.graph import Graph
from linkbridge.io import write_edge_tsv, write_features_csv

__all__ = ["Workload", "WORKLOADS", "Inputs", "make_inputs", "run_config", "scaled"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: pair sizes, regimes, methods and stage knobs."""

    name: str
    why: str
    n_src: int
    n_tar: int
    mean_deg_src: float
    mean_deg_tar: float
    regimes: tuple[str, ...]
    methods: tuple[str, ...]
    scorer: dict = field(default_factory=dict)
    distill: dict = field(default_factory=dict)

    def spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            n_src=self.n_src,
            n_tar=self.n_tar,
            overlap_ratio=0.3,
            mean_deg_src=self.mean_deg_src,
            mean_deg_tar=self.mean_deg_tar,
            feature_dim=16,
            feature_shift=0.4,
            seed=seed,
        )


# Each workload loads one part of the method and bypasses others, so that a
# change to one layer has a workload where it shows and one where it must not.
WORKLOADS = {
    w.name: w
    for w in (
        # The dense union training graph makes the line graphs (logit/emb LP)
        # and the N x |cols| xmc state large; training stays small.
        Workload(
            name="broadcast",
            why="edge-centric LP over a dense union training graph: line graphs, "
            "diffusion and the xmc state dominate; no MLP, no PPR",
            n_src=1000,
            n_tar=400,
            mean_deg_src=10.0,
            mean_deg_tar=3.0,
            regimes=("uni",),
            methods=("scorer", "logit_lp", "emb_lp", "xmc_lp", "node_lp"),
            scorer={"epochs": 2},
        ),
        # The largest node count: dense N-row scorer gradients, the MLP's
        # per-batch input rebuild, and ingest/union/split get their biggest
        # share. Propagation does not run.
        Workload(
            name="distill",
            why="largest pair, intersection regime, scorer plus MLP distillation: "
            "training steps, ingest and split dominate; no propagation",
            n_src=6000,
            n_tar=2400,
            mean_deg_src=6.0,
            mean_deg_tar=2.0,
            regimes=("int",),
            methods=("scorer", "mlp"),
            scorer={"epochs": 3},
            distill={"max_epochs": 10, "finetune_epochs": 3},
        ),
        # The only workload with PPR and the per-pair CN/AA loops; logit LP
        # runs over small sparse line graphs; two regimes write the most
        # artifacts per second of run.
        Workload(
            name="heuristics",
            why="target and intersection regimes with CN, AA, PPR and logit LP on "
            "sparse line graphs: heuristics and artifact writing dominate",
            n_src=2000,
            n_tar=800,
            mean_deg_src=10.0,
            mean_deg_tar=3.0,
            regimes=("tar", "int"),
            methods=("scorer", "cn", "aa", "ppr", "logit_lp"),
            scorer={"epochs": 2},
        ),
    )
}


@dataclass
class Inputs:
    """A generated pair: the in-memory graphs and the files the run reads."""

    src: Graph
    tar: Graph
    source_path: Path
    target_path: Path


def _write_graph(g: Graph, path: Path) -> None:
    write_edge_tsv(path, g.edge_keys())
    write_features_csv(path.with_suffix(".features.csv"), list(g.keys), g.features)


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> tuple[Inputs, float]:
    """Generate the workload's pair and write it under ``out_dir``.

    Returns the inputs and the seconds set-up took.
    """
    t0 = time.perf_counter()
    src, tar, _heldout = generate_synthetic(workload.spec(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    source_path, target_path = out_dir / "source.tsv", out_dir / "target.tsv"
    _write_graph(src, source_path)
    _write_graph(tar, target_path)
    elapsed = time.perf_counter() - t0
    return Inputs(src, tar, source_path, target_path), elapsed


def run_config(workload: Workload, seed: int, inputs: Inputs, out_dir: Path) -> dict:
    """The ``linkbridge run`` config for one call of the workload."""
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "dataset": {
            "kind": "files",
            "source": str(inputs.source_path),
            "target": str(inputs.target_path),
        },
        "regimes": list(workload.regimes),
        "methods": list(workload.methods),
        "scorer": dict(workload.scorer),
        "distill": dict(workload.distill),
    }


def scaled(workload: Workload, factor: float) -> Workload:
    """The same workload with node counts scaled (used by the self-test)."""
    return replace(
        workload,
        n_src=max(40, int(workload.n_src * factor)),
        n_tar=max(20, int(workload.n_tar * factor)),
    )
