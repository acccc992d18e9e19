"""Correctness checks on one run's outputs, made outside the timed region."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from linkbridge.evaluation import EvalReport
from linkbridge.io import read_scores_tsv
from linkbridge.metrics import recall_at
from linkbridge.selection import Regime, SplitManifest, audit_manifest

__all__ = ["RunChecker"]


class RunChecker:
    """Checks every run of one workload and seed against the first.

    Manifests are audited once per distinct file content, since runs of one
    seed write byte-identical manifests.
    """

    def __init__(self, inputs, workload) -> None:
        self.inputs = inputs
        self.workload = workload
        self.content_hash: str | None = None
        self._audited: set[str] = set()

    def check(self, report: EvalReport, out_dir: Path) -> list[str]:
        """Problems found in one run's report and artifacts; empty when correct."""
        problems: list[str] = []
        digest = report.content_hash()
        if self.content_hash is None:
            self.content_hash = digest
        elif digest != self.content_hash:
            problems.append(f"content hash {digest} differs from {self.content_hash}")

        want_rows = len(self.workload.regimes) * len(self.workload.methods)
        if len(report.rows) != want_rows:
            problems.append(f"report has {len(report.rows)} rows, want {want_rows}")

        for regime_text in self.workload.regimes:
            regime = Regime.parse(regime_text)
            tag = regime.short
            path = out_dir / "manifests" / f"{tag}.json"
            manifest = SplitManifest.load(path)
            file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if file_digest not in self._audited:
                violations = audit_manifest(manifest, self.inputs.src, self.inputs.tar)
                problems.extend(f"manifest {tag}: {v}" for v in violations)
                self._audited.add(file_digest)
            logits = read_scores_tsv(out_dir / "scores" / f"{tag}.logits.tsv")
            problems.extend(_finite(f"{tag}.logits", logits.values()))
            for row in report.rows:
                if row["regime"] == regime.value:
                    problems.extend(self._check_row(row, manifest, out_dir, tag))
        return problems

    def _check_row(self, row: dict, manifest: SplitManifest, out_dir: Path, tag: str):
        """Recompute the row's recalls from its written score file."""
        name = f"{tag}.{row['method']}"
        if row["split"] != "test":
            return [f"{name}: unexpected eval split {row['split']!r}"]
        scored = read_scores_tsv(out_dir / "scores" / f"{name}.tsv")
        problems = _finite(name, scored.values())
        positives = set(manifest.test_pos)
        # read_scores_tsv keeps file order, which is the order recall ranked
        labels = np.array([1 if pair in positives else 0 for pair in scored], dtype=np.int8)
        scores = np.fromiter(scored.values(), dtype=np.float64, count=len(scored))
        n_pos = int(labels.sum())
        if n_pos != row["n_pos"] or labels.size - n_pos != row["n_neg"]:
            problems.append(f"{name}: score file has {n_pos} positives of {labels.size}")
            return problems
        for key, reported in row.items():
            if not key.startswith("recall_at_"):
                continue
            mult = float(key[len("recall_at_"):-1])
            k = min(int(round(mult * n_pos)), scores.size)
            recomputed = recall_at(scores, labels, k)
            if recomputed != reported:
                problems.append(f"{name}: {key} is {reported} in the report, "
                                f"{recomputed} from the score file")
        return problems


def _finite(name: str, values) -> list[str]:
    bad = sum(1 for v in values if not math.isfinite(v))
    return [f"{name}: {bad} non-finite scores"] if bad else []
