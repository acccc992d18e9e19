"""One-command reproduction: validated run config -> artifacts + report.

A run config is a JSON document naming the dataset (files or synthetic),
the regimes and broadcast methods to compare, and every stage's knobs. All
randomness flows from the single run seed through per-stage derivation, so
rerunning a config reproduces the report content hash exactly. Artifacts
land under the output directory together with a provenance record (config
hash, tool version, input digests).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import save_scorer
from .datasets import SyntheticSpec, generate_synthetic
from .distill import DistillConfig
from .errors import ConfigError, DataError, LinkBridgeError
from .evaluation import (
    CALIBRATED_METHODS,
    KNOWN_METHODS,
    EvalReport,
    SuiteConfig,
    eval_pairs,
    evaluate_scores,
    method_scores,
    shuffle_eval_order,
)
from .graph import Graph, union_graph
from .heuristics import PprConfig
from .io import load_graph, save_graph, write_edge_tsv, write_scores_tsv
from .propagation import DiffusionConfig
from .scorer import ScorerConfig, embed, score_edges, train_scorer
from .seeds import derive_seed
from .selection import Regime, make_split, manifest_training_graph

__all__ = ["validate_config", "run_pipeline", "write_provenance"]

_REGIME_ALIASES = {"tar", "uni", "int",
                   "target_to_target", "union_to_target", "intersection_to_target"}


def validate_config(config: dict, base_dir: Path | None = None) -> list[str]:
    """Schema and cross-field checks; every problem reported at once."""
    errors: list[str] = []
    base = base_dir or Path.cwd()

    if "seed" not in config:
        errors.append("seed is mandatory")
    elif not isinstance(config["seed"], int):
        errors.append("seed must be an integer")
    if not config.get("out_dir"):
        errors.append("out_dir is required")

    dataset = config.get("dataset")
    if not isinstance(dataset, dict):
        errors.append("dataset section is required")
    else:
        kind = dataset.get("kind")
        if kind == "files":
            for field in ("source", "target"):
                path = dataset.get(field)
                if not path:
                    errors.append(f"dataset.{field} is required for kind=files")
                elif not (base / path).exists() and not Path(path).exists():
                    errors.append(f"dataset.{field}: no such path {path!r}")
        elif kind == "synthetic":
            spec = dataset.get("spec")
            if not isinstance(spec, dict):
                errors.append("dataset.spec is required for kind=synthetic")
            else:
                try:
                    SyntheticSpec(**spec).validate()
                except (TypeError, DataError) as exc:
                    errors.append(f"dataset.spec: {exc}")
        else:
            errors.append(f"dataset.kind must be 'files' or 'synthetic', got {kind!r}")

    regimes = config.get("regimes")
    if not isinstance(regimes, list) or not regimes:
        errors.append("regimes must be a nonempty list")
    else:
        for r in regimes:
            if not isinstance(r, str) or r not in _REGIME_ALIASES:
                errors.append(f"unknown regime {r!r}")

    methods = config.get("methods", ["scorer", "logit_lp"])
    if not isinstance(methods, list) or not methods:
        errors.append("methods must be a nonempty list")
    else:
        for m in methods:
            if m not in KNOWN_METHODS:
                errors.append(f"unknown method {m!r}")

    neg_ratio = config.get("neg_ratio", 2.0)
    if not isinstance(neg_ratio, (int, float)) or neg_ratio <= 0:
        errors.append(f"neg_ratio must be positive, got {neg_ratio!r}")
    frac = config.get("train_frac_outside", 0.2)
    if not isinstance(frac, (int, float)) or not 0.0 <= frac < 1.0:
        errors.append(f"train_frac_outside must be in [0, 1), got {frac!r}")

    for section, cls in (
        ("scorer", ScorerConfig),
        ("diffusion", DiffusionConfig),
        ("distill", DistillConfig),
        ("ppr", PprConfig),
    ):
        payload = config.get(section, {})
        if not isinstance(payload, dict):
            errors.append(f"{section} section must be an object")
            continue
        try:
            cls(**payload).validate()
        except (TypeError, LinkBridgeError) as exc:
            errors.append(f"{section}: {exc}")

    eval_cfg = config.get("eval", {})
    if not isinstance(eval_cfg, dict):
        errors.append("eval section must be an object")
    else:
        split = eval_cfg.get("split", "test")
        if split not in ("test", "valid", "pooled"):
            errors.append(f"eval.split must be test/valid/pooled, got {split!r}")
        mults = eval_cfg.get("k_multipliers", [1.0, 1.25])
        if not isinstance(mults, list) or not mults or any(
            not isinstance(m, (int, float)) or m <= 0 for m in mults
        ):
            errors.append("eval.k_multipliers must be a list of positive numbers")
    return errors


def _suite_config(config: dict) -> SuiteConfig:
    eval_cfg = config.get("eval", {})
    return SuiteConfig(
        seed=config["seed"],
        neg_ratio=float(config.get("neg_ratio", 2.0)),
        train_frac_outside=float(config.get("train_frac_outside", 0.2)),
        scorer=ScorerConfig(**config.get("scorer", {})),
        diffusion=DiffusionConfig(**config.get("diffusion", {})),
        distill=DistillConfig(**config.get("distill", {})),
        ppr=PprConfig(**config.get("ppr", {})),
        k_multipliers=tuple(eval_cfg.get("k_multipliers", [1.0, 1.25])),
        eval_split=eval_cfg.get("split", "test"),
    )


def _sha256_input(path: Path) -> str:
    """Digest of a file, or of a graph directory's files.

    A directory is hashed as the sequence of its files in sorted
    relative-path order, each preceded by its relative path.
    """
    digest = hashlib.sha256()
    if path.is_dir():
        files = sorted(
            (p.relative_to(path).as_posix(), p) for p in path.rglob("*") if p.is_file()
        )
    else:
        files = [(None, path)]
    for rel, file in files:
        if rel is not None:
            digest.update(rel.encode("utf-8") + b"\0")
        with file.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def write_provenance(out_dir: Path, config: dict, inputs: list[Path]) -> None:
    payload = {
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "tool_version": __version__,
        "seed": config.get("seed"),
        "inputs": {str(p): _sha256_input(p) for p in inputs if p.exists()},
    }
    (out_dir / "provenance.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing stage's name attached."""
    try:
        yield
    except LinkBridgeError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


def _load_dataset(
    config: dict, out_dir: Path, base_dir: Path
) -> tuple[Graph, Graph, list[Path]]:
    dataset = config["dataset"]
    if dataset["kind"] == "files":
        def resolve(p: str) -> Path:
            cand = Path(p)
            return cand if cand.exists() else base_dir / p

        src_path = resolve(dataset["source"])
        tar_path = resolve(dataset["target"])
        return load_graph(src_path), load_graph(tar_path), [src_path, tar_path]
    spec = SyntheticSpec(**dataset["spec"])
    src, tar, heldout = generate_synthetic(spec)
    data_dir = out_dir / "dataset"
    data_dir.mkdir(parents=True, exist_ok=True)
    save_graph(src, data_dir / "source")
    save_graph(tar, data_dir / "target")
    write_edge_tsv(data_dir / "heldout.tsv", heldout)
    return src, tar, []


def run_pipeline(config: dict, base_dir: str | Path | None = None) -> EvalReport:
    """Execute selection -> scorer -> broadcast -> evaluation, persisting
    manifests, checkpoints, score files, the report, and provenance."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    problems = validate_config(config, base)
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))
    out_dir = base / config["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = _suite_config(config)
    methods = list(config.get("methods", ["scorer", "logit_lp"]))
    regimes = [Regime.parse(r) for r in config["regimes"]]

    started = time.perf_counter()
    with _stage("dataset"):
        src, tar, inputs = _load_dataset(config, out_dir, base)
        union = union_graph(src, tar)
    write_provenance(out_dir, config, inputs)

    (out_dir / "manifests").mkdir(exist_ok=True)
    (out_dir / "models").mkdir(exist_ok=True)
    (out_dir / "scores").mkdir(exist_ok=True)

    rows: list[dict] = []
    for regime in regimes:
        tag = regime.short
        with _stage(f"split:{tag}"):
            manifest = make_split(
                regime,
                src,
                tar,
                neg_ratio=suite.neg_ratio,
                train_frac_outside=suite.train_frac_outside,
                seed=derive_seed(suite.seed, "split"),
                union=union,
            )
            manifest.save(out_dir / "manifests" / f"{tag}.json")
        with _stage(f"scorer:{tag}"):
            g_train = manifest_training_graph(manifest, src, tar, union=union)
            scorer_cfg = replace(suite.scorer, seed=derive_seed(suite.seed, "scorer"))
            model = train_scorer(scorer_cfg, g_train, manifest)
            save_scorer(out_dir / "models" / f"{tag}.bin", model)
            y = embed(model, g_train)
            all_pairs = manifest.all_edges()
            all_ids = g_train.pair_ids(all_pairs)
            z_all = score_edges(y, all_ids)
            write_scores_tsv(out_dir / "scores" / f"{tag}.logits.tsv", all_pairs, z_all)

        pos_eval, neg_eval = eval_pairs(manifest, suite.eval_split)
        eval_order, labels = shuffle_eval_order(pos_eval, neg_eval, suite.seed)
        index_of = {pair: i for i, pair in enumerate(all_pairs)}
        eval_positions = np.array([index_of[p] for p in eval_order], dtype=np.int64)
        eval_ids = all_ids[eval_positions]

        for method in methods:
            with _stage(f"{method}:{tag}"):
                t0 = time.perf_counter()
                full = method_scores(
                    method, g_train, manifest, model, y, z_all, eval_ids, suite
                )
                calibrated = method in CALIBRATED_METHODS
                scores = full[eval_positions] if calibrated else full
                write_scores_tsv(
                    out_dir / "scores" / f"{tag}.{method}.tsv", eval_order, scores
                )
                threshold = 0.5 if calibrated else 0.0
                row = {
                    "regime": regime.value,
                    "method": method,
                    "split": suite.eval_split,
                    "threshold": threshold,
                }
                row.update(
                    evaluate_scores(
                        scores, labels, suite.k_multipliers, threshold, suite.seed
                    )
                )
                row["runtime_seconds"] = round(time.perf_counter() - t0, 6)
                rows.append(row)

    report = EvalReport(
        rows=rows,
        config=suite.echo() | {"methods": methods, "regimes": [r.value for r in regimes]},
        seed=suite.seed,
        runtime_seconds=time.perf_counter() - started,
    )
    report.save(out_dir / "report.json", out_dir / "report.txt")
    return report

