"""One-command reproduction: validated run config -> artifacts + report.

A run config is a JSON document naming the dataset (files or synthetic),
the regimes and broadcast methods to compare, and every stage's knobs. All
randomness flows from the single run seed: the split, the scorer and the
distilled student each take ``derive_seed(seed, stage)``. A ``seed`` key in
the ``scorer`` or ``distill`` section is therefore a config error, and the
report's config echo shows the derived seeds that ran. Rerunning a config
reproduces the report content hash exactly. Artifacts land under the output
directory together with a provenance record (config hash, tool version,
input digests).

Each regime turns its manifest into node ids once (``selection.split_ids``)
and every stage after the split reads those; key pairs come back
(``graph.key_pairs``) only to name score-file rows. The CLI stage commands
call ``split_ids``, ``fit_scorer``, ``metric_row`` and
``evaluation.method_scores``, so one stage run alone decides as here.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import save_scorer
from .datasets import SyntheticSpec, generate_synthetic
from .errors import ConfigError, DataError, LinkBridgeError, is_of_type
from .evaluation import (
    CALIBRATED_METHODS,
    EVAL_SPLITS,
    HEURISTIC_METHODS,
    KNOWN_METHODS,
    EvalReport,
    SuiteConfig,
    check_k_multipliers,
    eval_pairs,
    evaluate_scores,
    method_scores,
    shuffle_eval_order,
)
from .graph import Graph, key_pairs, union_graph
from .io import graph_inputs, load_graph, save_graph, write_edge_tsv, write_scores_tsv
from .scorer import ScorerConfig, embed, score_edges, train_scorer
from .seeds import derive_seed
from .selection import Regime, check_split_knobs, make_split, manifest_training_graph, split_ids

__all__ = ["run_pipeline", "write_provenance", "fit_scorer", "metric_row"]

# sections whose seed is derive_seed(run seed, section name)
_SEEDED = ("scorer", "distill")

# every key a run config may hold: a misspelt key is an error, not a default
_TOP_KEYS = (
    "seed", "out_dir", "dataset", "regimes", "methods", "neg_ratio",
    "train_frac_outside", "eval",
    *(spec.name for spec in fields(SuiteConfig) if spec.default_factory is not MISSING),
)
_DATASET_KEYS = {"files": ("kind", "source", "target"), "synthetic": ("kind", "spec")}


def _unknown_keys(section: dict, known: tuple, prefix: str = "") -> list[str]:
    return [f"unknown config key {prefix + str(k)!r}" for k in section if k not in known]


def _suite_config(
    config: dict, base: Path, errors: list[str]
) -> tuple[SuiteConfig | None, list[str], list[Regime]]:
    """(suite, methods, regimes) of a run config; every problem is appended
    to ``errors``, and the suite is None when there is any."""
    errors += _unknown_keys(config, _TOP_KEYS)
    seed = config.get("seed")
    if "seed" not in config:
        errors.append("seed is mandatory")
    elif not is_of_type(seed, int):
        errors.append(f"seed must be an integer, got {seed!r}")
    if not config.get("out_dir"):
        errors.append("out_dir is required")

    dataset = config.get("dataset")
    if not isinstance(dataset, dict):
        errors.append("dataset section is required")
    else:
        kind = dataset.get("kind")
        if kind in _DATASET_KEYS:
            errors += _unknown_keys(dataset, _DATASET_KEYS[kind], "dataset.")
        if kind == "files":
            for field in ("source", "target"):
                path = dataset.get(field)
                if not path:
                    errors.append(f"dataset.{field} is required for kind=files")
                elif not (base / path).exists():
                    errors.append(f"dataset.{field}: no such path {path!r}")
        elif kind == "synthetic":
            spec = dataset.get("spec")
            if not isinstance(spec, dict):
                errors.append("dataset.spec is required for kind=synthetic")
            else:
                try:
                    SyntheticSpec(**spec)
                except (TypeError, ConfigError) as exc:
                    errors.append(f"dataset.spec: {exc}")
        else:
            errors.append(f"dataset.kind must be 'files' or 'synthetic', got {kind!r}")

    regimes = config.get("regimes")
    parsed: list[Regime] = []
    if not isinstance(regimes, list) or not regimes:
        errors.append("regimes must be a nonempty list")
    else:
        for r in regimes:
            try:
                regime = Regime.parse(r)
            except DataError as exc:
                errors.append(str(exc))
                continue
            if regime in parsed:
                errors.append(f"duplicate regime {r!r}: {regime.value} is already listed")
            parsed.append(regime)

    methods = config.get("methods", ["scorer", "logit_lp"])
    if not isinstance(methods, list) or not methods:
        errors.append("methods must be a nonempty list")
    else:
        for i, m in enumerate(methods):
            if m not in KNOWN_METHODS:
                errors.append(f"unknown method {m!r}")
            elif m in methods[:i]:
                errors.append(f"duplicate method {m!r}")

    neg_ratio = config.get("neg_ratio", SuiteConfig.neg_ratio)
    frac = config.get("train_frac_outside", SuiteConfig.train_frac_outside)
    try:
        check_split_knobs(neg_ratio, frac)
    except ConfigError as exc:
        errors.append(str(exc))

    sections = {}
    for spec in fields(SuiteConfig):
        section, cls = spec.name, spec.default_factory
        if cls is MISSING:  # a knob, not a sub-config section
            continue
        payload = config.get(section, {})
        if not isinstance(payload, dict):
            errors.append(f"{section} section must be an object")
            continue
        if section in _SEEDED and "seed" in payload:
            errors.append(f"{section}.seed is derived from the run seed; remove it")
            continue
        try:
            sections[section] = cls(**payload)
        except (TypeError, ConfigError) as exc:
            errors.append(f"{section}: {exc}")

    eval_cfg = config.get("eval", {})
    split = SuiteConfig.eval_split
    mults = list(SuiteConfig.k_multipliers)
    if not isinstance(eval_cfg, dict):
        errors.append("eval section must be an object")
    else:
        errors += _unknown_keys(eval_cfg, ("split", "k_multipliers"), "eval.")
        split = eval_cfg.get("split", split)
        if split not in EVAL_SPLITS:
            errors.append(f"eval.split must be test/valid/pooled, got {split!r}")
        mults = eval_cfg.get("k_multipliers", mults)
        try:
            check_k_multipliers(mults)
        except ConfigError as exc:
            errors.append(f"eval.{exc}")

    if errors:
        return None, methods, parsed
    for section in _SEEDED:
        sections[section] = replace(sections[section], seed=derive_seed(seed, section))
    suite = SuiteConfig(
        seed=seed,
        neg_ratio=float(neg_ratio),
        train_frac_outside=float(frac),
        k_multipliers=tuple(mults),
        eval_split=split,
        **sections,
    )
    return suite, list(methods), parsed


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


def write_provenance(out_dir: Path, config: dict, inputs: list[Path], base: Path) -> None:
    """``provenance.json``: config hash, tool version, seed and a digest of
    each input, keyed by its path relative to ``base`` so that the record
    does not depend on where the run directory lives."""
    payload = {
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "tool_version": __version__,
        "seed": config.get("seed"),
        "inputs": {os.path.relpath(p, base): _sha256_input(p) for p in inputs if p.exists()},
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
        # relative to the base directory, as out_dir is; absolute stays absolute
        src_path = base_dir / dataset["source"]
        tar_path = base_dir / dataset["target"]
        src, tar = load_graph(src_path), load_graph(tar_path)
        return src, tar, [*graph_inputs(src_path), *graph_inputs(tar_path)]
    spec = SyntheticSpec(**dataset["spec"])
    src, tar, heldout = generate_synthetic(spec)
    data_dir = out_dir / "dataset"
    data_dir.mkdir(parents=True, exist_ok=True)
    save_graph(src, data_dir / "source")
    save_graph(tar, data_dir / "target")
    write_edge_tsv(data_dir / "heldout.tsv", heldout)
    return src, tar, []


def fit_scorer(
    config: ScorerConfig, g_train: Graph, splits, model_path, logits_path=None
) -> tuple:
    """Train and checkpoint the scorer, then score every manifest edge:
    ``(model, y, z_all)``, the logits written to ``logits_path``.

    ``y`` is the N-row embedding table and ``z_all`` the logits of
    ``np.concatenate(splits)``, the ``selection.SplitIds`` of the manifest's
    ``all_edges()``. The model is returned for its ``loss_trace``;
    ``run_pipeline`` keeps only ``y`` and ``z_all``, so the model's X' is
    freed before the broadcast methods run.
    """
    model = train_scorer(config, g_train, splits)
    save_scorer(model_path, model, g_train)
    y = embed(model, g_train)
    all_ids = np.concatenate(splits)
    z_all = score_edges(y, all_ids)
    if logits_path is not None:
        write_scores_tsv(logits_path, key_pairs(g_train.keys, all_ids), z_all)
    return model, y, z_all


def metric_row(
    regime: Regime, method: str, scores: np.ndarray, labels: np.ndarray,
    suite: SuiteConfig, threshold: float | None = None,
) -> dict:
    """One report row, cut at ``threshold`` or else at the method's own
    decision point: 0.5 if calibrated, 0.0 for logits, none for heuristics."""
    if threshold is None and method not in HEURISTIC_METHODS:
        threshold = 0.5 if method in CALIBRATED_METHODS else 0.0
    row = {"regime": regime.value, "method": method, "split": suite.eval_split,
           "threshold": threshold}
    return row | evaluate_scores(scores, labels, suite.k_multipliers, threshold, suite.seed)


def run_pipeline(config: dict, base_dir: str | Path | None = None) -> EvalReport:
    """Execute selection -> scorer -> broadcast -> evaluation, persisting
    manifests, checkpoints, score files, the report, and provenance.

    Relative ``out_dir`` and dataset paths resolve against ``base_dir``
    (default: the working directory) only."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    problems: list[str] = []
    suite, methods, regimes = _suite_config(config, base, problems)
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))
    out_dir = base / config["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    with _stage("dataset"):
        src, tar, inputs = _load_dataset(config, out_dir, base)
        union = union_graph(src, tar)
        if "mlp" in methods and union.features is None:
            raise DataError("method 'mlp' reads node features, and the dataset has none")
    write_provenance(out_dir, config, inputs, base)

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
            splits = split_ids(manifest, g_train)
            y, z_all = fit_scorer(
                suite.scorer, g_train, splits, out_dir / "models" / f"{tag}.bin",
                out_dir / "scores" / f"{tag}.logits.tsv",
            )[1:]

        # the evaluation rows by their positions in all_edges(), shuffled
        ends = np.cumsum([0, *map(len, splits)])
        positions = splits._make(map(range, ends[:-1], ends[1:]))
        order, labels = shuffle_eval_order(*eval_pairs(positions, suite.eval_split), suite.seed)
        eval_positions = np.array(order, dtype=np.int64)
        eval_ids = np.concatenate(splits)[eval_positions]
        eval_order = key_pairs(g_train.keys, eval_ids)

        for method in methods:
            with _stage(f"{method}:{tag}"):
                t0 = time.perf_counter()
                full = method_scores(method, g_train, splits, y, z_all, eval_ids, suite)
                scores = full[eval_positions] if method in CALIBRATED_METHODS else full
                write_scores_tsv(
                    out_dir / "scores" / f"{tag}.{method}.tsv", eval_order, scores
                )
                row = metric_row(regime, method, scores, labels, suite)
                row["runtime_seconds"] = round(time.perf_counter() - t0, 6)
                rows.append(row)

    report = EvalReport(
        rows=rows,
        config=asdict(suite) | {"methods": methods, "regimes": [r.value for r in regimes]},
        seed=suite.seed,
        runtime_seconds=time.perf_counter() - started,
    )
    report.save(out_dir / "report.json", out_dir / "report.txt")
    return report
