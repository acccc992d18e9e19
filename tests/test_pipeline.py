import json
import sys
import weakref

import numpy as np
import pytest

from linkbridge import pipeline
from linkbridge.datasets import SyntheticSpec, generate_synthetic
from linkbridge.errors import ConfigError, DataError
from linkbridge.evaluation import KNOWN_METHODS, eval_pairs, evaluate_scores, shuffle_eval_order
from linkbridge.graph import Graph
from linkbridge.io import (
    read_scores_for,
    read_scores_tsv,
    save_graph,
    write_edge_tsv,
    write_features_csv,
)
from linkbridge.pipeline import run_pipeline
from linkbridge.propagation import DiffusionConfig, logit_lp
from linkbridge.seeds import derive_seed
from linkbridge.selection import SplitManifest, manifest_training_graph, split_ids

SPEC = dict(
    n_src=80,
    n_tar=40,
    overlap_ratio=0.4,
    mean_deg_src=5,
    mean_deg_tar=3,
    feature_dim=4,
    feature_shift=0.3,
    seed=4,
)


def _config(out_dir, dataset, methods=KNOWN_METHODS):
    return {
        "seed": 3,
        "out_dir": out_dir,
        "dataset": dataset,
        "regimes": ["int"],
        "methods": list(methods),
        "scorer": {"epochs": 2, "d_trainable": 8},
        "distill": {"hidden": 8, "max_epochs": 3, "finetune_epochs": 1},
    }


def test_run_pipeline_is_deterministic(tmp_path):
    dataset = {"kind": "synthetic", "spec": SPEC}
    first = run_pipeline(_config("a", dataset), base_dir=tmp_path)
    second = run_pipeline(_config("b", dataset), base_dir=tmp_path)
    assert [row["method"] for row in first.rows] == list(KNOWN_METHODS)
    assert first.content_hash() == second.content_hash()
    saved = json.loads((tmp_path / "b" / "report.json").read_text())
    assert saved["content_hash"] == second.content_hash()


def test_run_pipeline_accepts_graph_directories(tmp_path):
    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    save_graph(src, tmp_path / "source")
    save_graph(tar, tmp_path / "target")
    dataset = {"kind": "files", "source": "source", "target": "target"}
    report = run_pipeline(_config("out", dataset, ["scorer", "logit_lp"]), tmp_path)
    assert len(report.rows) == 2
    inputs = json.loads((tmp_path / "out" / "provenance.json").read_text())["inputs"]
    assert sorted(inputs) == ["source", "target"]
    # the digest covers every file in the directory
    (tmp_path / "source" / "notes.txt").write_text("added\n")
    run_pipeline(_config("out2", dataset, ["scorer"]), tmp_path)
    again = json.loads((tmp_path / "out2" / "provenance.json").read_text())["inputs"]
    assert again["source"] != inputs["source"]
    assert again["target"] == inputs["target"]


def test_mlp_on_a_featureless_pair_fails_before_any_split(tmp_path):
    """The student reads node features, so a pair without them is a data
    error raised before any manifest, model or score file is written."""
    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    write_edge_tsv(tmp_path / "source.tsv", src.edge_keys())
    write_edge_tsv(tmp_path / "target.tsv", tar.edge_keys())
    dataset = {"kind": "files", "source": "source.tsv", "target": "target.tsv"}
    with pytest.raises(DataError, match=r"\[stage: dataset\] method 'mlp' reads node features"):
        run_pipeline(_config("out", dataset, ["scorer", "mlp"]), tmp_path)
    assert not any((tmp_path / "out" / d).exists() for d in ("manifests", "models", "scores"))


def test_provenance_does_not_depend_on_the_base_directory(tmp_path):
    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    dataset = {"kind": "files", "source": "source", "target": "target"}
    written = []
    for base in (tmp_path / "a", tmp_path / "a-much-longer-base-directory"):
        save_graph(src, base / "source")
        save_graph(tar, base / "target")
        run_pipeline(_config("out", dataset, ["scorer"]), base)
        written.append((base / "out" / "provenance.json").read_bytes())
    assert written[0] == written[1]
    assert sorted(json.loads(written[0])["inputs"]) == ["source", "target"]


def test_provenance_covers_the_files_beside_an_edge_list(tmp_path):
    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    for name, g in (("source", src), ("target", tar)):
        write_edge_tsv(tmp_path / f"{name}.tsv", g.edge_keys())
        write_features_csv(tmp_path / f"{name}.features.csv", list(g.keys), g.features)
    dataset = {"kind": "files", "source": "source.tsv", "target": "target.tsv"}
    recorded = []
    for out in ("a", "b"):
        run_pipeline(_config(out, dataset, ["scorer"]), tmp_path)
        recorded.append(json.loads((tmp_path / out / "provenance.json").read_text())["inputs"])
        # one feature value of a node only the source holds changes
        path = tmp_path / "source.features.csv"
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, key in enumerate(src.keys) if key not in tar.key_to_id)
        key, first, rest = lines[row].split(",", 2)
        lines[row] = f"{key},{float(first) + 1.0!r},{rest}"
        path.write_text("".join(lines))
    assert sorted(recorded[0]) == [
        "source.features.csv", "source.tsv", "target.features.csv", "target.tsv"
    ]
    changed = [name for name in recorded[0] if recorded[0][name] != recorded[1][name]]
    assert changed == ["source.features.csv"]


def test_dataset_paths_resolve_against_the_base_directory(tmp_path, monkeypatch):
    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    base = tmp_path / "base"
    save_graph(src, base / "source")
    save_graph(tar, base / "target")
    # a decoy of another seed under the working directory, at the same path
    decoy, _, _ = generate_synthetic(SyntheticSpec(**(SPEC | {"seed": 5})))
    save_graph(decoy, tmp_path / "cwd" / "source")
    monkeypatch.chdir(tmp_path / "cwd")
    dataset = {"kind": "files", "source": "source", "target": "target"}
    report = run_pipeline(_config("out", dataset, ["scorer"]), base)
    expected = run_pipeline(_config("ref", dataset | {
        "source": str(base / "source"), "target": str(base / "target"),
    }, ["scorer"]), tmp_path)
    assert [row | {"runtime_seconds": 0} for row in report.rows] == [
        row | {"runtime_seconds": 0} for row in expected.rows
    ]


def test_report_echoes_the_derived_stage_seeds(tmp_path):
    dataset = {"kind": "synthetic", "spec": SPEC}
    report = run_pipeline(_config("out", dataset, ["scorer"]), tmp_path)
    assert report.config["scorer"]["seed"] == derive_seed(3, "scorer")
    assert report.config["distill"]["seed"] == derive_seed(3, "distill")


@pytest.mark.parametrize("section", ["scorer", "distill"])
def test_stage_seed_in_run_config_is_a_config_error(tmp_path, section):
    config = _config("out", {"kind": "synthetic", "spec": SPEC})
    config[section] = config[section] | {"seed": 123}
    with pytest.raises(ConfigError, match=f"{section}.seed"):
        run_pipeline(config, tmp_path)
    assert not (tmp_path / "out").exists()


def test_unknown_config_keys_are_all_reported(tmp_path):
    config = _config("out", {"kind": "files", "source": "s", "target": "t",
                             "spec": SPEC})
    config |= {"scorrer": {}, "eval": {"split": "test", "k_multiplier": [2.0]}}
    with pytest.raises(ConfigError) as info:
        run_pipeline(config, tmp_path)
    for key in ("'scorrer'", "'dataset.spec'", "'eval.k_multiplier'"):
        assert f"unknown config key {key}" in str(info.value)
    assert not (tmp_path / "out").exists()


def test_scorer_model_is_freed_before_the_methods_run(tmp_path, monkeypatch):
    """run_pipeline keeps the scorer's embeddings and logits, not its model:
    the model that fit_scorer returns (and its X') is dead at every method."""
    refs, alive = [], []

    def fit_scorer(*args, **kwargs):
        out = real_fit(*args, **kwargs)
        refs.append(weakref.ref(out[0]))
        return out

    def method_scores(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return real_scores(*args, **kwargs)

    real_fit, real_scores = pipeline.fit_scorer, pipeline.method_scores
    monkeypatch.setattr(pipeline, "fit_scorer", fit_scorer)
    monkeypatch.setattr(pipeline, "method_scores", method_scores)
    dataset = {"kind": "synthetic", "spec": SPEC}
    run_pipeline(_config("out", dataset, ["scorer", "logit_lp"]), tmp_path)
    assert alive == [False, False]


def test_the_split_becomes_node_ids_once_per_regime(tmp_path, monkeypatch):
    """Of the stages after the split, only the selection layer turns key
    pairs into node ids: the training graph and ``split_ids``, two
    ``pair_ids`` calls a regime, whatever the methods."""
    callers = []
    real = Graph.pair_ids

    def pair_ids(self, pairs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(self, pairs)

    monkeypatch.setattr(Graph, "pair_ids", pair_ids)
    config = _config("out", {"kind": "synthetic", "spec": SPEC}) | {"regimes": ["int", "tar"]}
    run_pipeline(config, tmp_path)
    assert callers == ["linkbridge.selection"] * 4


@pytest.mark.parametrize("split", ["valid", "pooled"])
def test_score_files_list_the_eval_split(tmp_path, split):
    """Each method's score file lists the evaluation pairs of the split, in
    the seeded order its report row is ranked in; logit_lp's scores are its
    full manifest vector read at those pairs."""
    config = _config("out", {"kind": "synthetic", "spec": SPEC}) | {"eval": {"split": split}}
    report = run_pipeline(config, tmp_path)
    out = tmp_path / "out"
    manifest = SplitManifest.load(out / "manifests" / "int.json")
    pos, neg = eval_pairs(manifest, split)
    assert set(pos) != set(manifest.test_pos)
    order, labels = shuffle_eval_order(pos, neg, config["seed"])
    assert sorted(order) == sorted(pos + neg)
    assert sum(labels) == len(pos)
    for row in report.rows:
        scores = read_scores_tsv(out / "scores" / f"int.{row['method']}.tsv")
        assert list(scores) == order
        want = evaluate_scores(np.array(list(scores.values())), labels,
                               (1.0, 1.25), row["threshold"], config["seed"])
        assert {k: row[k] for k in want} == want
        assert row["split"] == split

    src, tar, _ = generate_synthetic(SyntheticSpec(**SPEC))
    g_train = manifest_training_graph(manifest, src, tar)
    z_all = read_scores_for(out / "scores" / "int.logits.tsv", manifest.all_edges())
    full = logit_lp(g_train, split_ids(manifest, g_train), z_all, DiffusionConfig())
    at = dict(zip(manifest.all_edges(), full.tolist()))
    written = read_scores_tsv(out / "scores" / "int.logit_lp.tsv")
    assert written == {pair: at[pair] for pair in order}
