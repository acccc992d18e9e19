import json
import math

import numpy as np
import pytest

from linkbridge.checkpoint import load_scorer, save_checkpoint, save_scorer, save_student
import linkbridge.cli as cli
from linkbridge.cli import main
from linkbridge.distill import DistillConfig
from linkbridge.evaluation import (
    eval_pairs,
    evaluate_scores,
    node_centric_lp_ablation,
    shuffle_eval_order,
    train_student,
)
from linkbridge.graph import build_graph, union_graph
from linkbridge.heuristics import PprConfig, adamic_adar, common_neighbors, ppr_scores
from linkbridge.io import load_graph, read_scores_tsv, save_graph, write_edge_tsv, write_scores_tsv
from linkbridge.propagation import DiffusionConfig, emb_lp, logit_lp, xmc_scores
from linkbridge.scorer import ScorerConfig, embed, init_model, score_edges, train_scorer
from linkbridge.selection import (
    Regime,
    SplitManifest,
    make_split,
    split_ids,
    training_graph_from_universe,
)


@pytest.fixture
def workspace(tmp_path, small_pair):
    src, tar, _ = small_pair
    save_graph(union_graph(src, tar), tmp_path / "union")
    make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1).save(tmp_path / "m.json")
    return tmp_path


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _train(ws, config, manifest="m.json"):
    return main([
        "train-scorer", "--graph", str(ws / "union"), "--manifest", str(ws / manifest),
        "--config", _write_json(ws / "scorer.json", config), "--out", str(ws / "model.bin"),
    ])


def test_train_scorer_succeeds(workspace):
    assert _train(workspace, {"epochs": 1}) == 0
    assert (workspace / "model.bin").exists()


@pytest.mark.parametrize("config", [{"epochs": -1}, {"epochz": 1}, [1, 2]])
def test_train_scorer_bad_config_exits_2(workspace, config):
    assert _train(workspace, config) == 2


@pytest.mark.parametrize("text", [None, "{", '{"regime": "tar"}'])
def test_unreadable_manifest_exits_3(workspace, text):
    if text is not None:
        (workspace / "bad.json").write_text(text)
    assert _train(workspace, {"epochs": 1}, manifest="bad.json") == 3


def test_foreign_manifest_key_exits_3(tmp_path, small_pair):
    # featureless graphs, so that the foreign key is not caught as a node
    # without a feature row instead
    src, tar = (build_graph(g.edge_keys()) for g in small_pair[:2])
    save_graph(union_graph(src, tar), tmp_path / "union")
    payload = json.loads(make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1).to_json())
    payload["splits"]["train_pos"].append(["n000000", "zz"])
    _write_json(tmp_path / "foreign.json", payload)
    assert _train(tmp_path, {"epochs": 1}, manifest="foreign.json") == 3
    assert not (tmp_path / "model.bin").exists()


def test_distill_bad_config_exits_2(workspace):
    assert _train(workspace, {"epochs": 1}) == 0
    code = main([
        "distill", "--teacher", str(workspace / "model.bin"),
        "--graph", str(workspace / "union"), "--manifest", str(workspace / "m.json"),
        "--config", _write_json(workspace / "distill.json", {"epochz": 1}),
        "--out", str(workspace / "student.bin"),
    ])
    assert code == 2


VALID_SPEC = dict(n_src=40, n_tar=20, overlap_ratio=0.4, mean_deg_src=4,
                  mean_deg_tar=2, feature_dim=3, feature_shift=0.3, seed=1)


def test_gen_synmodel_succeeds(tmp_path):
    code = main([
        "gen-synmodel", "--spec", _write_json(tmp_path / "spec.json", VALID_SPEC),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "source.tsv").exists()


@pytest.mark.parametrize("spec", [{"epochz": 1}, VALID_SPEC | {"n_src": 1}])
def test_gen_synmodel_bad_spec_exits_2(tmp_path, spec):
    code = main([
        "gen-synmodel", "--spec", _write_json(tmp_path / "spec.json", spec),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2


RUN_CONFIG = {
    "seed": 1,
    "out_dir": "out",
    "dataset": {"kind": "synthetic", "spec": VALID_SPEC},
    "regimes": ["int"],
    "methods": ["scorer"],
    "scorer": {"epochs": 1},
}


def test_run_succeeds(tmp_path):
    assert main(["run", "--config", _write_json(tmp_path / "run.json", RUN_CONFIG)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_run_with_a_huge_k_multiplier_recalls_every_positive(tmp_path):
    config = RUN_CONFIG | {"eval": {"k_multipliers": [1.0, 1e308]}}
    assert main(["run", "--config", _write_json(tmp_path / "run.json", config)]) == 0
    (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert row["recall_at_1e+308x"] == 1.0


@pytest.mark.parametrize("config", [
    None,
    [RUN_CONFIG],
    RUN_CONFIG | {"regimes": 5},
    RUN_CONFIG | {"methods": 7},
    RUN_CONFIG | {"eval": {"k_multipliers": 3}},
    RUN_CONFIG | {"regimes": [["int"]]},
    RUN_CONFIG | {"scorer": {"epochs": 1, "seed": 123}},
    RUN_CONFIG | {"distill": {"seed": 123}},
    RUN_CONFIG | {"distill": {"batch_size": 0}},
    RUN_CONFIG | {"distill": {"finetune_batch_size": 0}},
    RUN_CONFIG | {"scorer": {"momentum": 0.9}},
    RUN_CONFIG | {"scorer": {"l2_weight": 1e-3}},
    RUN_CONFIG | {"neg_ratio": -1},
    RUN_CONFIG | {"train_frac_outside": 1.5},
    RUN_CONFIG | {"scorrer": {"epochs": 1}},
    RUN_CONFIG | {"eval": {"k_multiplier": [2.0]}},
    RUN_CONFIG | {"dataset": RUN_CONFIG["dataset"] | {"sourc": "source.tsv"}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean", "d_trainable": -2}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean", "d_trainable": 0}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "two_hop_mean"}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean", "d_out": 4}},
    RUN_CONFIG | {"ppr": {"tol": -1e-3}},
    RUN_CONFIG | {"distill": {"plateau_epochs": 0}},
    RUN_CONFIG | {"distill": {"plateau_epochs": -1}},
    RUN_CONFIG | {"distill": {"plateau_tol": -1e-4}},
    RUN_CONFIG | {"scorer": {"epochs": 2.5}},
    RUN_CONFIG | {"distill": {"hidden": 2.5}},
    RUN_CONFIG | {"methods": ["scorer", "scorer"]},
    RUN_CONFIG | {"regimes": ["int", "intersection_to_target"]},
    # knobs of the per-node table X' that the scorer no longer has
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean"}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "d_trainable": 4}},
], ids=["missing-file", "json-list", "regimes-int", "methods-int", "k-multipliers-int",
        "regime-list", "scorer-seed", "distill-seed", "distill-batch-size-0",
        "distill-finetune-batch-size-0", "scorer-momentum", "scorer-l2-weight",
        "neg-ratio-negative", "train-frac-above-1", "top-level-typo", "eval-typo",
        "dataset-typo", "scorer-d-trainable-negative", "scorer-d-trainable-0",
        "scorer-encoder-unknown", "scorer-d-out", "ppr-tol-negative",
        "distill-plateau-epochs-0", "distill-plateau-epochs-negative",
        "distill-plateau-tol-negative", "scorer-epochs-float", "distill-hidden-float",
        "method-twice", "regime-twice", "scorer-encoder", "scorer-d-trainable"])
def test_run_bad_config_exits_2(tmp_path, config):
    path = tmp_path / "run.json"
    if config is not None:
        _write_json(path, config)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"methods": ["scorer", "logit_lp", "scorer"]}, "duplicate method 'scorer'"),
    ({"regimes": ["int", "tar", "Intersection_To_Target"]},
     "duplicate regime 'Intersection_To_Target': intersection_to_target is already listed"),
], ids=["method", "regime"])
def test_run_config_listing_an_entry_twice_names_it(tmp_path, change, message, capsys):
    path = _write_json(tmp_path / "run.json", RUN_CONFIG | change)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "out").exists()
    assert message in capsys.readouterr().err


# a value of the wrong type in a run config: (the change, the message it prints)
WRONG_TYPES = {
    "scorer-learning-rate-bool": ({"scorer": {"learning_rate": True}},
                                  "scorer: learning_rate must be a number, got True"),
    "diffusion-alpha-str": ({"diffusion": {"alpha": "0.5"}},
                            "diffusion: alpha must be a number, got '0.5'"),
    "seed-bool": ({"seed": True}, "seed must be an integer, got True"),
    "neg-ratio-bool": ({"neg_ratio": True}, "neg_ratio must be positive, got True"),
    "k-multipliers-bool": ({"eval": {"k_multipliers": [True]}},
                           "k_multipliers must be a list of positive numbers"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_run_config_value_of_the_wrong_type_exits_2(tmp_path, case, capsys):
    change, message = WRONG_TYPES[case]
    path = _write_json(tmp_path / "run.json", RUN_CONFIG | change)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "out").exists()
    assert message in capsys.readouterr().err


# a NaN or infinite value in a run config, written as the JSON literals
# NaN / Infinity that Python's json reads: (the change, the message it prints)
NON_FINITE = {
    "scorer-learning-rate-nan": ({"scorer": {"learning_rate": math.nan}},
                                 "scorer: learning_rate must be finite, got nan"),
    "ppr-tol-nan": ({"ppr": {"tol": math.nan}}, "ppr: tol must be finite, got nan"),
    "neg-ratio-inf": ({"neg_ratio": math.inf}, "neg_ratio must be finite, got inf"),
    "k-multipliers-inf": ({"eval": {"k_multipliers": [1.0, math.inf]}},
                          "k_multipliers must be a list of positive numbers"),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_run_config_non_finite_value_exits_2(tmp_path, case, capsys):
    change, message = NON_FINITE[case]
    path = _write_json(tmp_path / "run.json", RUN_CONFIG | change)
    assert "NaN" in (tmp_path / "run.json").read_text() or "Infinity" in (
        tmp_path / "run.json").read_text()
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "out").exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("node", ["shared", "target-only"])
def test_run_on_a_non_finite_feature_exits_3(tmp_path, node, capsys):
    """A NaN in the target's features CSV, on a node the source shares or on
    one only the target has, is a data error naming the file and its line."""
    assert main(["gen-synmodel", "--spec", _write_json(tmp_path / "spec.json", VALID_SPEC),
                 "--out-dir", str(tmp_path / "pair")]) == 0
    rows = (tmp_path / "pair" / "source.features.csv").read_text().splitlines()
    source = {row.split(",")[0] for row in rows}
    features = tmp_path / "pair" / "target.features.csv"
    lines = features.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines)
              if (line.split(",")[0] in source) == (node == "shared"))
    key, first, *rest = lines[at].split(",")
    lines[at] = ",".join([key, "nan", *rest])
    features.write_text("".join(lines))
    config = RUN_CONFIG | {"dataset": {"kind": "files", "source": "pair/source.tsv",
                                       "target": "pair/target.tsv"}}
    path = _write_json(tmp_path / "run.json", config)
    assert main(["run", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{features}:{at + 1}: " in err


# ---------------------------------------------------------------------------
# stage subcommands: each written file equals the library call's on the same
# loaded graph

def _training_graph(ws):
    manifest = SplitManifest.load(ws / "m.json")
    return manifest, training_graph_from_universe(manifest, load_graph(ws / "union"))


def _same_scores(path, pairs, scores, tmp_path):
    write_scores_tsv(tmp_path / "expected.tsv", pairs, scores)
    return path.read_bytes() == (tmp_path / "expected.tsv").read_bytes()


def test_make_split_writes_the_library_manifest(tmp_path, small_pair):
    src, tar, _ = small_pair
    save_graph(src, tmp_path / "src")
    save_graph(tar, tmp_path / "tar")
    code = main(["make-split", "--regime", "uni", "--src", str(tmp_path / "src"),
                 "--tar", str(tmp_path / "tar"), "--seed", "4", "--out",
                 str(tmp_path / "cli.json")])
    assert code == 0
    make_split(Regime.UNION_TO_TARGET, load_graph(tmp_path / "src"),
               load_graph(tmp_path / "tar"), seed=4).save(tmp_path / "lib.json")
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


# a bad make-split option: (the options, the message it prints); the last
# --regime given wins over the valid one
BAD_SPLIT_KNOBS = {
    "neg-ratio-negative": (["--neg-ratio", "-1"], "neg_ratio must be positive"),
    "train-frac-above-1": (["--train-frac", "1.5"], "train_frac_outside must be in"),
    "regime-bogus": (["--regime", "bogus"], "--regime: unknown regime 'bogus'"),
}


@pytest.mark.parametrize("knob", list(BAD_SPLIT_KNOBS))
def test_make_split_bad_knob_exits_2(tmp_path, small_pair, knob, capsys):
    options, message = BAD_SPLIT_KNOBS[knob]
    src, tar, _ = small_pair
    save_graph(src, tmp_path / "src")
    save_graph(tar, tmp_path / "tar")
    code = main(["make-split", "--regime", "uni", "--src", str(tmp_path / "src"),
                 "--tar", str(tmp_path / "tar"), *options, "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert not (tmp_path / "m.json").exists()
    assert message in capsys.readouterr().err


def test_make_split_more_negatives_than_node_pairs_exits_3(tmp_path, capsys):
    assert main(["gen-synmodel", "--spec", _write_json(tmp_path / "spec.json", VALID_SPEC),
                 "--out-dir", str(tmp_path / "pair")]) == 0
    code = main(["make-split", "--regime", "int", "--src", str(tmp_path / "pair" / "source.tsv"),
                 "--tar", str(tmp_path / "pair" / "target.tsv"), "--neg-ratio", "1e308",
                 "--out", str(tmp_path / "m.json")])
    assert code == 3
    assert not (tmp_path / "m.json").exists()
    assert "graph too dense" in capsys.readouterr().err


def test_manifest_with_an_unknown_regime_exits_3(workspace):
    payload = json.loads((workspace / "m.json").read_text())
    payload["regime"] = "bogus"
    _write_json(workspace / "bad.json", payload)
    assert _train(workspace, {"epochs": 1}, manifest="bad.json") == 3


@pytest.fixture
def trained(workspace):
    """The workspace after ``train-scorer --emit-logits``."""
    code = main([
        "train-scorer", "--graph", str(workspace / "union"), "--manifest",
        str(workspace / "m.json"), "--config",
        _write_json(workspace / "scorer.json", {"epochs": 1}),
        "--out", str(workspace / "model.bin"), "--emit-logits", str(workspace / "logits.tsv"),
    ])
    assert code == 0
    return workspace


def test_train_scorer_emits_the_library_logits(trained, tmp_path):
    manifest, g_train = _training_graph(trained)
    model = train_scorer(ScorerConfig(epochs=1), g_train,
                         split_ids(manifest, g_train))
    pairs = manifest.all_edges()
    z = score_edges(embed(model, g_train), g_train.pair_ids(pairs))
    assert _same_scores(trained / "logits.tsv", pairs, z, tmp_path)


@pytest.mark.parametrize("variant", ["logit", "node", "emb", "xmc"])
def test_propagate_writes_the_library_scores(trained, tmp_path, variant):
    code = main(["propagate", "--variant", variant, "--graph", str(trained / "union"),
                 "--manifest", str(trained / "m.json"), "--model", str(trained / "model.bin"),
                 "--out", str(trained / "out.tsv")])
    assert code == 0
    manifest, g = _training_graph(trained)
    pairs = manifest.all_edges()
    ids = g.pair_ids(pairs)
    splits = split_ids(manifest, g)
    y = embed(load_scorer(trained / "model.bin", g), g)
    cfg = DiffusionConfig()
    expected = {
        "logit": lambda: logit_lp(g, splits, score_edges(y, ids), cfg),
        "node": lambda: node_centric_lp_ablation(g, splits, score_edges(y, ids), cfg),
        "emb": lambda: emb_lp(g, splits.train_pos, y, cfg, ids),
        "xmc": lambda: xmc_scores(g, y, cfg, ids),
    }[variant]()
    assert _same_scores(trained / "out.tsv", pairs, expected, tmp_path)


@pytest.mark.parametrize("method", ["cn", "aa", "ppr"])
def test_baseline_writes_the_library_scores(workspace, tmp_path, method):
    manifest = SplitManifest.load(workspace / "m.json")
    pairs = list(manifest.test_pos + manifest.test_neg)
    write_edge_tsv(workspace / "pairs.tsv", pairs)
    code = main(["baseline", "--method", method, "--graph", str(workspace / "union"),
                 "--edges", str(workspace / "pairs.tsv"), "--teleport", "0.3",
                 "--out", str(workspace / "out.tsv")])
    assert code == 0
    g = load_graph(workspace / "union")
    ids = g.pair_ids(pairs)
    expected = {
        "cn": lambda: common_neighbors(g, ids).astype(float),
        "aa": lambda: adamic_adar(g, ids),
        "ppr": lambda: ppr_scores(g, ids, PprConfig(teleport=0.3)),
    }[method]()
    assert _same_scores(workspace / "out.tsv", pairs, expected, tmp_path)


def test_distill_writes_the_library_student(trained, tmp_path):
    config = {"hidden": 4, "max_epochs": 2, "finetune_epochs": 1}
    code = main(["distill", "--teacher", str(trained / "model.bin"),
                 "--graph", str(trained / "union"), "--manifest", str(trained / "m.json"),
                 "--config", _write_json(trained / "distill.json", config),
                 "--out", str(trained / "student.bin")])
    assert code == 0
    manifest, g = _training_graph(trained)
    y = embed(load_scorer(trained / "model.bin", g), g)
    student = train_student(y, g, split_ids(manifest, g), DistillConfig(**config))
    save_student(tmp_path / "lib.bin", student)
    assert (trained / "student.bin").read_bytes() == (tmp_path / "lib.bin").read_bytes()


def test_distill_on_a_featureless_graph_exits_3(tmp_path, small_pair, capsys, monkeypatch):
    src, tar = (build_graph(g.edge_keys()) for g in small_pair[:2])
    save_graph(union_graph(src, tar), tmp_path / "union")
    make_split(Regime.INTERSECTION_TO_TARGET, src, tar, seed=1).save(tmp_path / "m.json")
    assert _train(tmp_path, {"epochs": 1}) == 0

    def no_teacher(*args):
        raise AssertionError("the teacher was loaded before the features were checked")

    monkeypatch.setattr(cli, "load_scorer", no_teacher)
    code = main(["distill", "--teacher", str(tmp_path / "model.bin"),
                 "--graph", str(tmp_path / "union"), "--manifest", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "student.bin")])
    assert code == 3
    assert "reads node features, and the graph has none" in capsys.readouterr().err
    assert not (tmp_path / "student.bin").exists()


def test_distill_that_diverges_exits_4_without_a_warning(tmp_path, capsys):
    """The default student on a 40/20 synthetic pair, under a teacher with
    the default config, overflows in fine-tuning. The run prints the
    numeric error alone, with no numpy RuntimeWarning before it (the suite
    turns every warning into an error), and writes no student."""
    _write_json(tmp_path / "pair.json", {
        "n_src": 40, "n_tar": 20, "overlap_ratio": 0.4, "mean_deg_src": 4,
        "mean_deg_tar": 2, "feature_dim": 3, "feature_shift": 0.3, "seed": 1,
    })
    pair = tmp_path / "pair"
    assert main(["gen-synmodel", "--spec", str(tmp_path / "pair.json"), "--out-dir", str(pair)]) == 0
    assert main(["make-split", "--regime", "int", "--src", str(pair / "source.tsv"),
                 "--tar", str(pair / "target.tsv"), "--out", str(tmp_path / "m.json")]) == 0
    src, tar = load_graph(pair / "source.tsv"), load_graph(pair / "target.tsv")
    save_graph(union_graph(src, tar), tmp_path / "union")
    assert _train(tmp_path, {}) == 0
    capsys.readouterr()
    code = main(["distill", "--teacher", str(tmp_path / "model.bin"),
                 "--graph", str(tmp_path / "union"), "--manifest", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "student.bin")])
    assert code == 4
    assert capsys.readouterr().err == (
        "numeric error: training diverged: non-finite loss inf at epoch 3\n"
    )
    assert not (tmp_path / "student.bin").exists()


def test_evaluate_writes_the_library_rows(trained):
    manifest = SplitManifest.load(trained / "m.json")
    pairs = manifest.all_edges()
    write_scores_tsv(trained / "cn.tsv", pairs, np.arange(len(pairs), dtype=float))
    code = main(["evaluate", "--manifest", str(trained / "m.json"),
                 "--scores", f"scorer={trained / 'logits.tsv'}",
                 "--scores", f"cn={trained / 'cn.tsv'}", "--seed", "2",
                 "--report", str(trained / "report.json")])
    assert code == 0
    rows = json.loads((trained / "report.json").read_text())["rows"]
    order, labels = shuffle_eval_order(*eval_pairs(manifest, "test"), 2)
    for row, name, threshold in zip(rows, ("logits", "cn"), (0.0, None)):
        table = read_scores_tsv(trained / f"{name}.tsv")
        scores = np.array([table[pair] for pair in order])
        expected = evaluate_scores(scores, labels, (1.0, 1.25), threshold, 2)
        assert row == {"regime": manifest.regime.value, "method": row["method"],
                       "split": "test", "threshold": threshold, **expected}
    assert rows[1]["precision"] is None and rows[1]["accuracy"] is None


def test_propagate_emb_without_model_exits_2(trained):
    code = main(["propagate", "--variant", "emb", "--graph", str(trained / "union"),
                 "--manifest", str(trained / "m.json"), "--logits", str(trained / "logits.tsv"),
                 "--out", str(trained / "out.tsv")])
    assert code == 2


@pytest.mark.parametrize("variant, logits, calls", [
    ("emb", False, 0), ("logit", False, 1), ("logit", True, 0)])
def test_propagate_scores_the_manifest_only_when_the_variant_reads_model_logits(
        trained, monkeypatch, variant, logits, calls):
    scored = []

    def spy(y, ids):
        scored.append(len(ids))
        return score_edges(y, ids)

    monkeypatch.setattr(cli, "score_edges", spy)
    given = ["--logits", str(trained / "logits.tsv")] if logits else []
    code = main(["propagate", "--variant", variant, "--graph", str(trained / "union"),
                 "--manifest", str(trained / "m.json"), "--model", str(trained / "model.bin"),
                 *given, "--out", str(trained / "out.tsv")])
    assert code == 0
    assert scored == [len(SplitManifest.load(trained / "m.json").all_edges())] * calls


def test_propagate_with_non_finite_scores_exits_4(trained, monkeypatch, capsys):
    """Embeddings that are zero except one 1e300 entry: finite, while their
    diffused inner products overflow. A float32 checkpoint cannot hold them,
    so they stand in for the loaded scorer's. No score file is written."""
    manifest, g = _training_graph(trained)

    def overflowing(model, graph):
        y = np.zeros_like(embed(model, graph))
        y[g.pair_ids(manifest.train_pos)[0, 0], 0] = 1e300
        return y

    monkeypatch.setattr(cli, "embed", overflowing)
    code = main(["propagate", "--variant", "emb", "--graph", str(trained / "union"),
                 "--manifest", str(trained / "m.json"), "--model", str(trained / "model.bin"),
                 "--out", str(trained / "out.tsv")])
    assert code == 4
    assert capsys.readouterr().err == "numeric error: emb_lp scores are not finite\n"
    assert not (trained / "out.tsv").exists()


def test_evaluate_scores_without_method_exits_2(workspace):
    code = main(["evaluate", "--manifest", str(workspace / "m.json"), "--scores", "foo"])
    assert code == 2


def test_score_file_missing_an_evaluation_edge_exits_3(trained):
    lines = (trained / "logits.tsv").read_text().splitlines(keepends=True)
    manifest = SplitManifest.load(trained / "m.json")
    dropped = "\t".join(manifest.test_pos[0]) + "\t"
    (trained / "short.tsv").write_text("".join(l for l in lines if not l.startswith(dropped)))
    code = main(["evaluate", "--manifest", str(trained / "m.json"),
                 "--scores", f"scorer={trained / 'short.tsv'}"])
    assert code == 3


def test_scorer_checkpoint_from_before_the_hop_teacher_exits_3(workspace, capsys):
    """A scorer checkpoint written while the scorer still held a per-node
    table X' carries the retired ``d_trainable`` and ``encoder`` keys."""
    config = {"d_trainable": 4, "encoder": "embedding_only", "learning_rate": 0.05,
              "batch_size": 512, "epochs": 1, "seed": 0}
    save_checkpoint(workspace / "model.bin", "scorer", config,
                    {"x_prime": np.zeros((5, 4), dtype=np.float32)})
    code = main(["propagate", "--variant", "xmc", "--model", str(workspace / "model.bin"),
                 *_stage_args(workspace)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "d_trainable" in err
    assert not (workspace / "out.tsv").exists()


def test_scorer_checkpoint_on_another_feature_width_exits_3(workspace, capsys):
    narrow = build_graph([("a", "b")], features={"a": [0.0, 1.0], "b": [1.0, 0.0]})
    save_scorer(workspace / "model.bin", init_model(ScorerConfig(), narrow))
    code = main(["propagate", "--variant", "xmc", "--model", str(workspace / "model.bin"),
                 *_stage_args(workspace)])
    assert code == 3
    assert "scorer reads 2 features per node, graph has 4" in capsys.readouterr().err


def _add_removed_config_keys(path):
    """Rewrite a scorer checkpoint's header as it was written while the scorer
    still had ``l2_weight`` and ``momentum`` knobs."""
    line, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    header["config"] |= {"l2_weight": 0.0, "momentum": 0.0}
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob)


@pytest.mark.parametrize("command", ["propagate", "distill"])
def test_checkpoint_config_with_an_unknown_key_exits_3(trained, command, capsys):
    model = trained / "model.bin"
    _add_removed_config_keys(model)
    argv = {
        "propagate": ["propagate", "--variant", "xmc", "--model", str(model)],
        "distill": ["distill", "--teacher", str(model)],
    }[command]
    assert main(argv + _stage_args(trained)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(model) in err and "l2_weight" in err


@pytest.mark.parametrize("k_mult", ["-1", "0"])
def test_evaluate_non_positive_k_multiplier_exits_2(trained, k_mult):
    code = main(["evaluate", "--manifest", str(trained / "m.json"),
                 "--scores", f"scorer={trained / 'logits.tsv'}", "--k-mult", k_mult])
    assert code == 2


@pytest.mark.parametrize("option, message", [
    (["--split", "bogus"], "eval split must be one of"),
    (["--k-mult", "0"], "k_multipliers must be a list of positive numbers"),
], ids=["split", "k-mult"])
def test_evaluate_bad_knob_exits_2_before_reading_the_manifest(tmp_path, option, message, capsys):
    code = main(["evaluate", "--manifest", str(tmp_path / "missing.json"),
                 "--scores", f"scorer={tmp_path / 'missing.tsv'}", *option])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_evaluate_non_finite_threshold_exits_2(trained, threshold, capsys):
    report = trained / "threshold.json"
    code = main(["evaluate", "--manifest", str(trained / "m.json"),
                 "--scores", f"scorer={trained / 'logits.tsv'}", "--threshold", threshold,
                 "--report", str(report)])
    assert code == 2
    assert not report.exists()
    assert f"--threshold must be finite, got {threshold}" in capsys.readouterr().err


def _stage_args(ws):
    return ["--graph", str(ws / "union"), "--manifest", str(ws / "m.json"),
            "--out", str(ws / "out.tsv")]


def test_ingest_side_rows_declare_nodes(tmp_path):
    (tmp_path / "edges.tsv").write_text("a\tb\n")
    (tmp_path / "sides.tsv").write_text("a\t0\nb\t1\niso\t0\n")
    code = main(["ingest", "--edges", str(tmp_path / "edges.tsv"),
                 "--sides", str(tmp_path / "sides.tsv"), "--out", str(tmp_path / "g")])
    assert code == 0
    g = load_graph(tmp_path / "g")
    assert g.keys == ("a", "b", "iso")
    assert g.sides.tolist() == [0, 1, 0]


def test_ingest_missing_side_row_exits_3(tmp_path):
    (tmp_path / "edges.tsv").write_text("a\tb\nb\tc\n")
    (tmp_path / "sides.tsv").write_text("a\t0\nb\t1\n")
    code = main(["ingest", "--edges", str(tmp_path / "edges.tsv"),
                 "--sides", str(tmp_path / "sides.tsv"), "--out", str(tmp_path / "g")])
    assert code == 3
    assert not (tmp_path / "g").exists()


# each command reading a file that is missing, of another kind, or holding a
# non-numeric value: the file at fault, relative to the workspace, and the
# command line
BAD_INPUT_FILES = {
    "propagate-model-missing": ("missing.bin", lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "missing.bin")]),
    "propagate-model-report": ("report.json", lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "report.json")]),
    "propagate-model-scores": ("logits.tsv", lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "logits.tsv")]),
    "propagate-logits-missing": ("missing.tsv", lambda ws: [
        "propagate", "--variant", "logit", *_stage_args(ws), "--logits", str(ws / "missing.tsv")]),
    "evaluate-scores-missing": ("missing.tsv", lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'missing.tsv'}"]),
    "evaluate-scores-non-numeric": ("bad.tsv", lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'bad.tsv'}"]),
    # a nan score would be ranked at an arbitrary place, not refused
    "evaluate-scores-nan": ("nan.tsv:2", lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'nan.tsv'}"]),
    # a repeated pair would let its later score win silently
    "evaluate-scores-repeated-pair": ("repeat.tsv:3", lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'repeat.tsv'}"]),
    "baseline-edges-missing": ("missing.tsv", lambda ws: [
        "baseline", "--method", "cn", "--graph", str(ws / "union"),
        "--edges", str(ws / "missing.tsv"), "--out", str(ws / "out.tsv")]),
    "ingest-edges-missing": ("missing.tsv", lambda ws: [
        "ingest", "--edges", str(ws / "missing.tsv"), "--out", str(ws / "g")]),
    "ingest-features-non-numeric": ("bad.csv", lambda ws: [
        "ingest", "--edges", str(ws / "edges.tsv"), "--features", str(ws / "bad.csv"),
        "--out", str(ws / "g")]),
    "ingest-features-nan": ("nan.csv", lambda ws: [
        "ingest", "--edges", str(ws / "edges.tsv"), "--features", str(ws / "nan.csv"),
        "--out", str(ws / "g")]),
    "ingest-sides-missing-node": ("sides.tsv", lambda ws: [
        "ingest", "--edges", str(ws / "edges.tsv"), "--sides", str(ws / "sides.tsv"),
        "--out", str(ws / "g")]),
    "split-temporal-features-unknown-node": ("typo.csv", lambda ws: [
        "split-temporal", "--edges", str(ws / "dated.tsv"), "--features", str(ws / "typo.csv"),
        "--y-low", "2001", "--y-high", "2002", "--out-dir", str(ws / "pair")]),
    "graph-features-missing-node": ("gappy/features.csv", lambda ws: [
        "baseline", "--method", "cn", "--graph", str(ws / "gappy"),
        "--edges", str(ws / "edges.tsv"), "--out", str(ws / "out.tsv")]),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_FILES))
def test_bad_input_file_exits_3(trained, case, capsys):
    ws = trained
    (ws / "report.json").write_text(json.dumps({"rows": [], "seed": 1}, indent=2))
    lines = (ws / "logits.tsv").read_text().splitlines(keepends=True)
    a, b, _ = lines[0].split("\t")
    (ws / "bad.tsv").write_text(f"{a}\t{b}\tnot-a-number\n" + "".join(lines[1:]))
    c, d, _ = lines[1].split("\t")
    (ws / "nan.tsv").write_text("".join([lines[0], f"{c}\t{d}\tnan\n", *lines[2:]]))
    (ws / "repeat.tsv").write_text("".join([lines[0], lines[1], f"{b}\t{a}\t0.5\n"]))
    (ws / "edges.tsv").write_text("a\tb\n")
    (ws / "bad.csv").write_text("a,1.0,2.0\nb,1.0,x\n")
    (ws / "nan.csv").write_text("a,1.0,2.0\nb,nan,1.0\n")
    (ws / "sides.tsv").write_text("a\t0\n")
    (ws / "gappy").mkdir()
    (ws / "gappy" / "edges.tsv").write_text("a\tb\n")
    (ws / "gappy" / "features.csv").write_text("a,1.0,2.0\n")
    (ws / "dated.tsv").write_text("a\tb\t2001\nb\tc\t2002\n")
    (ws / "typo.csv").write_text("a,1.0\nb,1.0\nc,1.0\ntypo,1.0\n")
    at_fault, argv = BAD_INPUT_FILES[case]
    assert main(argv(ws)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ws / at_fault) in err
