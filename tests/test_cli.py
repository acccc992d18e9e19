import json

import numpy as np
import pytest

from linkbridge.checkpoint import load_scorer, save_scorer, save_student
from linkbridge.cli import main
from linkbridge.distill import DistillConfig, finetune_linkpred, imitate
from linkbridge.evaluation import (
    eval_pairs,
    evaluate_scores,
    node_centric_lp_ablation,
    shuffle_eval_order,
)
from linkbridge.graph import union_graph
from linkbridge.heuristics import PprConfig, adamic_adar, common_neighbors, ppr_scores
from linkbridge.io import load_graph, read_scores_tsv, save_graph, write_edge_tsv, write_scores_tsv
from linkbridge.propagation import DiffusionConfig, emb_lp, logit_lp, xmc_scores
from linkbridge.scorer import ScorerConfig, embed, init_model, score_edges, train_scorer
from linkbridge.selection import (
    Regime,
    SplitManifest,
    make_split,
    manifest_training_graph,
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
    assert _train(workspace, {"epochs": 1, "d_trainable": 4}) == 0
    assert (workspace / "model.bin").exists()


@pytest.mark.parametrize("config", [{"epochs": -1}, {"epochz": 1}, [1, 2]])
def test_train_scorer_bad_config_exits_2(workspace, config):
    assert _train(workspace, config) == 2


@pytest.mark.parametrize("text", [None, "{", '{"regime": "tar"}'])
def test_unreadable_manifest_exits_3(workspace, text):
    if text is not None:
        (workspace / "bad.json").write_text(text)
    assert _train(workspace, {"epochs": 1}, manifest="bad.json") == 3


def test_distill_bad_config_exits_2(workspace):
    assert _train(workspace, {"epochs": 1, "d_trainable": 4}) == 0
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
    "scorer": {"epochs": 1, "d_trainable": 4},
}


def test_run_succeeds(tmp_path):
    assert main(["run", "--config", _write_json(tmp_path / "run.json", RUN_CONFIG)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


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
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean", "d_out": -2}},
    RUN_CONFIG | {"scorer": {"epochs": 1, "encoder": "one_hop_mean", "d_out": 0}},
    RUN_CONFIG | {"ppr": {"tol": -1e-3}},
    RUN_CONFIG | {"distill": {"plateau_epochs": 0}},
    RUN_CONFIG | {"distill": {"plateau_epochs": -1}},
    RUN_CONFIG | {"distill": {"plateau_tol": -1e-4}},
], ids=["missing-file", "json-list", "regimes-int", "methods-int", "k-multipliers-int",
        "regime-list", "scorer-seed", "distill-seed", "distill-batch-size-0",
        "distill-finetune-batch-size-0", "scorer-momentum", "scorer-l2-weight",
        "neg-ratio-negative", "train-frac-above-1", "top-level-typo", "eval-typo",
        "dataset-typo", "scorer-d-out-negative", "scorer-d-out-0", "ppr-tol-negative",
        "distill-plateau-epochs-0", "distill-plateau-epochs-negative",
        "distill-plateau-tol-negative"])
def test_run_bad_config_exits_2(tmp_path, config):
    path = tmp_path / "run.json"
    if config is not None:
        _write_json(path, config)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("knob", [["--neg-ratio", "-1"], ["--train-frac", "1.5"]],
                         ids=["neg-ratio-negative", "train-frac-above-1"])
def test_make_split_bad_knob_exits_2(tmp_path, small_pair, knob):
    src, tar, _ = small_pair
    save_graph(src, tmp_path / "src")
    save_graph(tar, tmp_path / "tar")
    code = main(["make-split", "--regime", "uni", "--src", str(tmp_path / "src"),
                 "--tar", str(tmp_path / "tar"), *knob, "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert not (tmp_path / "m.json").exists()


@pytest.fixture
def trained(workspace):
    """The workspace after ``train-scorer --emit-logits``."""
    code = main([
        "train-scorer", "--graph", str(workspace / "union"), "--manifest",
        str(workspace / "m.json"), "--config",
        _write_json(workspace / "scorer.json", {"epochs": 1, "d_trainable": 4}),
        "--out", str(workspace / "model.bin"), "--emit-logits", str(workspace / "logits.tsv"),
    ])
    assert code == 0
    return workspace


def test_train_scorer_emits_the_library_logits(trained, tmp_path):
    manifest, g_train = _training_graph(trained)
    model = train_scorer(ScorerConfig(epochs=1, d_trainable=4), g_train, manifest)
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
    y = embed(load_scorer(trained / "model.bin", g), g)
    cfg = DiffusionConfig()
    expected = {
        "logit": lambda: logit_lp(g, manifest, score_edges(y, ids), cfg),
        "node": lambda: node_centric_lp_ablation(g, manifest, score_edges(y, ids), cfg),
        "emb": lambda: emb_lp(g, g.pair_ids(manifest.train_pos), y, cfg, ids),
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
    teacher = load_scorer(trained / "model.bin", g)
    cfg = DistillConfig(**config)
    student = imitate(embed(teacher, g), g, cfg, x_prime=teacher.x_prime)
    save_student(tmp_path / "lib.bin", finetune_linkpred(student, manifest, g, cfg), g)
    assert (trained / "student.bin").read_bytes() == (tmp_path / "lib.bin").read_bytes()


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


def test_checkpoint_from_another_node_order_exits_3(workspace, small_pair):
    src, tar, _ = small_pair
    manifest = SplitManifest.load(workspace / "m.json")
    g_memory = manifest_training_graph(manifest, src, tar)
    save_scorer(workspace / "model.bin", init_model(ScorerConfig(d_trainable=4), g_memory),
                g_memory)
    code = main(["propagate", "--variant", "xmc", "--graph", str(workspace / "union"),
                 "--manifest", str(workspace / "m.json"), "--model",
                 str(workspace / "model.bin"), "--out", str(workspace / "out.tsv")])
    assert code == 3


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


def _stage_args(ws):
    return ["--graph", str(ws / "union"), "--manifest", str(ws / "m.json"),
            "--out", str(ws / "out.tsv")]


# each command reading a file that is missing, of another kind, or holding a
# non-numeric value
BAD_INPUT_FILES = {
    "propagate-model-missing": lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "missing.bin")],
    "propagate-model-report": lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "report.json")],
    "propagate-model-scores": lambda ws: [
        "propagate", "--variant", "xmc", *_stage_args(ws), "--model", str(ws / "logits.tsv")],
    "propagate-logits-missing": lambda ws: [
        "propagate", "--variant", "logit", *_stage_args(ws), "--logits", str(ws / "missing.tsv")],
    "evaluate-scores-missing": lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'missing.tsv'}"],
    "evaluate-scores-non-numeric": lambda ws: [
        "evaluate", "--manifest", str(ws / "m.json"), "--scores", f"m={ws / 'bad.tsv'}"],
    "baseline-edges-missing": lambda ws: [
        "baseline", "--method", "cn", "--graph", str(ws / "union"),
        "--edges", str(ws / "missing.tsv"), "--out", str(ws / "out.tsv")],
    "ingest-edges-missing": lambda ws: [
        "ingest", "--edges", str(ws / "missing.tsv"), "--out", str(ws / "g")],
    "ingest-features-non-numeric": lambda ws: [
        "ingest", "--edges", str(ws / "edges.tsv"), "--features", str(ws / "bad.csv"),
        "--out", str(ws / "g")],
}


@pytest.mark.parametrize("case", list(BAD_INPUT_FILES))
def test_bad_input_file_exits_3(trained, case, capsys):
    ws = trained
    (ws / "report.json").write_text(json.dumps({"rows": [], "seed": 1}, indent=2))
    lines = (ws / "logits.tsv").read_text().splitlines(keepends=True)
    a, b, _ = lines[0].split("\t")
    (ws / "bad.tsv").write_text(f"{a}\t{b}\tnot-a-number\n" + "".join(lines[1:]))
    (ws / "edges.tsv").write_text("a\tb\n")
    (ws / "bad.csv").write_text("a,1.0,2.0\nb,1.0,x\n")
    assert main(BAD_INPUT_FILES[case](ws)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(ws) in err
