import json

import pytest

from linkbridge.cli import main
from linkbridge.graph import union_graph
from linkbridge.io import save_graph
from linkbridge.selection import Regime, make_split


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
], ids=["missing-file", "json-list", "regimes-int", "methods-int", "k-multipliers-int",
        "regime-list"])
def test_run_bad_config_exits_2(tmp_path, config):
    path = tmp_path / "run.json"
    if config is not None:
        _write_json(path, config)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
