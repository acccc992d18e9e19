"""Every config class checks its values when it is constructed, so a config
that exists is valid, also one made by ``dataclasses.replace``."""

import math
from dataclasses import replace

import pytest

from linkbridge.datasets import SyntheticSpec
from linkbridge.distill import DistillConfig
from linkbridge.errors import ConfigError
from linkbridge.evaluation import SuiteConfig
from linkbridge.heuristics import PprConfig
from linkbridge.propagation import DiffusionConfig
from linkbridge.scorer import ScorerConfig

SPEC = dict(n_src=40, n_tar=20, overlap_ratio=0.4, mean_deg_src=4, mean_deg_tar=2,
            feature_dim=3, feature_shift=0.3, seed=1)

# (class, valid fields, one field out of range or not of its type, the message
# it raises)
CASES = {
    "scorer": (ScorerConfig, {}, {"d_trainable": 0}, "d_trainable must be >= 1"),
    "distill": (DistillConfig, {}, {"finetune_batch_size": 0}, "batch sizes must be >= 1"),
    "diffusion": (DiffusionConfig, {}, {"alpha": 1.0}, "alpha must be in"),
    "ppr": (PprConfig, {}, {"iterations": 0}, "iterations must be >= 1"),
    "synthetic": (SyntheticSpec, SPEC, {"n_src": 1}, "need at least 2 nodes per domain"),
    # an integer field takes only an int: not a float, a bool or a string
    "scorer-epochs-float": (ScorerConfig, {}, {"epochs": 2.5}, "epochs must be an integer"),
    "distill-hidden-bool": (DistillConfig, {}, {"hidden": True}, "hidden must be an integer"),
    "diffusion-k-max-str": (DiffusionConfig, {}, {"k_max": "3"}, "k_max must be an integer"),
    "ppr-iterations-float": (PprConfig, {}, {"iterations": 50.0}, "iterations must be an integer"),
    "synthetic-seed-str": (SyntheticSpec, SPEC, {"seed": "1"}, "seed must be an integer"),
    "scorer-d-train-float": (ScorerConfig, {"encoder": "one_hop_mean"}, {"d_trainable": 4.0},
                             "d_trainable must be an integer"),
    # a float field takes an int or a float, not a bool or a string
    "scorer-learning-rate-bool": (ScorerConfig, {}, {"learning_rate": True},
                                  "learning_rate must be a number"),
    "diffusion-alpha-str": (DiffusionConfig, {}, {"alpha": "0.5"}, "alpha must be a number"),
    "synthetic-overlap-bool": (SyntheticSpec, SPEC, {"overlap_ratio": True},
                               "overlap_ratio must be a number"),
    # a str field takes only a string
    "scorer-encoder-list": (ScorerConfig, {}, {"encoder": ["one_hop_mean"]},
                            "encoder must be a string"),
    # a float field takes only a finite number: NaN passes every range check,
    # being a comparison, and an infinity passes the one-sided ones
    "scorer-learning-rate-nan": (ScorerConfig, {}, {"learning_rate": math.nan},
                                 "learning_rate must be finite, got nan"),
    "distill-finetune-lr-inf": (DistillConfig, {}, {"finetune_lr": math.inf},
                                "finetune_lr must be finite, got inf"),
    "diffusion-tol-nan": (DiffusionConfig, {}, {"tol": math.nan}, "tol must be finite, got nan"),
    "ppr-tol-inf": (PprConfig, {}, {"tol": math.inf}, "tol must be finite, got inf"),
    "synthetic-feature-shift-minus-inf": (SyntheticSpec, SPEC, {"feature_shift": -math.inf},
                                          "feature_shift must be finite, got -inf"),
    # the run's own knobs, outside its sub-config sections
    "suite-neg-ratio": (SuiteConfig, {}, {"neg_ratio": -1.0}, "neg_ratio must be positive"),
    "suite-train-frac": (SuiteConfig, {}, {"train_frac_outside": 2.0},
                         "train_frac_outside must be in"),
    "suite-eval-split": (SuiteConfig, {}, {"eval_split": "bogus"}, "eval split must be one of"),
    "suite-k-multipliers": (SuiteConfig, {}, {"k_multipliers": (-1.0,)},
                            "k_multipliers must be a list of positive numbers"),
    "suite-seed-bool": (SuiteConfig, {}, {"seed": True}, "seed must be an integer"),
    "suite-neg-ratio-nan": (SuiteConfig, {}, {"neg_ratio": math.nan},
                            "neg_ratio must be finite, got nan"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_out_of_range_value_raises_at_construction_and_replace(case):
    cls, valid, bad, message = CASES[case]
    with pytest.raises(ConfigError, match=message):
        cls(**(valid | bad))
    config = cls(**valid)
    with pytest.raises(ConfigError, match=message):
        replace(config, **bad)


def test_typed_fields_take_their_own_values():
    """An int is a number, and an int or str field takes its own type."""
    assert PprConfig(teleport=0.5, tol=0).tol == 0
    assert ScorerConfig(learning_rate=1, batch_size=8).learning_rate == 1
    assert ScorerConfig(encoder="one_hop_mean", d_trainable=4).d_trainable == 4
    assert SyntheticSpec(**SPEC | {"overlap_ratio": 1}).overlap_ratio == 1
