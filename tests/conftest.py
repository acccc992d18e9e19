import numpy as np
import pytest

from linkbridge.datasets import SyntheticSpec, generate_synthetic
from linkbridge.graph import build_graph


@pytest.fixture
def triangle():
    return build_graph([("a", "b"), ("b", "c"), ("a", "c")])


@pytest.fixture
def path4():
    # a - b - c - d
    return build_graph([("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture(scope="session")
def small_spec():
    """The spec of ``small_pair``."""
    return SyntheticSpec(
        n_src=120,
        n_tar=60,
        overlap_ratio=0.4,
        mean_deg_src=6,
        mean_deg_tar=3,
        feature_dim=4,
        feature_shift=0.3,
        seed=2,
    )


@pytest.fixture(scope="session")
def small_pair(small_spec):
    """Deterministic small source/target pair with features and overlap."""
    src, tar, heldout = generate_synthetic(small_spec)
    return src, tar, heldout


@pytest.fixture(scope="session")
def medium_pair():
    """Bigger pair with planted transferable structure for regime tests."""
    spec = SyntheticSpec(
        n_src=600,
        n_tar=260,
        overlap_ratio=0.35,
        mean_deg_src=8,
        mean_deg_tar=3,
        feature_dim=8,
        feature_shift=0.4,
        seed=7,
        feature_noise=1.0,
        n_communities=8,
    )
    src, tar, heldout = generate_synthetic(spec)
    return src, tar, heldout


@pytest.fixture
def rng():
    return np.random.default_rng(0)
