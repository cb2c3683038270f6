import numpy as np
import pytest

from nfisac import geometry, harness, metrics, verify

# modules whose tests take minutes: the pooled acceptance batches and the
# traced benchmark runs
SLOW_MODULES = ("test_acceptance.py", "test_tracing.py")


def pytest_collection_modifyitems(items):
    """Mark every test of ``SLOW_MODULES`` slow, so that ``-m "not slow"``
    gives the quick suite."""
    for item in items:
        if item.path.name in SLOW_MODULES:
            item.add_marker(pytest.mark.slow)


def desk_config(**overrides):
    from dataclasses import replace

    cfg = harness.apply_profile(harness.ExperimentConfig(), "trend")
    return replace(cfg, **overrides) if overrides else cfg


@pytest.fixture
def scenario():
    """Small desk-scale scenario (N_t=4, N_r=4, K=2, N_u=2)."""
    return harness.build_scenario(desk_config())


@pytest.fixture
def placement(scenario):
    rng = harness.trial_rng(11, 0)
    return harness.initial_placement(scenario, rng)


@pytest.fixture
def channels(scenario, placement):
    return geometry.build_channels(scenario, placement)


@pytest.fixture
def lp_state(scenario, channels):
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    return verify.random_lp_state(scenario, channels, rng)


@pytest.fixture
def zf_state(scenario, channels):
    rng = np.random.Generator(np.random.Philox(key=[5, 1]))
    v = verify._random_unit(rng, scenario.n_t)
    u = verify._random_unit(rng, scenario.n_r)
    return metrics.make_zf_state(channels, v, u, scenario.p_max)
