import numpy as np
import pytest

from priofd.calibration import calibrate
from priofd.config import build_preset
from priofd.simulate import run_single


@pytest.fixture(scope="session")
def desk_cfg():
    return build_preset("desk", seed=0, scale_fit_runs=100)


@pytest.fixture(scope="session")
def desk_models(desk_cfg):
    return desk_cfg.models()


@pytest.fixture(scope="session")
def small_table(desk_cfg):
    """Threshold artifact from a short calibration; enough samples for the
    sFD percentile and the common dFD cells, meant for plumbing tests."""
    table, _ = calibrate(desk_cfg, runs=150, seed=7)
    return table


@pytest.fixture(scope="session")
def fault_free_traces(desk_cfg, desk_models):
    """Thirty fault-free desk-scale runs."""
    return [run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       desk_cfg.rounds, seed=11, run=r) for r in range(30)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
