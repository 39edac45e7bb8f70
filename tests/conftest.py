import numpy as np
import pytest

from priofd.calibration import CalibrationConfig, calibrate
from priofd.config import build_preset
from priofd.network import WorldState, run_round
from priofd.simulate import run_single


@pytest.fixture(scope="session")
def desk_cfg():
    return build_preset("desk", seed=0, scale_fit_runs=100)


@pytest.fixture(scope="session")
def desk_models(desk_cfg):
    return desk_cfg.models()


@pytest.fixture(scope="session")
def small_table(desk_cfg, desk_models):
    """Threshold artifact from a short calibration; enough samples for the
    sFD percentile and the common dFD cells, meant for plumbing tests."""
    cal = CalibrationConfig(eta=desk_cfg.eta, d=desk_cfg.d, b=desk_cfg.b,
                            runs=150, run_length=desk_cfg.rounds, seed=7,
                            warmup_discard=desk_cfg.warmup_discard)
    table, _ = calibrate(cal, desk_models, desk_cfg.bandwidth,
                         desk_cfg.quant_scale)
    return table


@pytest.fixture(scope="session")
def fault_free_traces(desk_cfg, desk_models):
    """Thirty fault-free desk-scale runs with full internals retained."""
    return [run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       desk_cfg.rounds, seed=11, run=r, keep_states=True,
                       keep_errors=True, keep_noise=True)
            for r in range(30)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def advance():
    """advance(models, xhat, err, ...) starts a WorldState from shared
    estimates xhat and errors err (both (N, n), so true states are
    xhat + err), lets `senders` transmit in every round, injects `noise`
    ((rounds, N, n), zero when None) and returns the world after `rounds`
    rounds of the engine."""
    def run(models, xhat, err, senders=(), noise=None, rounds=1, scale=1.0):
        world = WorldState(models, 1, scale, rounds, seed=0, run=0)
        world.Xhat = np.array(xhat, dtype=float)
        world.E = np.array(err, dtype=float)
        world.noise = (np.zeros_like(world.noise) if noise is None
                       else np.array(noise, dtype=float))
        for _ in range(rounds):
            world.pipeline[0] = tuple(senders)
            run_round(world)
        return world
    return run
