import numpy as np
import pytest

from priofd.dynamics import AgentModel, draw_noise_block, noise_stream
from priofd.errors import ConfigError
from priofd.simulate import run_single


def simple_model(a=None, b=None, noise=None, ident=1):
    a = np.eye(2) if a is None else np.asarray(a, float)
    n = a.shape[0]
    b = np.zeros((n, 1)) if b is None else np.asarray(b, float)
    f = np.zeros((b.shape[1], n))
    return AgentModel(ident, a, b, f, {}, noise, None)


class TestStepAgent:
    """The plant step x' = A x + B u + v as the round engine takes it, read
    off whole run_single traces."""

    def test_identity_dynamics(self):
        # A = I and F = 0: the state moves by the noise alone
        model = simple_model(b=[[1.0], [1.0]], noise=0.01 * np.eye(2))
        trace = run_single([model], 1, 1.0, 20, seed=0, run=0)
        assert trace.states.shape == (20, 1, 2)
        assert np.allclose(trace.states[1:],
                           trace.states[:-1] + trace.noise[:-1],
                           rtol=0, atol=1e-14)

    def test_superposition(self):
        # A = I, B = I, F = I: x' = x + u + v with u = x
        model = AgentModel(1, np.eye(2), np.eye(2), np.eye(2), {},
                           0.01 * np.eye(2))
        trace = run_single([model], 1, 1.0, 12, seed=0, run=0)
        assert np.allclose(trace.states[1:],
                           2 * trace.states[:-1] + trace.noise[:-1],
                           rtol=1e-12, atol=1e-14)

    def test_cartpole_equilibrium_is_fixed_point(self, desk_models):
        # without noise nothing leaves the equilibrium at zero
        quiet = [AgentModel(m.id, m.A, m.B, m.F_self, m.F_cross, None,
                            m.priority_weight) for m in desk_models]
        trace = run_single(quiet, 2, 1.0, 20, seed=0, run=0)
        assert not trace.states.any()

    def test_dimension_mismatch(self):
        # the engine shares one model and refuses unequal dimensions
        for other in (simple_model(a=np.eye(3), ident=2),
                      simple_model(b=np.zeros((2, 2)), ident=2)):
            with pytest.raises(ConfigError, match="dimensions"):
                run_single([simple_model(), other], 1, 1.0, 5, seed=0, run=0)


class TestSampleNoise:
    def test_zero_covariance_gives_zero(self):
        model = simple_model(noise=np.zeros((2, 2)))
        block = draw_noise_block(model, noise_stream(0, 0, 1, 0), 5)
        assert np.array_equal(block, np.zeros((5, 2)))

    def test_reference_covariance_recovered(self):
        model = AgentModel(1, np.eye(4), np.zeros((4, 1)), np.zeros((1, 4)),
                           noise_cov=3e-4 * np.eye(4))
        rng = noise_stream(42, 0, 1, 0)
        draws = draw_noise_block(model, rng, 100_000)
        diag = np.var(draws, axis=0)
        assert np.all(np.abs(diag - 3e-4) < 0.1 * 3e-4)

    def test_identical_seeds_identical_sequences(self):
        model = simple_model(noise=0.5 * np.eye(2))
        seq1 = draw_noise_block(model, noise_stream(9, 2, 1, 0), 20)
        seq2 = draw_noise_block(model, noise_stream(9, 2, 1, 0), 20)
        assert np.array_equal(seq1, seq2)

    def test_streams_disjoint_across_keys(self):
        model = simple_model(noise=np.eye(2))
        base = draw_noise_block(model, noise_stream(1, 0, 1, 0), 1)
        for key in ((1, 1, 1, 0), (1, 0, 2, 0), (1, 0, 1, 1), (2, 0, 1, 0)):
            assert not np.array_equal(
                base, draw_noise_block(model, noise_stream(*key), 1))

    def test_block_draw_consumes_same_normal_stream(self):
        # diagonal factor: block rows must equal successive single draws
        model = simple_model(noise=np.diag([4.0, 9.0]))
        block = draw_noise_block(model, noise_stream(3, 1, 1, 0), 8)
        rng = noise_stream(3, 1, 1, 0)
        singles = np.stack([model.noise_chol @ rng.standard_normal(2)
                            for _ in range(8)])
        assert np.array_equal(block, singles)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ConfigError):
            simple_model(noise=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ConfigError):
            simple_model(noise=np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_state_second_moment_stays_bounded(fault_free_traces):
    # stabilizing gains + noise: the Monte Carlo mean of ||x_i(k)||^2 must
    # not drift; its max over the run stays within 10x its k=50 level
    sq = np.mean([np.einsum("kij,kij->ki", t.states, t.states)
                  for t in fault_free_traces], axis=0)
    ratios = sq.max(axis=0) / sq[50]
    assert (ratios <= 10.0).all()


class TestAgentModel:
    def test_inconsistent_gains_rejected(self):
        with pytest.raises(ConfigError):
            AgentModel(1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            AgentModel(1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                       {2: np.zeros((2, 2))})

    def test_default_priority_weight_is_identity(self):
        model = simple_model()
        assert np.array_equal(model.priority_weight, np.eye(2))

    def test_closed_loop_cached(self, desk_cfg):
        model = desk_cfg.models()[0]
        expect = model.A + model.B @ model.F_self
        assert np.array_equal(model.closed_loop, expect)
        assert np.allclose(model.error_pred2, expect @ expect)
