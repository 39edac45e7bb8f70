from dataclasses import replace

import numpy as np
import pytest

from priofd.dynamics import Fleet, draw_noise_block, noise_stream
from priofd.errors import ConfigError
from priofd.simulate import run_single


def lone_agent(a=None, b=None, noise=None):
    """A fleet of one uncoupled agent with zero self gain."""
    a = np.eye(2) if a is None else np.asarray(a, float)
    n = a.shape[0]
    b = np.zeros((n, 1)) if b is None else np.asarray(b, float)
    noise = np.zeros((n, n)) if noise is None else np.asarray(noise, float)
    return Fleet(a, b, np.zeros((b.shape[1], n)),
                 np.zeros((b.shape[1], n)), noise[None])


class TestStepAgent:
    """The plant step x' = A x + B u + v as the round engine takes it, read
    off whole run_single traces."""

    def test_identity_dynamics(self):
        # A = I and F = 0: the state moves by the noise alone
        fleet = lone_agent(b=[[1.0], [1.0]], noise=0.01 * np.eye(2))
        trace = run_single(fleet, 1, 1.0, 20, seed=0, run=0)
        assert trace.states.shape == (20, 1, 2)
        assert np.allclose(trace.states[1:],
                           trace.states[:-1] + trace.noise[:-1],
                           rtol=0, atol=1e-14)

    def test_superposition(self):
        # A = I, B = I, F = I: x' = x + u + v with u = x
        fleet = Fleet(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)),
                      [0.01 * np.eye(2)])
        trace = run_single(fleet, 1, 1.0, 12, seed=0, run=0)
        assert np.allclose(trace.states[1:],
                           2 * trace.states[:-1] + trace.noise[:-1],
                           rtol=1e-12, atol=1e-14)

    def test_cartpole_equilibrium_is_fixed_point(self, desk_models):
        # without noise nothing leaves the equilibrium at zero
        quiet = replace(desk_models, noise_cov=0 * desk_models.noise_cov)
        trace = run_single(quiet, 2, 1.0, 20, seed=0, run=0)
        assert not trace.states.any()

    def test_dimension_mismatch(self):
        # the fleet refuses a plant or noise of inconsistent shape: two
        # agents with n = 2 and m = 1, each case breaking one shape
        a, b, f = np.eye(2), np.zeros((2, 1)), np.zeros((1, 2))
        c, cov = np.zeros((2, 4)), [np.eye(2)] * 2
        for args, what in (((np.zeros((2, 3)), b, f, c, cov), "A must be"),
                           ((a, np.zeros((3, 1)), f, c, cov), "B shape"),
                           ((a, b, f, c, np.eye(2)), "noise_cov shape"),
                           ((a, b, f, c, [np.eye(3)] * 2), "noise_cov shape"),
                           ((a, b, f, c, np.zeros((0, 2, 2))),
                            "noise_cov shape")):
            with pytest.raises(ConfigError, match=what):
                Fleet(*args)


class TestSampleNoise:
    def test_zero_covariance_gives_zero(self):
        chol = lone_agent(noise=np.zeros((2, 2))).noise_chol[0]
        block = draw_noise_block(chol, noise_stream(0, 0, 1, 0), 5)
        assert np.array_equal(block, np.zeros((5, 2)))

    def test_reference_covariance_recovered(self):
        chol = lone_agent(np.eye(4), noise=3e-4 * np.eye(4)).noise_chol[0]
        rng = noise_stream(42, 0, 1, 0)
        draws = draw_noise_block(chol, rng, 100_000)
        diag = np.var(draws, axis=0)
        assert np.all(np.abs(diag - 3e-4) < 0.1 * 3e-4)

    def test_identical_seeds_identical_sequences(self):
        chol = lone_agent(noise=0.5 * np.eye(2)).noise_chol[0]
        seq1 = draw_noise_block(chol, noise_stream(9, 2, 1, 0), 20)
        seq2 = draw_noise_block(chol, noise_stream(9, 2, 1, 0), 20)
        assert np.array_equal(seq1, seq2)

    def test_streams_disjoint_across_keys(self):
        chol = lone_agent(noise=np.eye(2)).noise_chol[0]
        base = draw_noise_block(chol, noise_stream(1, 0, 1, 0), 1)
        for key in ((1, 1, 1, 0), (1, 0, 2, 0), (1, 0, 1, 1), (2, 0, 1, 0)):
            assert not np.array_equal(
                base, draw_noise_block(chol, noise_stream(*key), 1))

    def test_block_draw_consumes_same_normal_stream(self):
        # diagonal factor: block rows must equal successive single draws
        chol = lone_agent(noise=np.diag([4.0, 9.0])).noise_chol[0]
        block = draw_noise_block(chol, noise_stream(3, 1, 1, 0), 8)
        rng = noise_stream(3, 1, 1, 0)
        singles = np.stack([chol @ rng.standard_normal(2) for _ in range(8)])
        assert np.array_equal(block, singles)

    def test_non_psd_covariance_rejected(self):
        # an indefinite or asymmetric covariance of agent 2 of 3 is refused
        # and named
        ok = 0.01 * np.eye(2)
        for bad, why in ((np.diag([1.0, -1.0]), "positive semidefinite"),
                         (np.array([[1.0, 0.5], [0.2, 1.0]]), "symmetric")):
            with pytest.raises(ConfigError, match=f"agent 2 noise_cov .*{why}"):
                Fleet(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((3, 6)), [ok, bad, ok])


def test_state_second_moment_stays_bounded(fault_free_traces):
    # stabilizing gains + noise: the Monte Carlo mean of ||x_i(k)||^2 must
    # not drift; its max over the run stays within 10x its k=50 level
    sq = np.mean([np.einsum("kij,kij->ki", t.states, t.states)
                  for t in fault_free_traces], axis=0)
    ratios = sq.max(axis=0) / sq[50]
    assert (ratios <= 10.0).all()


class TestAgentModel:
    """The agents' model, dynamics.Fleet."""

    def test_inconsistent_gains_rejected(self):
        # a self gain of the wrong shape, and a coupling in which agent 2
        # of 2 is given a gain on its own estimate
        a, b, cov = np.eye(2), np.zeros((2, 1)), [np.eye(2)] * 2
        with pytest.raises(ConfigError, match="F_self shape"):
            Fleet(a, b, np.zeros((1, 3)), np.zeros((2, 4)), cov)
        own = np.zeros((2, 4))
        own[1, 3] = 0.5
        with pytest.raises(ConfigError, match=r"block \(2, 2\) is nonzero"):
            Fleet(a, b, np.zeros((1, 2)), own, cov)

    def test_default_priority_weight_is_identity(self):
        assert np.array_equal(lone_agent().priority_weight, np.eye(2))

    def test_closed_loop_cached(self, desk_cfg):
        fleet = desk_cfg.models()
        assert len(fleet) == desk_cfg.n_agents
        expect = fleet.A + fleet.B @ fleet.F_self
        assert np.array_equal(fleet.closed_loop, expect)
        assert np.allclose(fleet.error_pred2, expect @ expect)