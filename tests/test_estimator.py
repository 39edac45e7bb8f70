"""Shared remote estimates and the estimation error e = x - xhat, as the
round engine keeps them: every agent extrapolates every other agent's state
from the same shared estimate, and a transmitted measurement replaces the
estimate, predicted one step ahead. Each test reads whole run_single
traces; shared estimates are states - errors."""

from dataclasses import replace

import numpy as np

from priofd.dynamics import Fleet
from priofd.scenarios import Event, Scenario, actuator_failure
from priofd.simulate import run_single

from oracles import ref_replay


class TestComputeError:
    def test_zero_when_equal(self):
        # B = 0: the failed plant still equals the model, so the explicit
        # plant path (e = x - xhat) gives the model path's run
        fleet = Fleet(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((1, 2)), [0.01 * np.eye(2)])
        intact = run_single(fleet, 1, 1.0, 20, seed=0, run=0)
        failed = run_single(fleet, 1, 1.0, 20, seed=0, run=0,
                            scenario=actuator_failure((1,), 0))
        assert np.array_equal(failed.gamma, intact.gamma)
        assert np.allclose(failed.errors, intact.errors, rtol=0, atol=1e-14)
        assert np.allclose(failed.states, intact.states, rtol=0, atol=1e-14)

    def test_componentwise(self):
        # agent 1's actuator fails at k=0: its plant runs without input
        # while every estimate assumes one
        fleet = coupled_pair()
        trace = run_single(fleet, 1, 1.0, 30, seed=0, run=0,
                           scenario=actuator_failure((1,), 0))
        x, xhat = trace.states, trace.states - trace.errors
        for k, _, xhat_next, x_next in ref_replay(fleet, trace, 1.0):
            assert np.allclose(xhat[k + 1], xhat_next, rtol=0, atol=1e-14)
            assert np.allclose(x[k + 1, 0],
                               fleet.A @ x[k, 0] + trace.noise[k, 0],
                               rtol=0, atol=1e-14)
            assert np.allclose(x[k + 1, 1], x_next[1], rtol=0, atol=1e-14)
        assert trace.errors[2:, 0].any()


def coupled_pair(noise1=1e-3):
    a = np.array([[1.0, 0.1], [0.0, 0.9]])
    b = np.array([[0.0], [0.2]])
    f_self = np.array([[-0.4, -1.1]])
    f_cross = np.array([[0.05, 0.02]])
    return Fleet(a, b, f_self, np.kron(1 - np.eye(2), f_cross),
                 [noise1 * np.eye(2), 1e-3 * np.eye(2)])


class TestPropagateEstimate:
    def test_fresh_measurement_zero_noise_resets_error(self):
        # agent 1 has no process noise; a disturbance over rounds 0..8
        # leaves it an error, and each measurement it sends once its plant
        # rejoins the model (k > 9) discards the stale estimate: e = 0
        fleet = coupled_pair(noise1=0.0)
        shake = Scenario("shake", [Event(0, "add_disturbance", agents=(1,),
                                         covariance=((1e-3, 0.0), (0.0, 1e-3)),
                                         duration=9)])
        trace = run_single(fleet, 1, 1e-4, 60, seed=0, run=0,
                           scenario=shake)
        sends = np.flatnonzero(trace.gamma[10:-1, 0]) + 10
        assert sends.size and trace.errors[sends[0], 0].any()
        for k in sends:
            assert not trace.errors[k + 1, 0].any()
        for k, _, xhat_next, x_next in ref_replay(fleet, trace, 1e-4):
            if k > 9:
                assert np.allclose(trace.states[k + 1] - trace.errors[k + 1],
                                   xhat_next, rtol=0, atol=1e-14)
                assert np.allclose(trace.states[k + 1], x_next, rtol=0,
                                   atol=1e-14)

    def test_extrapolation_exact_under_zero_noise(self):
        # agent 1 has no process noise and starts at e = 0, so its estimate
        # extrapolates its state exactly while agent 2's noise moves both
        fleet = coupled_pair(noise1=0.0)
        trace = run_single(fleet, 1, 1e-4, 30, seed=0, run=0)
        assert not trace.errors[:, 0].any()
        assert trace.states[1:, 0].any()
        for k, _, xhat_next, x_next in ref_replay(fleet, trace, 1e-4):
            assert np.allclose(trace.states[k + 1, 0], x_next[0], rtol=0,
                               atol=1e-14)
            assert np.allclose(trace.states[k + 1, 0], xhat_next[0], rtol=0,
                               atol=1e-14)

    def test_identity_dynamics_keeps_error(self):
        # A=I, B=0: the closed-loop difference of the extrapolation fixes e,
        # so a silent agent's error only accumulates noise; a tiny scale
        # saturates both priorities and agent 1 wins every slot
        fleet = Fleet(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((2, 4)), [0.01 * np.eye(2)] * 2)
        trace = run_single(fleet, 1, 1e-250, 20, seed=0, run=0)
        assert not trace.gamma[:, 1].any()
        err = trace.errors[:, 1]
        assert np.array_equal(err[1:], err[:-1] + trace.noise[:-1, 1])
        assert np.array_equal(trace.states[:, 1], err)   # estimate stays 0

    def test_received_round_error_equals_noise(self):
        # e(k+1) = v(k) after a communicated round, by substituting the
        # update rule into the plant step
        fleet = coupled_pair()
        trace = run_single(fleet, 1, 1e-4, 30, seed=0, run=0)
        ks, agents = np.nonzero(trace.gamma[:-1])
        assert set(agents) == {0, 1}
        for k, i in zip(ks, agents):
            assert np.array_equal(trace.errors[k + 1, i], trace.noise[k, i])
        for k, _, xhat_next, x_next in ref_replay(fleet, trace, 1e-4):
            for i in np.flatnonzero(trace.gamma[k]):
                assert np.allclose(x_next[i] - xhat_next[i],
                                   trace.noise[k, i], rtol=0, atol=1e-15)


class TestEngineErrorProperties:
    def test_reset_to_injected_noise_bit_exact(self, fault_free_traces):
        for trace in fault_free_traces[:5]:
            gam, err, noise = trace.gamma, trace.errors, trace.noise
            ks, agents = np.nonzero(gam[:-1])
            assert ks.size > 0
            for k, i in zip(ks, agents):
                assert np.array_equal(err[k + 1, i], noise[k, i])

    def test_monotone_information(self, fault_free_traces):
        """Mean ||e||^2 right after a send is smaller than after five
        silent rounds."""
        after_send = []
        after_silence = []
        for trace in fault_free_traces:
            gam = trace.gamma
            err_sq = (trace.errors ** 2).sum(axis=2)
            for i in range(gam.shape[1]):
                col = gam[:, i]
                for k in range(55, len(gam)):
                    if col[k - 1]:
                        after_send.append(err_sq[k, i])
                    if not col[k - 5:k].any():
                        after_silence.append(err_sq[k, i])
        assert len(after_send) > 100 and len(after_silence) > 100
        assert np.mean(after_send) < np.mean(after_silence)

    def test_estimates_shared_single_copy(self, desk_cfg, desk_models):
        # zero noise, zero start: estimates and states stay at equilibrium,
        # which only holds if every agent consumes the same shared estimate
        quiet = replace(desk_models, noise_cov=np.zeros((6, 4, 4)))
        trace = run_single(quiet, desk_cfg.bandwidth, desk_cfg.quant_scale,
                           20, seed=0, run=0)
        assert not trace.states.any()
        assert not trace.errors.any()
