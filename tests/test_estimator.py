"""Shared remote estimates and the estimation error e = x - xhat, as the
round engine keeps them: every agent extrapolates every other agent's state
from the same shared estimate, and a transmitted measurement replaces the
estimate, predicted one step ahead."""

import numpy as np

from priofd.dynamics import AgentModel
from priofd.network import WorldState, run_round
from priofd.scenarios import actuator_failure, apply_events

from oracles import ref_round


def mismatched_world(models, xhat, err):
    """A world whose agent 1 runs on an explicitly simulated plant (zeroed
    actuator), so its error is formed as x - xhat; zero noise."""
    world = WorldState(models, 1, 1.0, 1, seed=0, run=0)
    world.noise = np.zeros_like(world.noise)
    apply_events(world, actuator_failure((1,), 0), 0)
    world.Xhat = np.array(xhat, dtype=float)
    world.E = np.array(err, dtype=float)
    return world


class TestComputeError:
    def test_zero_when_equal(self):
        # B = 0: the failed plant still equals the model, and a state equal
        # to its estimate stays so
        model = AgentModel(1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))
        world = mismatched_world([model], [[1.0, 2.0]], [[0.0, 0.0]])
        run_round(world)
        assert np.array_equal(world.E, [[0.0, 0.0]])
        assert np.array_equal(world.states, [[1.0, 2.0]])

    def test_componentwise(self):
        m1, m2 = coupled_pair()
        xhat = np.array([[0.3, -0.2], [0.1, 0.4]])
        err = np.array([[0.05, 0.1], [0.0, 0.0]])
        world = mismatched_world([m1, m2], xhat, err)
        run_round(world)
        # plant without input versus the estimate that assumes one
        x_next = m1.A @ (xhat[0] + err[0])
        _, xhat_next, _ = ref_round([m1, m2], xhat, xhat + err, (),
                                    np.zeros((2, 2)), 1.0)
        assert np.allclose(world.E[0], x_next - xhat_next[0], rtol=0,
                           atol=1e-15)


def coupled_pair():
    a = np.array([[1.0, 0.1], [0.0, 0.9]])
    b = np.array([[0.0], [0.2]])
    f_self = np.array([[-0.4, -1.1]])
    f_cross = np.array([[0.05, 0.02]])
    m1 = AgentModel(1, a, b, f_self, {2: f_cross}, 1e-3 * np.eye(2))
    m2 = AgentModel(2, a, b, f_self, {1: f_cross}, 1e-3 * np.eye(2))
    return m1, m2


class TestPropagateEstimate:
    def test_fresh_measurement_zero_noise_resets_error(self, advance):
        models = coupled_pair()
        x = np.array([[0.3, -0.2], [0.1, 0.4]])
        xhat = np.array([[9.0, 9.0], [0.1, 0.4]])  # stale, discarded
        world = advance(models, xhat, x - xhat, senders=(1,))
        assert np.array_equal(world.E[0], np.zeros(2))
        _, xhat_next, x_next = ref_round(models, xhat, x, (1,),
                                         np.zeros((2, 2)), 1.0)
        assert np.allclose(world.Xhat[0], xhat_next[0], rtol=0, atol=1e-15)
        assert np.allclose(world.states[0], x_next[0], rtol=0, atol=1e-15)

    def test_extrapolation_exact_under_zero_noise(self, advance):
        models = coupled_pair()
        x = np.array([[0.3, -0.2], [0.1, 0.4]])
        for rounds in range(1, 5):
            world = advance(models, x, np.zeros((2, 2)), rounds=rounds)
            assert np.array_equal(world.E, np.zeros((2, 2)))
            xhat = x
            for _ in range(rounds):
                _, xhat, _ = ref_round(models, xhat, xhat, (),
                                       np.zeros((2, 2)), 1.0)
            assert np.allclose(world.states, xhat, rtol=0, atol=1e-14)

    def test_identity_dynamics_keeps_error(self, advance):
        # A=I, B=0: the closed-loop difference of the extrapolation fixes e
        model = AgentModel(1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))
        world = advance([model], [[0.0, 0.0]], [[1.0, 0.0]])
        assert np.array_equal(world.E, [[1.0, 0.0]])
        assert np.array_equal(world.Xhat, [[0.0, 0.0]])

    def test_received_round_error_equals_noise(self, advance):
        # e(k+1) = v(k) after a communicated round, by substituting the
        # update rule into the plant step
        models = coupled_pair()
        x = np.array([[0.5, 0.1], [-0.2, 0.3]])
        xhat = np.array([[1.0, 1.0], [-0.2, 0.3]])
        v = np.array([[0.013, -0.007], [0.0, 0.0]])
        world = advance(models, xhat, x - xhat, senders=(1,), noise=v[None])
        assert np.array_equal(world.E[0], v[0])
        _, xhat_next, x_next = ref_round(models, xhat, x, (1,), v, 1.0)
        assert np.allclose(x_next[0] - xhat_next[0], v[0], rtol=0, atol=1e-15)


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
            for i in range(gam.shape[1]):
                col = gam[:, i]
                for k in range(55, trace.rounds):
                    if col[k - 1]:
                        after_send.append(trace.err_sq[k, i])
                    if not col[k - 5:k].any():
                        after_silence.append(trace.err_sq[k, i])
        assert len(after_send) > 100 and len(after_silence) > 100
        assert np.mean(after_send) < np.mean(after_silence)

    def test_estimates_shared_single_copy(self, desk_cfg, desk_models):
        # zero noise, zero start: estimates and states stay at equilibrium,
        # which only holds if every agent consumes the same shared estimate
        quiet = [AgentModel(m.id, m.A, m.B, m.F_self, m.F_cross,
                            np.zeros((4, 4)), m.priority_weight)
                 for m in desk_models]
        world = WorldState(quiet, desk_cfg.bandwidth, desk_cfg.quant_scale,
                           20, seed=0, run=0)
        for _ in range(20):
            run_round(world)
        assert np.array_equal(world.Xhat, np.zeros_like(world.Xhat))
        assert np.array_equal(world.E, np.zeros_like(world.E))
