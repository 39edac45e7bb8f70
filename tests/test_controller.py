"""Synchronizing state feedback u_i = F_ii x_i + sum_l F_il xhat_l, as the
round engine applies it: the control of agent i reaches the plant through
x_i(k+1) and the shared estimate through xhat_i(k+1). Each test reads whole
run_single traces round by round; shared estimates are states - errors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import AgentModel
from priofd.errors import ConfigError
from priofd.simulate import run_single

from oracles import ref_control


def test_zero_gains_zero_input():
    # B != 0, so any input would move the state: plants take only the
    # noise, estimates only the fresh measurements
    a, b, cov = np.eye(2), np.ones((2, 1)), 0.01 * np.eye(2)
    models = [AgentModel(1, a, b, np.zeros((1, 2)), {2: np.zeros((1, 2))}, cov),
              AgentModel(2, a, b, np.zeros((1, 2)), {}, cov)]
    trace = run_single(models, 1, 1.0, 20, seed=0, run=0)
    x, xhat = trace.states, trace.states - trace.errors
    sent = trace.gamma[:-1, :, None]
    assert sent.any() and not sent.all()
    assert np.allclose(x[1:], x[:-1] + trace.noise[:-1], rtol=0, atol=1e-14)
    assert np.allclose(xhat[1:], np.where(sent, x[:-1], xhat[:-1]), rtol=0,
                       atol=1e-14)


def test_negative_identity_self_gain():
    # u = -x cancels the state in one step, sent or silent: the estimate
    # stays at zero and the state is the last noise draw
    model = AgentModel(1, np.eye(2), np.eye(2), -np.eye(2), {},
                       0.01 * np.eye(2))
    trace = run_single([model], 1, 1.0, 20, seed=0, run=0)
    assert not trace.gamma[:2].any() and trace.gamma[2:].all()
    assert np.array_equal(trace.states, trace.errors)
    assert np.array_equal(trace.states[1:], trace.noise[:-1])


def test_missing_estimate_is_config_error():
    # a gain on an agent outside the fleet (or on itself) has no estimate
    a, b = np.eye(2), np.zeros((2, 1))
    for other in (3, 1):
        models = [AgentModel(1, a, b, np.zeros((1, 2)), {other: np.ones((1, 2))}),
                  AgentModel(2, a, b, np.zeros((1, 2)))]
        with pytest.raises(ConfigError, match="F_cross"):
            run_single(models, 1, 1.0, 1, seed=0, run=0)


def silent_steps(trace):
    """(k, i, xhat(k), xhat_i(k+1)) for every round k in which agent i+1
    stays silent."""
    xhat = trace.states - trace.errors
    for k in range(len(trace.gamma) - 1):
        for i in np.flatnonzero(~trace.gamma[k]):
            yield k, i, xhat[k], xhat[k + 1, i]


def test_matches_direct_matrix_evaluation(desk_models, fault_free_traces):
    # silent round: xhat_i(k+1) = A xhat_i + B u_i with u_i from the gain
    # structure evaluated directly on the shared estimates
    checked = 0
    for k, i, xhat, xhat_next in silent_steps(fault_free_traces[0]):
        model = desk_models[i]
        u = ref_control(model.F_self, model.F_cross, xhat[i], xhat)
        assert np.allclose(xhat_next, model.A @ xhat[i] + model.B @ u,
                           rtol=0, atol=1e-9), (k, i)
        checked += 1
    assert checked > 1000


def test_synchronized_fleet_regulates_like_isolated_loop(desk_models,
                                                         fault_free_traces):
    # the coupling acts on the common state plus the spread of the other
    # estimates around the agent's own, so on identical states u equals
    # (F_self + sum F_cross) x, the gain the DARE saw on the synchronized
    # subspace
    for k, i, xhat, xhat_next in silent_steps(fault_free_traces[1]):
        model = desk_models[i]
        total = model.F_self + sum(model.F_cross.values())
        spread = sum(gain @ (xhat[j - 1] - xhat[i])
                     for j, gain in model.F_cross.items())
        assert np.allclose(xhat_next, (model.A + model.B @ total) @ xhat[i]
                           + model.B @ spread, rtol=0, atol=1e-9), (k, i)


@given(alpha=st.floats(0.6, 4), seed=st.integers(0, 2**16),
       sends=st.booleans())
def test_linearity(alpha, seed, sends):
    # noise covariance alpha^2 I scales the noise by alpha (both covariance
    # traces are >= 1, so the Cholesky jitter scales with them); the
    # schedule is fixed: both agents send with m=2, and agent 1 alone with
    # m=1, since a tiny scale saturates every positive priority; the engine
    # shares one model, so only the cross gains differ between agents
    r = np.random.default_rng(seed)
    a, b, f = (r.normal(size=(3, 3)), r.normal(size=(3, 2)),
               r.normal(size=(2, 3)))
    cross = [r.normal(size=(2, 3)) for _ in range(2)]

    def fleet(cov):
        return [AgentModel(i + 1, a, b, f, {2 - i: f_cross}, cov)
                for i, f_cross in enumerate(cross)]

    m = 2 if sends else 1
    base = run_single(fleet(np.eye(3)), m, 1e-250, 8, seed=seed, run=0)
    scaled = run_single(fleet(alpha ** 2 * np.eye(3)), m, 1e-250, 8,
                        seed=seed, run=0)
    assert np.array_equal(base.gamma, scaled.gamma)
    assert np.allclose(scaled.states - scaled.errors,
                       alpha * (base.states - base.errors),
                       rtol=1e-9, atol=1e-9)
    assert np.allclose(scaled.states, alpha * base.states, rtol=1e-9,
                       atol=1e-9)
