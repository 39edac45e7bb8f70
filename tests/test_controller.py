"""Synchronizing state feedback u_i = F_ii x_i + sum_l F_il xhat_l, as the
round engine applies it: the control of agent i reaches the plant through
x_i(k+1) and the shared estimate through xhat_i(k+1). Each test reads whole
run_single traces round by round; shared estimates are states - errors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import Fleet
from priofd.errors import ConfigError
from priofd.simulate import run_single

from oracles import ref_control, ref_gains


def test_zero_gains_zero_input():
    # B != 0, so any input would move the state: plants take only the
    # noise, estimates only the fresh measurements
    fleet = Fleet(np.eye(2), np.ones((2, 1)), np.zeros((1, 2)),
                  np.zeros((2, 4)), [0.01 * np.eye(2)] * 2)
    trace = run_single(fleet, 1, 1.0, 20, seed=0, run=0)
    x, xhat = trace.states, trace.states - trace.errors
    sent = trace.gamma[:-1, :, None]
    assert sent.any() and not sent.all()
    assert np.allclose(x[1:], x[:-1] + trace.noise[:-1], rtol=0, atol=1e-14)
    assert np.allclose(xhat[1:], np.where(sent, x[:-1], xhat[:-1]), rtol=0,
                       atol=1e-14)


def test_negative_identity_self_gain():
    # u = -x cancels the state in one step, sent or silent: the estimate
    # stays at zero and the state is the last noise draw
    fleet = Fleet(np.eye(2), np.eye(2), -np.eye(2), np.zeros((2, 2)),
                  [0.01 * np.eye(2)])
    trace = run_single(fleet, 1, 1.0, 20, seed=0, run=0)
    assert not trace.gamma[:2].any() and trace.gamma[2:].all()
    assert np.array_equal(trace.states, trace.errors)
    assert np.array_equal(trace.states[1:], trace.noise[:-1])


def test_missing_estimate_is_config_error():
    # in a fleet of two, a gain on a third agent has no estimate, and a
    # gain of agent 1 on its own estimate is not a cross gain
    a, b, cov = np.eye(2), np.zeros((2, 1)), [np.eye(2)] * 2
    outside, own = np.zeros((2, 6)), np.zeros((2, 4))
    outside[0, 4:] = own[0, :2] = 1.0
    for coupling, what in ((outside, "coupling shape"),
                           (own, r"block \(1, 1\) is nonzero")):
        with pytest.raises(ConfigError, match=what):
            Fleet(a, b, np.zeros((1, 2)), coupling, cov)


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
        gains = ref_gains(desk_models.coupling, i, len(desk_models))
        u = ref_control(desk_models.F_self, gains, xhat[i], xhat)
        assert np.allclose(xhat_next, desk_models.A @ xhat[i]
                           + desk_models.B @ u, rtol=0, atol=1e-9), (k, i)
        checked += 1
    assert checked > 1000


def test_synchronized_fleet_regulates_like_isolated_loop(desk_models,
                                                         fault_free_traces):
    # the coupling acts on the common state plus the spread of the other
    # estimates around the agent's own, so on identical states u equals
    # (F_self + sum F_cross) x, the gain the DARE saw on the synchronized
    # subspace
    a, b = desk_models.A, desk_models.B
    for k, i, xhat, xhat_next in silent_steps(fault_free_traces[1]):
        gains = ref_gains(desk_models.coupling, i, len(desk_models))
        total = desk_models.F_self + sum(gains)
        spread = sum(gain @ (est - xhat[i]) for gain, est in zip(gains, xhat))
        assert np.allclose(xhat_next, (a + b @ total) @ xhat[i] + b @ spread,
                           rtol=0, atol=1e-9), (k, i)


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
    coupling = np.zeros((4, 6))
    coupling[:2, 3:], coupling[2:, :3] = r.normal(size=(2, 2, 3))

    def fleet(cov):
        return Fleet(a, b, f, coupling, [cov] * 2)

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
