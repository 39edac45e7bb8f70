"""Synchronizing state feedback u_i = F_ii x_i + sum_l F_il xhat_l, as the
round engine applies it: the control of agent i reaches the plant through
x_i(k+1) and the shared estimate through xhat_i(k+1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import AgentModel
from priofd.errors import ConfigError
from priofd.network import WorldState

from oracles import ref_control


def test_zero_gains_zero_input(advance):
    # B != 0, so any input would move the state
    a, b = np.eye(2), np.ones((2, 1))
    models = [AgentModel(1, a, b, np.zeros((1, 2)), {2: np.zeros((1, 2))}),
              AgentModel(2, a, b, np.zeros((1, 2)))]
    world = advance(models, [[1.0, 1.0], [1.0, 1.0]],
                    [[2.0, -5.0], [0.0, 0.0]])
    assert np.array_equal(world.states[0], [3.0, -4.0])
    assert np.array_equal(world.Xhat[0], [1.0, 1.0])


def test_negative_identity_self_gain(advance):
    # u = -x cancels the state in one step, estimate and error alike
    model = AgentModel(1, np.eye(2), np.eye(2), -np.eye(2))
    for senders in ((), (1,)):
        world = advance([model], [[2.0, -1.0]], [[0.5, 0.25]], senders)
        assert np.array_equal(world.Xhat, np.zeros((1, 2)))
        assert np.array_equal(world.states, np.zeros((1, 2)))


def test_missing_estimate_is_config_error():
    # a gain on an agent outside the fleet (or on itself) has no estimate
    a, b = np.eye(2), np.zeros((2, 1))
    for other in (3, 1):
        models = [AgentModel(1, a, b, np.zeros((1, 2)), {other: np.ones((1, 2))}),
                  AgentModel(2, a, b, np.zeros((1, 2)))]
        with pytest.raises(ConfigError, match="F_cross"):
            WorldState(models, 1, 1.0, 1, seed=0, run=0)


def test_matches_direct_matrix_evaluation(rng, desk_models, advance):
    # silent round, e = 0: xhat_i(k+1) = A xhat_i + B u_i with u_i from the
    # gain structure evaluated directly
    xhat = rng.normal(size=(6, 4))
    world = advance(desk_models, xhat, np.zeros((6, 4)))
    for i, model in enumerate(desk_models):
        u = ref_control(model.F_self, model.F_cross, xhat[i], xhat)
        assert np.allclose(world.Xhat[i], model.A @ xhat[i] + model.B @ u,
                           rtol=0, atol=1e-12)


def test_synchronized_fleet_regulates_like_isolated_loop(desk_models, advance):
    # identical states everywhere: the coupling acts on the common state,
    # so u equals (F_self + sum F_cross) x, the gain the DARE saw on the
    # synchronized subspace
    x = np.array([0.2, -0.1, 0.05, 0.3])
    world = advance(desk_models, np.tile(x, (6, 1)), np.zeros((6, 4)))
    for i, model in enumerate(desk_models):
        total = model.F_self + sum(model.F_cross.values())
        assert np.allclose(world.states[i], (model.A + model.B @ total) @ x,
                           atol=1e-12)


@given(alpha=st.floats(-4, 4, allow_nan=False),
       seed=st.integers(0, 2**16), sends=st.booleans())
def test_linearity(alpha, seed, sends, advance):
    r = np.random.default_rng(seed)
    a = r.normal(size=(3, 3))
    models = [AgentModel(1, a, r.normal(size=(3, 2)), r.normal(size=(2, 3)),
                         {2: r.normal(size=(2, 3))}),
              AgentModel(2, a, r.normal(size=(3, 2)), r.normal(size=(2, 3)),
                         {1: r.normal(size=(2, 3))})]
    xhat, err = r.normal(size=(2, 3)), r.normal(size=(2, 3))
    senders = (1,) if sends else ()
    base = advance(models, xhat, err, senders)
    scaled = advance(models, alpha * xhat, alpha * err, senders)
    assert np.allclose(scaled.Xhat, alpha * base.Xhat, rtol=1e-9, atol=1e-9)
    assert np.allclose(scaled.states, alpha * base.states, rtol=1e-9, atol=1e-9)
