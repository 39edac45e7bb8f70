"""Communication priorities as the round engine computes them: the error
predicted two rounds ahead, its quadratic measure, and the saturating 8-bit
quantizer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import AgentModel
from priofd.errors import ConfigError
from priofd.network import WorldState
from priofd.priority import QUANT_MAX, quantize_batch

from oracles import ref_priority, ref_quantize


def identity_loop_model():
    # A = I, B = 0 makes the closed loop (and its square) the identity
    return AgentModel(1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))


def raw_priorities(models, err):
    world = WorldState(models, 1, 1.0, 1, seed=0, run=0)
    world.E = np.array(err, dtype=float)
    return world.raw_priorities()


class TestComputePriority:
    def test_zero_error_zero_priority(self):
        raw = raw_priorities([identity_loop_model()], [[0.0, 0.0]])
        assert raw.tolist() == [0.0]
        assert quantize_batch(raw, 1.0).tolist() == [0]

    def test_euclidean_norm_when_weight_identity(self):
        raw = raw_priorities([identity_loop_model()], [[3.0, 4.0]])
        assert raw.tolist() == [25.0]
        assert quantize_batch(raw, 1.0).tolist() == [25]

    def test_quadratic_homogeneity(self, rng):
        e = rng.normal(size=(1, 2))
        p1 = raw_priorities([identity_loop_model()], e)
        p2 = raw_priorities([identity_loop_model()], 2 * e)
        assert np.isclose(p2[0], 4 * p1[0])

    def test_positive_outside_weight_kernel(self, desk_models, rng):
        # identity weight: zero priority exactly when the predicted error
        # is zero
        for _ in range(20):
            e = rng.normal(size=(6, 4))
            e[rng.random(6) < 0.3] = 0.0
            raw = raw_priorities(desk_models, e)
            assert ((raw > 0) == e.any(axis=1)).all()

    def test_composed_measure_is_closed_loop_quadratic_form(self, desk_models, rng):
        # predict two steps then weight: equals e' ((A+BF)')^2 (A+BF)^2 e
        e = rng.normal(size=(6, 4))
        raw = raw_priorities(desk_models, e)
        for i, model in enumerate(desk_models):
            assert np.isclose(raw[i], ref_priority(model.A, model.B,
                                                   model.F_self,
                                                   model.priority_weight,
                                                   e[i]), rtol=1e-12)


class TestPredictError:
    def test_zero_stays_zero(self, desk_models, advance):
        assert raw_priorities(desk_models, np.zeros((6, 4))).tolist() == [0.0] * 6
        world = advance(desk_models, np.zeros((6, 4)), np.zeros((6, 4)),
                        rounds=2)
        assert np.array_equal(world.E, np.zeros((6, 4)))

    def test_half_identity(self, advance):
        model = AgentModel(1, 0.5 * np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)))
        assert raw_priorities([model], [[4.0, 0.0]]).tolist() == [1.0]
        world = advance([model], [[0.0, 0.0]], [[4.0, 0.0]], rounds=2)
        assert np.array_equal(world.E, [[1.0, 0.0]])

    def test_matches_two_silent_extrapolation_steps(self, desk_models, rng,
                                                    advance):
        # oracle: run the engine's silent-round error recursion twice
        # without noise; the priority measures that error now
        e = rng.normal(size=(6, 4))
        raw = raw_priorities(desk_models, e)
        world = advance(desk_models, np.zeros((6, 4)), e, rounds=2)
        assert np.allclose(raw, np.einsum("ij,ij->i", world.E, world.E),
                           rtol=1e-12)


class TestQuantize:
    def test_zero(self):
        assert quantize_batch(np.array([0.0, -1.0]), 0.5).tolist() == [0, 0]

    def test_saturation(self):
        assert quantize_batch(np.array([255 * 0.5, 1e30]), 0.5).tolist() == [255, 255]

    def test_floor_semantics(self):
        assert quantize_batch(np.array([3.7]), 1.0).tolist() == [3]

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            quantize_batch(np.array([1.0]), 0.0)

    @given(raw=st.floats(0, 1e9), step=st.floats(1e-6, 1e3))
    def test_monotone_and_bounded(self, raw, step):
        lo, hi = quantize_batch(np.array([raw, raw + step]), 0.37).tolist()
        assert 0 <= lo <= hi <= QUANT_MAX

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=16))
    def test_argsort_never_inverted(self, raws):
        qs = quantize_batch(np.array(raws), 3.1).tolist()
        for i in range(len(raws)):
            for j in range(len(raws)):
                if qs[i] > qs[j]:
                    assert raws[i] > raws[j]

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=32))
    def test_batch_matches_scalar(self, raws):
        scale = 0.77
        batch = quantize_batch(np.array(raws), scale)
        assert batch.tolist() == [ref_quantize(r, scale) for r in raws]
