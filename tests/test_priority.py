"""Communication priorities as the round engine computes them: the error
predicted two rounds ahead, its quadratic measure, and the saturating 8-bit
quantizer. Engine priorities are read off whole run_single traces, against
the errors the same trace records."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import Fleet
from priofd.errors import ConfigError
from priofd.priority import QUANT_MAX, quantize_batch
from priofd.simulate import run_single

from oracles import ref_priority, ref_quantize


def identity_loop_fleet(*covs, a=1.0):
    """Uncoupled agents with A = a I and B = 0, so the closed loop is a I;
    agent i+1 has noise covariance covs[i] I."""
    n_agents = len(covs)
    return Fleet(a * np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                 np.zeros((n_agents, 2 * n_agents)),
                 [cov * np.eye(2) for cov in covs])


def half_quiet_desk(desk_models):
    """The desk fleet with agents 2 and 5 noise free: their errors stay
    zero while the others' move."""
    cov = desk_models.noise_cov.copy()
    cov[[1, 4]] = 0.0
    return replace(desk_models, noise_cov=cov)


class TestComputePriority:
    def test_zero_error_zero_priority(self):
        trace = run_single(identity_loop_fleet(0.01, 0.0), 1, 1e-4, 20, seed=0, run=0)
        assert trace.errors[1:, 0].any()
        # every error starts at zero, and the noise-free agent's stays so
        assert not trace.errors[0].any() and not trace.errors[:, 1].any()
        for prio in (trace.raw_priorities, trace.priorities):
            assert not prio[0].any() and not prio[:, 1].any()

    def test_euclidean_norm_when_weight_identity(self):
        trace = run_single(identity_loop_fleet(0.01), 1, 1e-4, 30, seed=0,
                           run=0)
        raw, err = trace.raw_priorities[:, 0], trace.errors[:, 0]
        assert np.allclose(raw, np.einsum("kj,kj->k", err, err), rtol=1e-15,
                           atol=0)
        assert trace.priorities[:, 0].tolist() == \
            [ref_quantize(r, 1e-4) for r in raw]
        assert len(set(trace.priorities[1:, 0].tolist())) > 5

    def test_quadratic_homogeneity(self):
        # covariance 4I doubles the noise (both covariance traces are >= 1,
        # so the Cholesky jitter scales too); a lone agent's schedule does
        # not depend on its priorities
        p1 = run_single(identity_loop_fleet(1.0), 1, 1.0, 20, seed=3,
                        run=0).raw_priorities
        p2 = run_single(identity_loop_fleet(4.0), 1, 1.0, 20, seed=3,
                        run=0).raw_priorities
        assert p1[1:].all()
        assert np.allclose(p2, 4 * p1, rtol=1e-12, atol=0)

    def test_positive_outside_weight_kernel(self, desk_cfg, desk_models):
        # identity weight: zero priority exactly when the error is zero
        trace = run_single(half_quiet_desk(desk_models), desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 60, seed=19, run=0)
        nonzero = trace.errors.any(axis=2)
        assert nonzero.any() and not nonzero.all()
        assert ((trace.raw_priorities > 0) == nonzero).all()

    def test_composed_measure_is_closed_loop_quadratic_form(self, desk_models,
                                                           fault_free_traces):
        # predict two steps then weight: equals e' ((A+BF)')^2 (A+BF)^2 e
        trace = fault_free_traces[0]
        for k in range(len(trace.gamma)):
            for i in range(len(desk_models)):
                assert np.isclose(trace.raw_priorities[k, i],
                                  ref_priority(desk_models.A, desk_models.B,
                                               desk_models.F_self,
                                               desk_models.priority_weight,
                                               trace.errors[k, i]),
                                  rtol=1e-12), (k, i)


class TestPredictError:
    def test_zero_stays_zero(self, desk_cfg, desk_models):
        trace = run_single(half_quiet_desk(desk_models), desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 60, seed=19, run=0)
        assert trace.errors[1:, 0].any()
        assert not trace.errors[:, [1, 4]].any()
        assert not trace.raw_priorities[:, [1, 4]].any()

    def test_half_identity(self):
        # A = I/2: a silent error halves each round, and the priority is
        # ||e/4||^2; a tiny scale saturates both priorities, so agent 1
        # wins every slot and agent 2 stays silent
        trace = run_single(identity_loop_fleet(0.01, 0.01, a=0.5), 1, 1e-250, 20, seed=0, run=0)
        assert not trace.gamma[:, 1].any()
        err = trace.errors[:, 1]
        assert np.array_equal(err[1:], 0.5 * err[:-1] + trace.noise[:-1, 1])
        assert np.allclose(trace.raw_priorities[:, 1],
                           np.einsum("kj,kj->k", err, err) / 16, rtol=1e-15,
                           atol=0)

    def test_matches_two_silent_extrapolation_steps(self, desk_models,
                                                    fault_free_traces):
        # oracle: the engine's silent-round error recursion run twice
        # without noise, e(k+2) - Atilde v(k) - v(k+1); the priority at k
        # measures that error
        checked = 0
        for trace in fault_free_traces[:3]:
            g, err, v = trace.gamma, trace.errors, trace.noise
            for k in range(len(g) - 2):
                for i in np.flatnonzero(~g[k] & ~g[k + 1]):
                    a_cl = desk_models.closed_loop
                    e2 = err[k + 2, i] - a_cl @ v[k, i] - v[k + 1, i]
                    assert np.isclose(trace.raw_priorities[k, i], e2 @ e2,
                                      rtol=1e-9, atol=1e-15), (k, i)
                    checked += 1
        assert checked > 1000


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
