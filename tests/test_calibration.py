import logging
import math
import pickle
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from priofd.calibration import (CalibrationConfig, SampleBank, calibrate,
                                dfd_entries, fit_quantization_scale,
                                nearest_rank, write_calibration_report)
from priofd.config import SystemConfig
from priofd.errors import CalibrationError, ConfigError
from priofd.priority import (QUANT_MAX, SCALE_FIT_PERCENTILE,
                             SCALE_HEADROOM_TARGET, quantize_batch)
from priofd.simulate import chunks, run_single

from oracles import ExactToy, ToyLaw, brute_window_periods

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hist_of(samples, top=2551):
    return np.bincount(np.asarray(samples, dtype=np.int64), minlength=top)


class TestNearestRank:
    def test_order_statistic_definition(self):
        # 1..1000 at the 99th percentile: the 990th smallest
        assert nearest_rank(hist_of(range(1, 1001), top=1100), 0.99) == 990.0

    def test_degenerate_distribution(self):
        h = hist_of([37] * 500, top=100)
        assert nearest_rank(h, 0.99) == 37.0
        # strict ">" then never alarms on the calibration data itself
        assert not (37 > nearest_rank(h, 0.99))

    def test_extreme_levels(self):
        h = hist_of([1, 2, 3], top=10)
        assert nearest_rank(h, 0.0001) == 1.0
        assert nearest_rank(h, 0.9999) == 3.0

    def test_array_of_levels(self):
        h = hist_of(range(1, 1001), top=1100)
        assert type(nearest_rank(h, 0.99)) is float
        assert nearest_rank(h, np.array([0.0001, 0.5, 0.99])).tolist() == \
            [1.0, 500.0, 990.0]

    def test_empty_refused(self):
        with pytest.raises(CalibrationError):
            nearest_rank(np.zeros(5, dtype=np.int64), 0.5)


class TestConfigValidation:
    def test_bad_eta(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(eta=0.0)

    def test_run_too_short(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(run_length=55, warmup_discard=50, d=10)


class TestSampleBank:
    def test_all_communicating_collects_single_priorities(self):
        bank = SampleBank(d=4, b=6)
        rounds, q = 30, np.arange(30, dtype=np.int64).reshape(30, 1) % 7
        gamma = np.ones((rounds, 1), dtype=bool)
        bank.add_trace(gamma, q, start_k=10)
        counts = bank.cell_counts()
        assert counts[0, 0, 0] + counts[0, 0, 1] == bank.dfd_count
        # every period is one fresh round: the (1,1) cells hold exactly the
        # single quantized priorities of the window members
        (t1, t2, _), hists = bank.observed()
        collected = np.repeat(np.arange(hists.shape[1]),
                              hists[(t1 == 0) & (t2 == 0)].sum(axis=0))
        expect = np.concatenate([q[k - 3:k + 1, 0] for k in range(10, rounds)])
        assert sorted(collected) == sorted(expect)

    def test_window_sums_pooled(self):
        bank = SampleBank(d=3, b=4)
        q = np.array([[1], [2], [3], [4], [5]], dtype=np.int64)
        gamma = np.zeros((5, 1), dtype=bool)
        bank.add_trace(gamma, q, start_k=0)
        # windows end at k=2,3,4: sums 6, 9, 12
        assert bank.sfd_count == 3
        assert [s for s in (6, 9, 12) if bank.sfd_hist[s]] == [6, 9, 12]


def brute_bank(gamma, q, d, b, start_k):
    """Period samples of one trace from the brute-force partitioner:
    {(T1, T2, a, sum): count}; capped periods (T2 > b) are not collected."""
    return Counter((t1, t2, a, s) for i in range(gamma.shape[1])
                   for _, t1, t2, _, a, s in brute_window_periods(
                       gamma[:, i].tolist(), q[:, i], d, b, start_k)
                   if t2 <= b)


def assert_bank_matches_brute(gamma, q, d, b, start_k):
    bank = SampleBank(d, b)
    bank.add_trace(gamma, q, start_k)
    want_hist = brute_bank(gamma, q, d, b, max(start_k, d - 1))
    cells, hists = bank.observed()
    assert hists.sum(axis=1).all()          # a row only for an observed cell
    t1, t2, a = (c.tolist() for c in cells)
    row, s = np.nonzero(hists)
    got_hist = {(t1[r] + 1, t2[r] + 1, a[r], v): n for r, v, n in zip(
        row.tolist(), s.tolist(), hists[row, s].tolist())}
    assert got_hist == dict(want_hist)


def assert_banks_equal(got, want):
    """Equal window-sum histograms, and the same observed cells with the
    same period-sum histograms."""
    assert np.array_equal(got.sfd_hist, want.sfd_hist)
    (got_cells, got_hists), (want_cells, want_hists) = (
        got.observed(), want.observed())
    assert np.array_equal(got_cells, want_cells)
    assert np.array_equal(got_hists, want_hists)
    assert np.array_equal(got.cell_counts(), want.cell_counts())
    assert got.dfd_count == want.dfd_count


def random_trace(rng, rounds, density):
    gamma = rng.random((rounds, 3)) < density
    q = rng.integers(0, 256, size=(rounds, 3)).astype(np.int16)
    return gamma, q


class TestAddTraceOracle:
    def test_desk_runs(self, desk_cfg, fault_free_traces):
        for trace in fault_free_traces[:5]:
            assert_bank_matches_brute(trace.gamma, trace.priorities,
                                      desk_cfg.d, desk_cfg.b,
                                      desk_cfg.warmup_discard)

    @given(d=st.integers(1, 12), b=st.integers(1, 15),
           rounds=st.integers(1, 50), density=st.floats(0.0, 1.0),
           start_k=st.integers(0, 50), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_random_schedules(self, d, b, rounds, density, start_k, seed):
        rng = np.random.default_rng(seed)
        gamma, q = random_trace(rng, rounds, density)
        assert_bank_matches_brute(gamma, q, d, b, start_k)

    @given(d=st.integers(1, 8), b=st.integers(1, 10),
           rounds=st.integers(1, 40), density=st.floats(0.0, 1.0),
           start_k=st.integers(0, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_column_by_column(self, d, b, rounds, density,
                                              start_k, seed):
        # one add_trace lays out every agent of a run at once; the bank
        # equals one filled an agent at a time
        gamma, q = random_trace(np.random.default_rng(seed), rounds, density)
        whole, by_column = SampleBank(d, b), SampleBank(d, b)
        whole.add_trace(gamma, q, start_k)
        for c in range(gamma.shape[1]):
            by_column.add_trace(gamma[:, c:c + 1], q[:, c:c + 1], start_k)
        assert_banks_equal(whole, by_column)


def check_merge(d, b, trace_a, trace_b, start_k):
    """The bank of traces A then B, cell for cell, is bank(A) merged with
    bank(B), in either order; returns the cells only B observes."""
    both, bank_a, bank_b = (SampleBank(d, b) for _ in range(3))
    for bank, traces in ((both, (trace_a, trace_b)), (bank_a, (trace_a,)),
                         (bank_b, (trace_b,))):
        for gamma, q in traces:
            bank.add_trace(gamma, q, start_k)
    only_b = (bank_b.cell_counts() > 0) & (bank_a.cell_counts() == 0)
    assert_banks_equal(SampleBank(d, b).merge(bank_a).merge(bank_b), both)
    assert_banks_equal(SampleBank(d, b).merge(bank_b).merge(bank_a), both)
    assert_banks_equal(bank_a.merge(bank_b), both)
    return only_b


class TestMerge:
    @given(d=st.integers(1, 8), b=st.integers(1, 10),
           rounds=st.integers(1, 60), density_a=st.floats(0.0, 1.0),
           density_b=st.floats(0.0, 1.0), start_k=st.integers(0, 30),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_one_bank(self, d, b, rounds, density_a, density_b,
                                   start_k, seed):
        rng = np.random.default_rng(seed)
        check_merge(d, b, random_trace(rng, rounds, density_a),
                    random_trace(rng, rounds, density_b), start_k)

    def test_cells_only_b_observes(self, rng):
        # A communicates every round, so it sees only (1, 1) cells
        only_b = check_merge(3, 6, random_trace(rng, 40, 1.0),
                             random_trace(rng, 40, 0.2), 5)
        assert only_b.sum() > 2 and not only_b[0, 0].any()

    def test_rows_double_and_pickle_without_spares(self):
        # three cells, one at a time: capacity 1, 2, then 4 rows; a pickled
        # bank carries only its 3 used rows, and still grows and adds up
        def one_cell(bank, t1):
            bank.add_sums(np.array([t1]), np.array([t1]), np.array([4]),
                          np.array([t1 % 2]), np.array([10 * t1]))
        bank = SampleBank(3, 6)
        for t1 in (1, 2, 3):
            one_cell(bank, t1)
        assert len(bank.rows) == 4
        copy = pickle.loads(pickle.dumps(bank))
        assert len(copy.rows) == 3
        assert_banks_equal(copy, bank)
        for b in (bank, copy):
            one_cell(b, 4)
            one_cell(b, 2)
        assert_banks_equal(copy, bank)
        assert bank.cell_counts()[1, 3, 0] == 2

    def test_mismatched_banks_refused(self):
        with pytest.raises(ConfigError, match="merge"):
            SampleBank(3, 4).merge(SampleBank(3, 5))


class TestCalibrateSfd:
    def test_refuses_thin_samples(self, desk_cfg):
        # 1 run gives 6 * 250 window sums; the 99.9th percentile needs 1e5
        with pytest.raises(CalibrationError, match="needs at least 100000"):
            calibrate(replace(desk_cfg, eta=0.001), runs=1, seed=1)

    def test_deterministic(self, desk_cfg):
        cfg = replace(desk_cfg, eta=0.05, d=5, b=10, rounds=120)
        a, bank = calibrate(cfg, runs=20, seed=3)
        b, _ = calibrate(cfg, runs=20, seed=3)
        assert a.sfd_kappa == b.sfd_kappa
        assert np.array_equal(a.entries, b.entries, equal_nan=True)
        # the table is bound to the config it was calibrated from
        assert (a.eta, a.d, a.b, a.m, a.n_agents, a.scale, a.seed) == \
            (0.05, 5, 10, cfg.bandwidth, cfg.n_agents, cfg.quant_scale, 3)
        assert (bank.d, bank.b, a.sfd_samples, a.dfd_samples) == \
            (5, 10, bank.sfd_count, bank.dfd_count)

    def test_invalid_config_refused(self, desk_cfg):
        with pytest.raises(ConfigError, match="rounds=55 is shorter"):
            calibrate(replace(desk_cfg, rounds=55), runs=1, seed=1)
        with pytest.raises(ConfigError, match="warmup_discard must be >= 0"):
            calibrate(replace(desk_cfg, warmup_discard=-1), runs=1, seed=1)
        for runs in (0, -3):
            with pytest.raises(ConfigError, match=f"runs must be >= 1, got {runs}"):
                calibrate(desk_cfg, runs=runs, seed=1)


class TestDfdEntries:
    def test_unobserved_cells_infinite(self):
        cfg = CalibrationConfig(eta=0.1, d=3, b=4, runs=1, run_length=60)
        bank = SampleBank(d=3, b=4)
        gamma = np.zeros((60, 1), dtype=bool)
        gamma[::2, 0] = True
        q = np.ones((60, 1), dtype=np.int64)
        bank.add_trace(gamma, q, start_k=10)
        entries = dfd_entries(cfg, bank)
        assert np.isinf(entries[3, 3, 0, 0])            # never seen
        assert np.isnan(entries[2, 0, 0, 0])            # T1 > T2: invalid
        observed = bank.cell_counts() > 0
        for t1, t2, a in zip(*np.nonzero(observed)):
            n = bank.cell_counts()[t1, t2, a]
            if n >= 20 * 1 / 0.1:
                assert np.isfinite(entries[t1, t2, 0, a])

    def test_toy_thresholds_match_exact_quantiles(self, rng):
        # empirical nearest-rank vs exhaustive enumeration of the same
        # process, within one atom of the discrete sum distribution
        d = b = 4
        eta = 0.1
        law = ToyLaw()
        pairs = list(law.joint.items())
        probs = np.array([float(p) for _, p in pairs])
        length, traces = 60, 400
        bank = SampleBank(d=d, b=b)
        for _ in range(traces):
            draws = rng.choice(len(pairs), size=length, p=probs)
            q = np.array([[pairs[j][0][0]] for j in draws], dtype=np.int64)
            gamma = np.array([[bool(pairs[j][0][1])] for j in draws])
            bank.add_trace(gamma, q, start_k=2 * (d + b))
        cfg = CalibrationConfig(eta=eta, d=d, b=b, runs=traces,
                                run_length=length, warmup_discard=2 * (d + b))
        entries = dfd_entries(cfg, bank)

        exact = ExactToy(length=d + b + 1, d=d, b=b, law=law)
        pooled = {}
        for (t1, t2, a, h), dist in exact.signature_measure().items():
            cell = pooled.setdefault((t1, t2, a), {})
            for s, p in dist.items():
                cell[s] = cell.get(s, Fraction(0)) + p
        counts = bank.cell_counts()
        checked = 0
        for (t1, t2, a), dist in pooled.items():
            n = int(counts[t1 - 1, t2 - 1, a])
            for h in (1, 2):
                if n < 3000:                # only well-sampled cells
                    continue
                level = Fraction(eta) / h
                total = sum(dist.values())
                cdf = Fraction(0)
                for c in sorted(dist):
                    cdf += dist[c]
                    if total - cdf <= level * total:
                        exact_kappa = c
                        break
                got = float(entries[t1 - 1, t2 - 1, h - 1, a])
                assert abs(got - exact_kappa) <= 1, \
                    f"cell {(t1, t2, a, h)}: {got} vs {exact_kappa}"
                checked += 1
        assert checked >= 4

    @given(d=st.integers(1, 4), b=st.integers(1, 5),
           eta=st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_banks_match_sorted_samples(self, caplog, d, b, eta, seed):
        """Every entry of a bank filled directly with random counts is the
        nearest-rank value of its cell's sorted samples, +inf below the
        20*H/eta guard and NaN exactly where T1 > T2; the logged counts and
        the coverage report agree with direct scans of the same samples."""
        rng = np.random.default_rng(seed)
        bank = SampleBank(d, b)
        span = min(40, QUANT_MAX * d + 1)
        samples = {}
        for t1 in range(1, b + 1):
            for t2 in range(t1, b + 1):
                for a in (0, 1):
                    guard = math.ceil(20 * int(rng.integers(1, d + 1)) / eta)
                    n = int(rng.choice([0, guard - 1, guard, guard + 7,
                                        rng.integers(1, 3 * guard)]))
                    vals = sorted(rng.integers(0, span, n).tolist())
                    samples[t1, t2, a] = vals
        window = np.repeat(np.arange(span), rng.integers(0, 5, span))
        # the period sums in a random order, binned in two calls
        sigs = np.array([(*cell, v) for cell, vals in samples.items()
                         for v in vals], dtype=np.int64).reshape(-1, 4)
        sigs = sigs[rng.permutation(len(sigs))]
        cut = int(rng.integers(0, len(sigs) + 1))
        bank.add_sums(window, *sigs[:cut].T)
        bank.add_sums(window[:0], *sigs[cut:].T)
        assert np.array_equal(bank.sfd_hist[:span], np.bincount(
            window, minlength=span))

        caplog.clear()
        with caplog.at_level(logging.INFO, logger="priofd.calibration"):
            entries = dfd_entries(CalibrationConfig(eta=eta, d=d, b=b), bank)

        want = np.full((b, b, d, 2), np.nan)
        for (t1, t2, a), vals in samples.items():
            n = len(vals)
            for h in range(1, d + 1):
                if n < 20 * h / eta:
                    want[t1 - 1, t2 - 1, h - 1, a] = math.inf
                else:
                    rank = min(max(math.ceil((1 - eta / h) * n), 1), n)
                    want[t1 - 1, t2 - 1, h - 1, a] = vals[rank - 1]
        assert np.array_equal(entries, want, equal_nan=True)

        sparse = sum(1 for (t1, t2, a), vals in samples.items() if vals
                     for h in range(1, d + 1) if len(vals) < 20 * h / eta)
        slices = 0
        for t1 in range(b):
            for a in (0, 1):
                for h in range(d):
                    col = [x for x in want[t1, :, h, a] if math.isfinite(x)]
                    slices += any(y < x for x, y in zip(col, col[1:]))
        logged = caplog.text
        assert (f"{sparse} (cell, H) combinations undersampled" in logged
                if sparse else "undersampled" not in logged)
        assert (f"monotonicity sanity: {slices} " in logged
                if slices else "monotonicity sanity" not in logged)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.csv"
            write_calibration_report(bank, path)
            rows = path.read_text().splitlines()
        assert rows == ["T1;T2;a;count", f"0;0;0;{bank.sfd_count}"] + [
            f"{t1};{t2};{a};{len(vals)}"
            for (t1, t2, a), vals in sorted(samples.items()) if vals]


def raw_pool(models, m, runs, rounds, seed, warmup):
    """The sorted raw priorities at rounds >= warmup of run_single with
    scale None, pooled over runs 0..runs-1."""
    return np.sort(np.concatenate([
        run_single(models, m, None, rounds, seed=seed, run=r)
        .priorities[warmup:].ravel() for r in range(runs)]))


class TestScaleFit:
    def test_deterministic_and_headroom(self, desk_cfg, desk_models):
        s1 = fit_quantization_scale(desk_models, desk_cfg.bandwidth, runs=30,
                                    run_length=200, seed=5, warmup_discard=50)
        s2 = fit_quantization_scale(desk_models, desk_cfg.bandwidth, runs=30,
                                    run_length=200, seed=5, warmup_discard=50)
        assert s1 == s2 > 0
        # the fitted percentile itself lands at the headroom target
        samples = raw_pool(desk_models, desk_cfg.bandwidth, 30, 200, 5, 50)
        p999 = samples[int(np.ceil(SCALE_FIT_PERCENTILE * samples.size)) - 1]
        assert quantize_batch(p999, s1) in (199, 200)

    def test_fit_across_chunks(self):
        # 40 full-scale runs are three chunks of at most 19; the fit pools
        # all of them and sets the scale from their nearest rank
        cfg = SystemConfig.load(CONFIGS / "cartpole_full.json")
        runs, models = 40, cfg.models()
        assert len(chunks(runs, cfg.rounds * cfg.n_agents)) >= 3
        scale = fit_quantization_scale(models, cfg.bandwidth, runs=runs,
                                       run_length=cfg.rounds, seed=3,
                                       warmup_discard=cfg.warmup_discard)
        samples = raw_pool(models, cfg.bandwidth, runs, cfg.rounds, 3,
                           cfg.warmup_discard)
        assert samples.size == runs * (cfg.rounds - cfg.warmup_discard) \
            * cfg.n_agents
        p = samples[int(np.ceil(SCALE_FIT_PERCENTILE * samples.size)) - 1]
        assert scale == p / SCALE_HEADROOM_TARGET

    def test_no_runs_refused(self, desk_models):
        with pytest.raises(CalibrationError, match="runs >= 1, got 0"):
            fit_quantization_scale(desk_models, 2, runs=0, run_length=100,
                                   seed=0, warmup_discard=20)

    @pytest.mark.parametrize("warmup", [100, 150])
    def test_warmup_through_the_run_refused(self, desk_models, warmup):
        # no round is left to pool
        with pytest.raises(CalibrationError,
                           match=f"got warmup_discard={warmup}"):
            fit_quantization_scale(desk_models, 2, runs=2, run_length=100,
                                   seed=0, warmup_discard=warmup)

    def test_negative_warmup_refused(self, desk_models):
        # priorities[-5:] would pool only the last five rounds
        with pytest.raises(CalibrationError, match="got warmup_discard=-5"):
            fit_quantization_scale(desk_models, 2, runs=2, run_length=100,
                                   seed=0, warmup_discard=-5)

    def test_heterogeneous_fleet_refused(self, desk_cfg, desk_models):
        # the engine runs agents with distinct noise, but the scale fit
        # pools their raw priorities
        cov = desk_models.noise_cov.copy()
        cov[0] *= 2
        odd = replace(desk_models, noise_cov=cov)
        with pytest.raises(CalibrationError, match="distinct"):
            fit_quantization_scale(odd, desk_cfg.bandwidth, runs=2,
                                   run_length=100, seed=0, warmup_discard=20)


def test_report_csv(tmp_path, desk_cfg):
    _, bank = calibrate(replace(desk_cfg, eta=0.05, d=5, b=8, rounds=120),
                        runs=5, seed=2)
    path = tmp_path / "report.csv"
    write_calibration_report(bank, path)
    lines = path.read_text().splitlines()
    # every cell is str(int(value)); the sFD summary row comes first
    counts = bank.cell_counts()
    assert lines == ["T1;T2;a;count", f"0;0;0;{bank.sfd_count}"] + [
        f"{t1 + 1};{t2 + 1};{a};{counts[t1, t2, a]}"
        for t1, t2, a in zip(*np.nonzero(counts))]
    total = sum(int(l.split(";")[3]) for l in lines[2:])
    assert total == bank.dfd_count
