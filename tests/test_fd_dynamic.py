from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from priofd.errors import ConfigError
from priofd.fd_dynamic import (MAGIC, VERSION, _HEADER, ThresholdTable,
                               dfd_evaluate, dfd_verdicts, partition_window,
                               window_periods)
from priofd.network import ScheduleHistory

from oracles import ExactToy, brute_partition, brute_window_periods

DESK_TABLE = (Path(__file__).resolve().parent.parent / "perfbench" / "data"
              / "desk_thresholds.pfdt")


def history_from(bits):
    h = ScheduleHistory(1, len(bits) + 1)
    for bit in bits:
        h.append(bit)
    return h


def flat_table(d, b, value, **kw):
    entries = np.full((b, b, d, 2), np.float32(value))
    for t1 in range(1, b + 1):
        entries[t1 - 1, :t1 - 1] = np.nan
    args = dict(eta=0.01, d=d, b=b, m=2, n_agents=6, scale=1.0, seed=0,
                sfd_kappa=0.0, sfd_samples=0, dfd_samples=0)
    args.update(kw)
    return ThresholdTable(entries=entries, **args)


class TestPartition:
    def test_worked_example(self):
        # gamma over k-10..k with a d=9 window: three periods, the first
        # anchored to the communication two rounds before the window
        bits = [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0]
        periods = partition_window(history_from(bits), k=10, d=9, b=40)
        assert [(p.T1, p.T2, p.is_last) for p in periods] == [
            (2, 5, False), (1, 3, False), (1, 2, True)]
        assert [(p.start, p.end) for p in periods] == [(2, 5), (6, 8), (9, 10)]

    def test_all_communicating(self):
        bits = [1] * 8
        periods = partition_window(history_from(bits), k=7, d=4, b=40)
        assert [(p.T1, p.T2) for p in periods] == [(1, 1)] * 4
        assert [p.is_last for p in periods] == [False, False, False, True]

    def test_total_silence_capped(self):
        bits = [0] * 12
        periods = partition_window(history_from(bits), k=11, d=6, b=4)
        assert len(periods) == 1
        p = periods[0]
        assert p.is_last and p.T1 == 5 and p.T2 == 5 + 5

    def test_invariants_vs_oracle_random(self, rng):
        d, b = 6, 5
        for _ in range(300):
            bits = (rng.random(20) < 0.3).astype(int).tolist()
            k = 19
            got = partition_window(history_from(bits), k, d, b)
            want = brute_partition(bits, k, d, b)
            assert [(p.start, p.end, p.T1, p.T2, p.is_last) for p in got] == \
                   [(w["start"], w["end"], w["T1"], w["T2"], w["last"])
                    for w in want]

    @given(d=st.integers(1, 12), b=st.integers(1, 15),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_least_retention_vs_oracle(self, d, b, density, seed):
        # fed round by round into the shortest history an observer keeps
        bits = (np.random.default_rng(seed).random(50) < density).tolist()
        hist = ScheduleHistory(1, d + b + 1)
        for k, bit in enumerate(bits):
            hist.append(bit)
            if k < d - 1:
                continue
            got = partition_window(hist, k, d, b)
            assert [(p.start, p.end, p.T1, p.T2, p.is_last) for p in got] == \
                   [(w["start"], w["end"], w["T1"], w["T2"], w["last"])
                    for w in brute_partition(bits, k, d, b)]

    @given(st.integers(0, 2**14 - 1), st.sampled_from([3, 5, 8]))
    @settings(max_examples=300, deadline=None)
    def test_structural_invariants(self, word, d):
        bits = [(word >> i) & 1 for i in range(14)]
        b = 4
        periods = partition_window(history_from(bits), k=13, d=d, b=b)
        # disjoint cover in order
        assert periods[0].start == 13 - d + 1
        assert periods[-1].end == 13
        for prev, nxt in zip(periods, periods[1:]):
            assert nxt.start == prev.end + 1
        for p in periods[:-1]:
            assert bits[p.end] == 1
        for p in periods:
            assert not any(bits[r] for r in range(p.start, p.end))
            assert p.T2 - p.T1 + 1 == p.end - p.start + 1
            assert p.T1 >= 1 and p.T2 >= p.T1
        for p in periods[1:]:
            assert p.T1 == 1
        assert periods[-1].is_last
        assert len(periods) <= d


def kernel_rows(gamma, q, d, b, start_k):
    """window_periods of a (T,) or (T, C) run as (column, k, T1, T2, H, a,
    sum) rows, with column = w // windows and k = w % windows + the first
    window's k."""
    got = window_periods(gamma, q, d, b, start_k)
    assert all(col.dtype == np.int64 for col in got)
    first_k = max(start_k, d - 1)
    column, k = np.divmod(got[0], max(len(gamma) - first_k, 1))
    return list(zip(column.tolist(), (k + first_k).tolist(),
                    *(col.tolist() for col in got[1:])))


def brute_compared(bits, q, d, b, start_k, column=0):
    """brute_window_periods rows with T2 <= b, the periods dFD compares."""
    return [(column, *row) for row in brute_window_periods(bits, q, d, b,
                                                           start_k)
            if row[2] <= b]


def assert_columns_concatenated(gamma, q, d, b, start_k):
    """window_periods of a (T, C) run is, row for row, the calls on its
    columns concatenated in column order, each w offset by its column's
    first window row, and so the compared rows of brute_window_periods of
    each column."""
    got = window_periods(gamma, q, d, b, start_k)
    windows = max(len(gamma) - max(start_k, d - 1), 0)
    per_column = [window_periods(gamma[:, c], q[:, c], d, b, start_k)
                  for c in range(gamma.shape[1])]
    for c, part in enumerate(per_column):
        part[0][:] += c * windows
    for col, parts in zip(got, zip(*per_column)):
        assert np.array_equal(col, np.concatenate(parts))
    assert kernel_rows(gamma, q, d, b, start_k) == [
        row for c in range(gamma.shape[1])
        for row in brute_compared(gamma[:, c].tolist(), q[:, c], d, b,
                                  start_k, c)]


def random_table(rng, d, b):
    """Thresholds near the typical period sum, so both verdicts occur, with
    some cells never alarming."""
    length = np.arange(b)[None, :] - np.arange(b)[:, None] + 1
    kappa = length[:, :, None, None] * rng.uniform(60, 200, (b, b, d, 2))
    kappa[rng.random(kappa.shape) < 0.2] = np.inf
    table = flat_table(d, b, 0.0)
    valid = length >= 1
    table.entries[valid] = kappa[valid]
    return table


def assert_run_replays_columns(gamma, q, table):
    """dfd_verdicts of a (T, C) run has its shape and equals the calls on
    its columns."""
    got = dfd_verdicts(gamma, q, table)
    assert got.shape == gamma.shape and got.dtype == bool
    for c in range(gamma.shape[1]):
        assert np.array_equal(got[:, c],
                              dfd_verdicts(gamma[:, c], q[:, c], table))
    return got


class TestWindowPeriods:
    @given(bits=st.lists(st.booleans(), max_size=40),
           d=st.integers(1, 12), b=st.integers(1, 15),
           start_k=st.integers(0, 45), seed=st.integers(0, 2**16))
    @settings(max_examples=400, deadline=None)
    # T < d; start_k >= T; all silent; all sending; only the ws = 0
    # window; the last communication too old, so T1 = b+1
    @example(bits=[True, False, True], d=5, b=3, start_k=0, seed=0)
    @example(bits=[False, True] * 6, d=3, b=4, start_k=12, seed=1)
    @example(bits=[False] * 30, d=6, b=4, start_k=0, seed=2)
    @example(bits=[True] * 30, d=6, b=2, start_k=0, seed=3)
    @example(bits=[True, False, False, True, False], d=5, b=9,
             start_k=0, seed=4)
    @example(bits=[False, True, False, False, False, True, False], d=3, b=1,
             start_k=6, seed=5)
    def test_matches_brute_partition(self, bits, d, b, start_k, seed):
        q = np.random.default_rng(seed).integers(0, 256, size=len(bits))
        assert kernel_rows(np.array(bits, dtype=bool), q, d, b, start_k) == \
            brute_compared(bits, q, d, b, start_k)

    @given(rounds=st.integers(0, 30), cols=st.integers(1, 4),
           density=st.floats(0.0, 1.0), d=st.integers(1, 8),
           b=st.integers(1, 10), start_k=st.integers(0, 35),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_columns_are_concatenated_runs(self, rounds, cols, density, d, b,
                                           start_k, seed):
        rng = np.random.default_rng(seed)
        gamma = rng.random((rounds, cols)) < density
        q = rng.integers(0, 256, size=(rounds, cols)).astype(np.int16)
        assert_columns_concatenated(gamma, q, d, b, start_k)

    def test_no_first_period_lookback_into_the_previous_column(self):
        # column 0 sends in its last b+1 rounds and column 1 never: column
        # 1's first windows start at its round 0, b+1 or fewer flat rounds
        # after column 0's sends, yet they find no communication, so their
        # one period runs past b and is not compared
        d, b, rounds = 3, 4, 10
        gamma = np.zeros((rounds, 2), dtype=bool)
        gamma[rounds - (b + 1):, 0] = True
        q = np.arange(2 * rounds).reshape(rounds, 2)
        assert_columns_concatenated(gamma, q, d, b, 0)
        w = window_periods(gamma, q, d, b, 0)[0]
        assert w.size and (w < rounds - d + 1).all()     # column 0 only

    def test_all_silent_columns(self):
        # every window is one silent period past b: none is compared
        d, b, rounds = 4, 6, 15
        gamma = np.zeros((rounds, 3), dtype=bool)
        q = np.ones((rounds, 3), dtype=np.int16)
        assert_columns_concatenated(gamma, q, d, b, 5)
        got = window_periods(gamma, q, d, b, 5)
        assert all(col.size == 0 and col.dtype == np.int64 for col in got)

    def test_run_shorter_than_the_window(self):
        gamma = np.ones((3, 2), dtype=bool)
        got = window_periods(gamma, np.ones((3, 2)), 5, 4, 0)
        assert all(col.size == 0 and col.dtype == np.int64 for col in got)

    def test_one_column_equals_the_flat_run(self, rng):
        gamma = rng.random(40) < 0.3
        q = rng.integers(0, 256, size=40)
        flat = window_periods(gamma, q, 6, 5, 3)
        column = window_periods(gamma[:, None], q[:, None], 6, 5, 3)
        assert all(np.array_equal(a, b) for a, b in zip(flat, column))


class TestThresholdTable:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = rng.random((5, 5, 3, 2)).astype(np.float32)
        entries[0, 3, 1, 0] = np.inf
        entries[4, 0, :, :] = np.nan
        table = ThresholdTable(0.05, 3, 5, 2, 4, 1.25e-3, 99, 417.0,
                               123456, 9876543, entries)
        path = tmp_path / "t.pfdt"
        table.save(path)
        back = ThresholdTable.load(path)
        assert (back.eta, back.d, back.b, back.m, back.n_agents) == \
               (0.05, 3, 5, 2, 4)
        assert back.scale == 1.25e-3 and back.seed == 99
        assert back.sfd_kappa == 417.0
        assert (back.sfd_samples, back.dfd_samples) == (123456, 9876543)
        assert np.array_equal(back.entries, entries, equal_nan=True)
        table.save(tmp_path / "t2.pfdt")
        assert (tmp_path / "t.pfdt").read_bytes() == \
               (tmp_path / "t2.pfdt").read_bytes()

    def test_corrupt_files_rejected(self, tmp_path):
        path = tmp_path / "bad.pfdt"
        path.write_bytes(b"nope")
        with pytest.raises(ConfigError):
            ThresholdTable.load(path)
        good = flat_table(2, 2, 1.0)
        good.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ConfigError):
            ThresholdTable.load(path)

    @pytest.mark.parametrize("eta,d,b", [
        (0.01, 0, 0), (0.01, 0, 4), (0.01, 3, 0), (float("nan"), 3, 4),
        (0.0, 3, 4), (1.0, 3, 4), (-0.5, 3, 4)])
    def test_bad_header_fields_rejected(self, tmp_path, eta, d, b):
        # a hand-packed header; d = b = 0 would be a table of size zero
        path = tmp_path / "bad.pfdt"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, eta, d, b, 2, 6, 1.0,
                                      0, 0.0, 0, 0)
                         + bytes(4 * b * b * d * 2))
        with pytest.raises(ConfigError, match="bad table header"):
            ThresholdTable.load(path)

    def test_header_compatibility(self, desk_cfg):
        table = flat_table(4, 6, 1.0)
        cfg = replace(desk_cfg, eta=0.01, d=4, b=6, quant_scale=1.0)
        table.check_compatible(cfg)   # desk fleet: M=2, N=6
        for field, value in (("quant_scale", 2.0), ("eta", 0.02), ("d", 5),
                             ("b", 7), ("bandwidth", 1), ("n_agents", 5)):
            with pytest.raises(ConfigError, match="does not match"):
                table.check_compatible(replace(cfg, **{field: value}))
        with pytest.raises(ConfigError, match="no quantization scale"):
            table.check_compatible(replace(cfg, quant_scale=None))


class TestEvaluate:
    def test_zero_priorities_no_alarm(self):
        table = flat_table(4, 6, 1.0)
        hist = history_from([0, 1, 0, 0, 1, 0, 0, 0])
        assert not dfd_evaluate(hist, [0, 0, 0, 0], table, k=7)

    def test_or_semantics_second_period_trips(self):
        d, b = 6, 8
        table = flat_table(d, b, np.inf)
        # window rounds 2..7 of: comm at rounds 1 and 4 -> two periods,
        # (1,3,a=0) over rounds 2..4 and (1,3,a=1) over rounds 5..7
        bits = [0, 1, 0, 0, 1, 0, 0, 0]
        table.entries[0, 2, 1, 0] = 50.0
        table.entries[0, 2, 1, 1] = 98.0
        hist = history_from(bits)
        # period sums (10, 98) stay under, (10, 99) trips the second period
        assert not dfd_evaluate(hist, [3, 3, 4, 33, 33, 32], table, k=7)
        assert dfd_evaluate(hist, [3, 3, 4, 33, 33, 33], table, k=7)

    def test_long_silence_cannot_alarm(self):
        d, b = 5, 3
        table = flat_table(d, b, 0.0)
        hist = history_from([0] * 10)       # T1 capped at b+1 -> T2 > b
        assert not dfd_evaluate(hist, [255] * 5, table, k=9)

    def test_period_beyond_cap_never_alarms(self):
        # d > b: window rounds 4..9 of comm at rounds 3 and 4 are the
        # periods (1,1) over round 4 and (1,5) over rounds 5..9; the
        # second runs past the table's T2 = b and is never compared
        d, b = 6, 2
        table = flat_table(d, b, 0.0)
        hist = history_from([0, 0, 0, 1, 1, 0, 0, 0, 0, 0])
        assert [(p.T1, p.T2) for p in partition_window(hist, 9, d, b)] == \
               [(1, 1), (1, 5)]
        assert not dfd_evaluate(hist, [0] + [255] * 5, table, k=9)
        assert dfd_evaluate(hist, [1] + [0] * 5, table, k=9)

    def test_reduces_to_sfd_with_single_period(self):
        # a window without communication whose previous communication is
        # within b rounds is one period: with a flat table the dFD verdict
        # is the sFD verdict
        d, b = 5, 40
        kappa = 321.0
        table = flat_table(d, b, kappa)
        rng = np.random.default_rng(3)
        from priofd.fd_static import sfd_verdicts
        bits = [r % 7 == 0 for r in range(60)]
        q = rng.integers(0, 150, size=60)
        hist = history_from(bits)
        sfd = sfd_verdicts(q, kappa, d)
        single = [k for k in range(d - 1, 60) if not any(bits[k - d + 1:k + 1])]
        for k in single:
            assert len(partition_window(hist, k, d, b)) == 1
            got = dfd_evaluate(hist, q[k - d + 1:k + 1], table, k)
            assert got == sfd[k]
        assert {bool(sfd[k]) for k in single} == {False, True}

    def test_window_form_does_not_matter(self, rng):
        # a Python list, an int16 array and an int64 view of a longer row
        # give one verdict
        table = ThresholdTable.load(DESK_TABLE)
        d, rounds = table.d, 80
        seen = set()
        for _ in range(20):
            bits = rng.random(rounds) < 0.33
            row = rng.integers(0, rng.integers(16, 257), size=rounds + 5)
            hist = history_from(bits)
            for k in range(d - 1, rounds):
                view = row[k - d + 1:k + 1]
                verdicts = {dfd_evaluate(hist, form, table, k) for form in
                            (view.tolist(), view.astype(np.int16), view)}
                assert len(verdicts) == 1, k
                seen |= verdicts
        assert seen == {False, True}

    def test_wrong_window_length_rejected(self):
        table = flat_table(4, 6, 1.0)
        with pytest.raises(ConfigError):
            dfd_evaluate(history_from([0] * 8), [1, 2, 3], table, k=7)
        with pytest.raises(ConfigError, match="starts before the run"):
            dfd_evaluate(history_from([0] * 8), [1, 2, 3, 4], table, k=2)

    @given(d=st.integers(1, 12), b=st.integers(1, 15),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_offline_matches_online(self, d, b, density, seed):
        rng = np.random.default_rng(seed)
        rounds = 60
        table = random_table(rng, d, b)
        bits = rng.random(rounds) < density
        q = rng.integers(0, 256, size=rounds)
        offline = dfd_verdicts(bits, q, table)
        hist = history_from(bits)
        online = [k >= d - 1
                  and dfd_evaluate(hist, q[k - d + 1:k + 1], table, k)
                  for k in range(rounds)]
        assert offline.tolist() == online

    def test_offline_matches_online_desk_table(self, rng, small_table):
        # the short test calibration and the committed 2000-run reference
        # table, with a full history and with the least an observer keeps;
        # priority ranges from fault-free levels to saturation, so both
        # verdicts occur
        rounds = 60
        for table in (small_table, ThresholdTable.load(DESK_TABLE)):
            d = table.d
            seen = set()
            for retention in (rounds + 1, d + table.b + 1):
                for _ in range(25):
                    bits = rng.random(rounds) < 0.33
                    top = rng.integers(16, 257)
                    q = rng.integers(0, top, size=rounds).astype(np.int64)
                    offline = dfd_verdicts(bits, q, table)
                    hist = ScheduleHistory(1, retention)
                    online = np.zeros(rounds, dtype=bool)
                    for k in range(rounds):
                        hist.append(bool(bits[k]))
                        if k >= d - 1:
                            online[k] = dfd_evaluate(
                                hist, q[k - d + 1:k + 1], table, k)
                    assert np.array_equal(offline, online)
                    seen.update(online[d - 1:].tolist())
            assert seen == {False, True}

    def test_replay_is_bit_exact(self, rng, small_table):
        bits = rng.random(120) < 0.3
        q = rng.integers(0, 256, size=120).astype(np.int64)
        first = dfd_verdicts(bits, q, small_table)
        again = dfd_verdicts(bits.copy(), q.copy(), small_table)
        assert np.array_equal(first, again)


class TestRunReplay:
    """dfd_verdicts on a (T, C) run against the column-by-column calls."""

    @given(rounds=st.integers(0, 40), cols=st.integers(1, 4),
           density=st.floats(0.0, 1.0), d=st.integers(1, 8),
           b=st.integers(1, 10), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    # T < d; T = d, one window per column; one column
    @example(rounds=3, cols=2, density=0.5, d=5, b=4, seed=0)
    @example(rounds=6, cols=3, density=0.5, d=6, b=4, seed=1)
    @example(rounds=30, cols=1, density=0.3, d=4, b=6, seed=2)
    def test_equals_column_by_column(self, rounds, cols, density, d, b, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, d, b)
        gamma = rng.random((rounds, cols)) < density
        q = rng.integers(0, 256, size=(rounds, cols)).astype(np.int16)
        assert_run_replays_columns(gamma, q, table)

    def test_silent_and_always_sending_columns(self, rng):
        # with the reference table and saturated priorities: a column that
        # never communicates has only periods beyond b and never alarms,
        # and one that always communicates does alarm
        table = ThresholdTable.load(DESK_TABLE)
        rounds = 80
        gamma = np.zeros((rounds, 3), dtype=bool)
        gamma[:, 1] = True
        gamma[:, 2] = rng.random(rounds) < 0.33
        q = np.full((rounds, 3), 255, dtype=np.int16)
        got = assert_run_replays_columns(gamma, q, table)
        assert not got[:, 0].any()
        assert got[table.d - 1:, 1].all()

    def test_short_runs(self, rng):
        table = random_table(rng, 5, 4)
        gamma = rng.random((5, 3)) < 0.5
        q = rng.integers(0, 256, size=(5, 3))
        assert not assert_run_replays_columns(gamma[:4], q[:4], table).any()
        got = assert_run_replays_columns(gamma, q, table)
        assert not got[:4].any()

    def test_one_column_equals_the_flat_run(self, rng, small_table):
        gamma = rng.random(120) < 0.33
        q = rng.integers(0, 256, size=120)
        flat = dfd_verdicts(gamma, q, small_table)
        assert flat.any()
        column = dfd_verdicts(gamma[:, None], q[:, None], small_table)
        assert np.array_equal(column, flat[:, None])


class TestUnionBoundToy:
    def test_factored_matches_literal_enumeration(self):
        toy = ExactToy(length=5, d=4, b=4)
        m_f = toy.signature_measure()
        m_l = toy.literal_signature_measure()
        assert set(m_f) == set(m_l)
        for key in m_f:
            assert dict(m_f[key]) == dict(m_l[key])
        table = toy.thresholds(Fraction(1, 10))
        assert toy.alarm_probability(table) == \
            toy.literal_alarm_probability(table)

    def test_exact_quantile_thresholds_bound_alarm_probability(self):
        toy = ExactToy(length=7, d=4, b=4)
        for eta in (Fraction(1, 20), Fraction(1, 10)):
            table = toy.thresholds(eta)
            assert toy.alarm_probability(table) <= eta
