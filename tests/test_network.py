from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from priofd.dynamics import Fleet, draw_noise_block, noise_stream
from priofd.errors import ConfigError
from priofd.fd_dynamic import ThresholdTable, dfd_evaluate
from priofd.network import ScheduleHistory, top_m
from priofd.scenarios import PRESETS, bandwidth_loss
from priofd.simulate import run_single

from oracles import ref_quantize, ref_replay, ref_senders


class TestSelectSenders:
    # top_m returns 0-based indices; agent ids are top_m(...) + 1
    def test_order_statistics(self):
        assert (top_m([5, 3, 9, 1], 2) + 1).tolist() == [3, 1]

    def test_tie_break_by_id(self):
        assert (top_m([7, 7, 7, 7], 2) + 1).tolist() == [1, 2]

    def test_saturation(self):
        assert set((top_m([1, 2, 3], 9) + 1).tolist()) == {1, 2, 3}

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            top_m([1, 2], 0)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=12),
           st.integers(1, 12))
    def test_count_and_soundness(self, qs, m):
        winners = (top_m(qs, m) + 1).tolist()
        assert len(winners) == min(m, len(qs))
        assert tuple(winners) == ref_senders(qs, m)
        losers = set(range(1, len(qs) + 1)) - set(winners)
        for w in winners:
            for l in losers:
                assert qs[w - 1] >= qs[l - 1]


class TestScheduleHistory:
    def test_window_and_lookup(self):
        h = ScheduleHistory(1, 10)
        for bit in (1, 0, 0, 1, 0):
            h.append(bit)
        assert h.comm_rounds(2, 4) == [3]
        assert h.comm_rounds(0, 4) == [0, 3]
        assert h.comm_rounds(0, 2) == [0]
        assert h.comm_rounds(1, 2) == []
        # before run start: silent
        assert h.comm_rounds(-5, 4) == [0, 3]
        assert h.comm_rounds(-5, -1) == []
        with pytest.raises(ConfigError, match=r"covers \[0, 4\]"):
            h.comm_rounds(0, 5)                 # a round not yet appended

    def test_eviction_raises(self):
        h = ScheduleHistory(1, 4)
        for bit in (1, 0, 1, 1, 0, 0, 1, 0):
            h.append(bit)
        assert h.comm_rounds(4, 7) == [6]
        with pytest.raises(ConfigError, match=r"covers \[4, 7\]"):
            h.comm_rounds(3, 7)
        with pytest.raises(ConfigError):
            h.comm_rounds(-5, 7)

    def test_evaluate_needs_d_plus_b_plus_1_rounds(self):
        # the first period looks back up to b+1 rounds before the window
        d, b = 4, 3
        table = ThresholdTable(0.01, d, b, 2, 6, 1.0, 0, 0.0, 0, 0,
                               np.zeros((b, b, d, 2)))
        bits = [1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0]
        short, enough = ScheduleHistory(1, d + b), ScheduleHistory(1, d + b + 1)
        for bit in bits:
            short.append(bit)
            enough.append(bit)
        k = len(bits) - 1
        dfd_evaluate(enough, [0] * d, table, k)
        with pytest.raises(ConfigError, match="requested"):
            dfd_evaluate(short, [0] * d, table, k)

    def test_returned_list_is_a_copy(self):
        # dfd_evaluate trims and appends k to the list it gets back
        h = ScheduleHistory(1, 10)
        for bit in (1, 0, 1, 1, 0, 1):
            h.append(bit)
        got = h.comm_rounds(0, 5)
        got.append(5)
        del got[:2]
        got[0] = 99
        assert h.comm_rounds(0, 5) == [0, 2, 3, 5]
        assert h.comm_rounds(0, 5) is not h.comm_rounds(0, 5)

    def test_holds_only_rounds_within_retention(self, rng):
        for retention, density in ((1, 0.5), (7, 0.9), (51, 0.33)):
            h = ScheduleHistory(1, retention)
            bits = rng.random(10_000) < density
            for n, bit in enumerate(bits, start=1):
                h.append(bool(bit))
                first = max(n - retention, 0)
                assert h._comms == (np.flatnonzero(bits[first:n])
                                    + first).tolist()

    @given(st.lists(st.booleans(), min_size=1, max_size=30),
           st.integers(1, 12), st.integers(-5, 30), st.integers(0, 30))
    def test_matches_gamma_record(self, bits, retention, lo, width):
        h = ScheduleHistory(1, retention)
        for bit in bits:
            h.append(bit)
        hi = min(lo + width, len(bits) - 1)
        if max(lo, 0) < len(bits) - retention:
            with pytest.raises(ConfigError):
                h.comm_rounds(lo, hi)
        else:
            assert h.comm_rounds(lo, hi) == \
                [r for r in range(max(lo, 0), hi + 1) if bits[r]]


class TestRoundPipeline:
    def test_cold_start_two_empty_rounds(self, desk_cfg, desk_models):
        trace = run_single(desk_models, desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 10, seed=3, run=0)
        assert not trace.gamma[:2].any()
        assert trace.priorities.shape == (10, len(desk_models))
        assert trace.gamma[2].sum() == desk_cfg.bandwidth

    def test_single_agent_sends_every_round(self):
        fleet = Fleet(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((1, 2)), [0.01 * np.eye(2)])
        trace = run_single(fleet, m=1, scale=1e-6, rounds=30, seed=5, run=0)
        assert not trace.gamma[:2].any()
        assert trace.gamma[2:, 0].all()
        for k in range(2, 29):
            assert np.array_equal(trace.errors[k + 1, 0], trace.noise[k, 0])

    def test_winners_resolve_two_rounds_later(self, desk_cfg, desk_models):
        trace = run_single(desk_models, desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 60, seed=9, run=0)
        for k in range(2, 60):
            expect = ref_senders(trace.priorities[k - 2].tolist(),
                                 desk_cfg.bandwidth)
            got = tuple(np.flatnonzero(trace.gamma[k]) + 1)
            assert set(got) == set(expect)

    def test_no_scale_ranks_the_raw_values(self, desk_cfg, desk_models):
        # with scale None the trace keeps the float priorities it ranked;
        # they spread the slots over the fleet, past the two lowest ids
        trace = run_single(desk_models, desk_cfg.bandwidth, None, 60, seed=9,
                           run=0)
        assert trace.priorities.dtype == np.float64
        for k in range(2, 60):
            expect = ref_senders(trace.priorities[k - 2].tolist(),
                                 desk_cfg.bandwidth)
            assert set(np.flatnonzero(trace.gamma[k]) + 1) == set(expect)
        assert trace.gamma[2:, 2:].any()

    def test_hand_simulated_three_agent_pipeline(self):
        # independent re-simulation: random-walk errors (A=I, B=0), priority
        # is the squared error norm, one slot, two-round winner delay
        n_agents, rounds, seed, scale = 3, 14, 21, 0.05
        fleet = Fleet(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((n_agents, 2 * n_agents)),
                      [np.eye(2)] * n_agents)
        trace = run_single(fleet, m=1, scale=scale, rounds=rounds,
                           seed=seed, run=0)

        noise = np.stack([draw_noise_block(fleet.noise_chol[i],
                                           noise_stream(seed, 0, i + 1, 0),
                                           rounds)
                          for i in range(n_agents)], axis=1)
        e = np.zeros((n_agents, 2))
        pipe = deque([(), ()])
        for k in range(rounds):
            q = [ref_quantize(float(e[i] @ e[i]), scale) for i in range(n_agents)]
            senders = pipe.popleft()
            order = sorted(range(1, n_agents + 1), key=lambda a: (-q[a - 1], a))
            pipe.append(tuple(order[:1]))
            assert q == trace.priorities[k].tolist(), f"round {k}"
            assert set(senders) == set(np.flatnonzero(trace.gamma[k]) + 1), f"round {k}"
            for i in range(n_agents):
                e[i] = noise[k, i] if (i + 1) in senders else e[i] + noise[k, i]

    def test_exactly_m_after_warmup(self, desk_cfg, desk_models):
        trace = run_single(desk_models, desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 100, seed=13, run=0)
        assert (trace.gamma[2:].sum(axis=1) == desk_cfg.bandwidth).all()

    def test_bandwidth_change_completes_inflight(self, desk_cfg, desk_models):
        scn = bandwidth_loss(1, 40)
        trace = run_single(desk_models, desk_cfg.bandwidth,
                           desk_cfg.quant_scale, 80, seed=17, run=0,
                           scenario=scn)
        sums = trace.gamma.sum(axis=1)
        # selections before the change still deliver two winners at 40, 41
        assert (sums[2:42] == 2).all()
        assert (sums[42:] == 1).all()

    def test_sending_twice_in_a_row_is_common(self, fault_free_traces):
        # emergent effect of the two-round delay: winners usually win again
        both = follow = base = 0
        for trace in fault_free_traces:
            g = trace.gamma[2:]
            follow += np.count_nonzero(g[:-1] & g[1:])
            both += np.count_nonzero(g[:-1])
            base += g.size
        p_repeat = follow / both
        duty = both / base
        assert p_repeat > 1.1 * duty

    def test_fleet_and_bandwidth_refused(self, desk_models):
        # before round 0: even a run of no rounds is refused
        for m in (0, -1):
            with pytest.raises(ConfigError, match="M must be positive"):
                run_single(desk_models, m, 1.0, 0, seed=0, run=0)

    def test_round_equals_composed_unit_ops(self, desk_cfg, desk_models):
        # every round of a desk run of each scenario preset against the
        # agent-by-agent oracle; a plant that a fault has changed is
        # compared on priorities and estimates only
        for name, preset in PRESETS.items():
            scn = preset()
            trace = run_single(desk_models, desk_cfg.bandwidth,
                               desk_cfg.quant_scale, desk_cfg.rounds,
                               seed=23, run=0, scenario=scn)
            matched = np.ones(trace.gamma.shape, dtype=bool)
            for ev in scn.events:
                end = ev.k + ev.duration if ev.kind == "add_disturbance" else None
                matched[ev.k:end, [a - 1 for a in ev.agents]] = False
            xhat = trace.states - trace.errors
            for k, q, xhat_next, x_next in ref_replay(
                    desk_models, trace, desk_cfg.quant_scale):
                assert q == trace.priorities[k].tolist(), (name, k)
                assert np.allclose(xhat[k + 1], xhat_next, atol=1e-9), (name, k)
                ok = matched[k]
                assert np.allclose(trace.states[k + 1, ok], x_next[ok],
                                   atol=1e-9), (name, k)
            assert matched.all() == (name in ("fault-free", "bandwidth-loss"))
