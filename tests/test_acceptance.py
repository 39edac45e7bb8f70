"""End-to-end acceptance suite.

Each test prints one "criterion NN PASS/FAIL" line with the measured
values. The Monte Carlo fixtures are module scoped and reused across
criteria: one 2000-run calibration, one 2000-run held-out fault-free batch,
and 2000-run batches of the two fault scenarios, all on the desk-scale
fleet (6 cart-poles, two slots, 300 rounds, eta=0.01, d=10, b=40).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from priofd.calibration import calibrate
from priofd.fd_dynamic import (ThresholdTable, dfd_evaluate, partition_window)
from priofd.fd_static import StaticDetector
from priofd.harness import emit_csv, run_batch
from priofd.network import ScheduleHistory
from priofd.scenarios import actuator_failure, bandwidth_loss
from priofd.simulate import run_lockstep, run_single

from oracles import ExactToy, brute_partition

RUNS = 2000

pytestmark = pytest.mark.acceptance


def check(num, desc, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


@pytest.fixture(scope="module")
def acc_table(desk_cfg):
    table, _ = calibrate(desk_cfg, runs=RUNS, seed=1000)
    return table


@pytest.fixture(scope="module")
def heldout(desk_cfg, acc_table):
    report, _ = run_batch(desk_cfg, None, acc_table, runs=RUNS, seed=2000)
    return report


@pytest.fixture(scope="module")
def scn2_report(desk_cfg, acc_table):
    report, _ = run_batch(desk_cfg, bandwidth_loss(1, 100), acc_table,
                          runs=RUNS, seed=3000)
    return report


@pytest.fixture(scope="module")
def scn1_report(desk_cfg, acc_table):
    report, _ = run_batch(desk_cfg, actuator_failure((2,), 100), acc_table,
                          runs=RUNS, seed=4000)
    return report


@pytest.fixture(scope="module")
def traces100(desk_cfg, desk_models):
    return run_lockstep(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                        desk_cfg.rounds, seed=5000, runs=range(100))


def test_criterion_01_sfd_false_positive_self_consistency(heldout):
    rate_sfd = float(heldout.p_sfd[50:].mean())
    rate_dfd = float(heldout.p_dfd[50:].mean())
    check(1, "held-out sFD per-timestep alarm rate within eta plus slack",
          rate_sfd <= 0.015,
          f"sfd={rate_sfd:.5f} dfd={rate_dfd:.5f} bound=0.015 over "
          f"{heldout.runs} runs")


def test_criterion_02_bandwidth_robustness_ordering(scn2_report):
    pre_s = float(scn2_report.pre_sfd.mean())
    post_s = float(scn2_report.post_sfd.mean())
    pre_d = float(scn2_report.pre_dfd.mean())
    post_d = float(scn2_report.post_dfd.mean())
    ratio_s = post_s / pre_s
    ratio_d = post_d / pre_d
    check(2, "sFD degrades at least twofold and dFD adapts better",
          ratio_s >= 2.0 and ratio_d < ratio_s,
          f"sfd {pre_s:.4f}->{post_s:.4f} (x{ratio_s:.2f}), "
          f"dfd {pre_d:.4f}->{post_d:.4f} (x{ratio_d:.2f})")


def test_criterion_03_detection_and_containment(scn1_report):
    rep = scn1_report
    window = slice(100, 150)
    faulty = 2
    peak_s = float(rep.p_sfd[window, faulty - 1].max())
    peak_d = float(rep.p_dfd[window, faulty - 1].max())
    healthy = [i for i in range(rep.n_agents) if i != faulty - 1]
    worst_s = float(rep.p_sfd[window][:, healthy].mean(axis=0).max())
    worst_d = float(rep.p_dfd[window][:, healthy].mean(axis=0).max())
    check(3, "actuator fault detected within 50 rounds, healthy agents quiet",
          peak_s >= 0.9 and peak_d >= 0.9 and worst_s <= 0.05
          and worst_d <= 0.05,
          f"faulty peak sfd={peak_s:.3f} dfd={peak_d:.3f}; worst healthy "
          f"rate sfd={worst_s:.4f} dfd={worst_d:.4f}")


def test_criterion_04_union_bound_exact_oracle():
    toy = ExactToy(length=8, d=4, b=4)
    results = []
    ok = True
    for eta in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        table = toy.thresholds(eta)
        p = toy.alarm_probability(table)
        ok = ok and p <= eta
        results.append(f"eta={eta}: P={float(p):.5f}")
    check(4, "exact (eta/H)-quantile thresholds bound the exact alarm "
          "probability by eta", ok, "; ".join(results))


def test_criterion_05_partition_oracle_exhaustive():
    length = 16
    mismatches = 0
    t0 = time.perf_counter()
    for word in range(2 ** length):
        bits = [(word >> i) & 1 for i in range(length)]
        hist = ScheduleHistory(1, length + 1)
        for bit in bits:
            hist.append(bit)
        for d in (4, 8):
            got = [(p.start, p.end, p.T1, p.T2, p.is_last)
                   for p in partition_window(hist, length - 1, d, b=6)]
            want = [(w["start"], w["end"], w["T1"], w["T2"], w["last"])
                    for w in brute_partition(bits, length - 1, d, b=6)]
            if got != want:
                mismatches += 1
    bits = [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0]
    hist = ScheduleHistory(1, 12)
    for bit in bits:
        hist.append(bit)
    example = [(p.T1, p.T2, p.is_last)
               for p in partition_window(hist, 10, 9, 40)]
    example_ok = example == [(2, 5, False), (1, 3, False), (1, 2, True)]
    check(5, "partitioner matches brute force on all 2^16 schedules and the "
          "worked example", mismatches == 0 and example_ok,
          f"{2 ** length} schedules x d in (4, 8), {mismatches} mismatches, "
          f"worked example {'ok' if example_ok else example}; "
          f"{time.perf_counter() - t0:.1f}s")


def test_criterion_06_scheduler_invariants(desk_cfg, traces100):
    m = desk_cfg.bandwidth
    bad_count = bad_sound = rounds_checked = 0
    for trace in traces100:
        sums = trace.gamma[2:].sum(axis=1)
        bad_count += int(np.count_nonzero(sums != m))
        for k in range(2, len(trace.gamma)):
            q = trace.priorities[k - 2]
            senders = trace.gamma[k]
            rounds_checked += 1
            if senders.any() and (~senders).any():
                if q[senders].min() < q[~senders].max():
                    bad_sound += 1
    check(6, "exactly-M schedule and priority soundness on every round",
          bad_count == 0 and bad_sound == 0,
          f"{rounds_checked} rounds over {len(traces100)} runs, "
          f"{bad_count} bad counts, {bad_sound} soundness violations")


def test_criterion_07_error_reset_bit_exact(traces100):
    checked = mismatched = 0
    for trace in traces100:
        ks, agents = np.nonzero(trace.gamma[:-1])
        for k, i in zip(ks, agents):
            checked += 1
            if not np.array_equal(trace.errors[k + 1, i], trace.noise[k, i]):
                mismatched += 1
    check(7, "error after every received round equals the injected noise, "
          "bit-exact", checked > 10_000 and mismatched == 0,
          f"{checked} received rounds, {mismatched} mismatches")


def test_criterion_08_empirical_mean_square_boundedness(heldout):
    mean_sq = heldout.mean_err_sq
    ratios = mean_sq.max(axis=0) / mean_sq[50]
    check(8, "max-over-k Monte Carlo mean squared error within 10x its "
          "k=50 value for every agent", bool((ratios <= 10.0).all()),
          f"worst agent ratio {ratios.max():.2f} over {heldout.runs} runs")


def test_criterion_09_determinism_and_serialization(tmp_path, desk_cfg,
                                                    acc_table):
    paths = []
    for tag in ("first", "second"):
        table, _ = calibrate(desk_cfg, runs=50, seed=9000)
        path = tmp_path / f"{tag}.pfdt"
        table.save(path)
        paths.append(path)
    tables_equal = paths[0].read_bytes() == paths[1].read_bytes()

    csv_sets = []
    for tag in ("a", "b"):
        report, records = run_batch(desk_cfg, bandwidth_loss(1, 100),
                                    acc_table, runs=25, seed=9500,
                                    record_runs=3)
        files = emit_csv(report, records, tmp_path / tag, desk_cfg, 9500,
                         "bandwidth-loss")
        csv_sets.append({f.name: f.read_bytes() for f in files})
    csvs_equal = csv_sets[0] == csv_sets[1]

    rt = tmp_path / "acc.pfdt"
    acc_table.save(rt)
    back = ThresholdTable.load(rt)
    back.save(tmp_path / "acc2.pfdt")
    roundtrip = (np.array_equal(back.entries, acc_table.entries,
                                equal_nan=True)
                 and rt.read_bytes() == (tmp_path / "acc2.pfdt").read_bytes())
    check(9, "identical inputs give byte-identical artifacts; table file "
          "round-trips bit-exactly",
          tables_equal and csvs_equal and roundtrip,
          f"tables_equal={tables_equal} csvs_equal={csvs_equal} "
          f"roundtrip={roundtrip}")


def test_criterion_10_detector_cost_scaling(desk_cfg, desk_models, acc_table,
                                            rng):
    q_long = rng.integers(0, 256, size=200_000)

    def sfd_cost(d):
        det = StaticDetector(1, 1e12, d)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for g in q_long[:50_000]:
                det.update(int(g))
            best = min(best, time.perf_counter() - t0)
        return best / 50_000

    def dfd_cost(d):
        entries = np.full((40, 40, d, 2), np.float32(np.inf))
        table = ThresholdTable(0.01, d, 40, 2, 6, 1.0, 0, 0.0, 0, 0, entries)
        rounds = 3000
        bits = rng.random(rounds) < 0.3
        q = rng.integers(0, 256, size=rounds).astype(np.int64)
        best = float("inf")
        for _ in range(3):
            # as an online observer runs it: each round appended, then
            # evaluated, so the history never reaches past k
            hist = ScheduleHistory(1, rounds + 1)
            spent = 0
            for k in range(rounds):
                hist.append(bool(bits[k]))
                if k < d - 1:
                    continue
                window = q[k - d + 1:k + 1]
                t0 = time.perf_counter_ns()
                dfd_evaluate(hist, window, table, k)
                spent += time.perf_counter_ns() - t0
            best = min(best, spent)
        return 1e-9 * best / (rounds - d + 1)

    sfd_times = {d: sfd_cost(d) for d in (5, 10, 20, 40)}
    dfd_times = {d: dfd_cost(d) for d in (5, 10, 20, 40)}
    sfd_flat = sfd_times[40] <= 3.0 * sfd_times[5]
    dfd_linear = dfd_times[40] <= 12.0 * dfd_times[5]

    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       desk_cfg.rounds, seed=45, run=0)
    d = acc_table.d
    sfd_ns: list[int] = []
    dfd_ns: list[int] = []
    for _ in range(2):
        for i in range(desk_cfg.n_agents):
            det = StaticDetector(i + 1, acc_table.sfd_kappa, d)
            g = trace.priorities[:, i]
            for k in range(desk_cfg.rounds):
                t0 = time.perf_counter_ns()
                det.update(int(g[k]))
                sfd_ns.append(time.perf_counter_ns() - t0)
            hist = ScheduleHistory(i + 1, desk_cfg.rounds + 1)
            for k in range(desk_cfg.rounds):
                hist.append(bool(trace.gamma[k, i]))
                if k < d - 1:
                    continue
                window = g[k - d + 1:k + 1]
                t0 = time.perf_counter_ns()
                dfd_evaluate(hist, window, acc_table, k)
                dfd_ns.append(time.perf_counter_ns() - t0)
    sfd_mean_ns, dfd_mean_ns = np.mean(sfd_ns), np.mean(dfd_ns)
    cheaper = sfd_mean_ns < dfd_mean_ns
    check(10, "sFD update is O(1), dFD at most linear in d, sFD cheaper "
          "than dFD", sfd_flat and dfd_linear and cheaper,
          f"sfd us/upd {1e6 * sfd_times[5]:.2f}@d5 -> "
          f"{1e6 * sfd_times[40]:.2f}@d40; dfd {1e6 * dfd_times[5]:.2f}@d5 "
          f"-> {1e6 * dfd_times[40]:.2f}@d40; mean sfd={sfd_mean_ns:.0f}ns"
          f" dfd={dfd_mean_ns:.0f}ns")
