"""The lockstep round engine: a run's trace is the same whatever chunk it
is simulated in, every round of a chunk matches the agent-by-agent oracle
and elects its senders at the M in effect in that round (also when M
changes between the two rounds of a pair), the schedule-only path gives the same schedule as the full engine, a run
without a scale keeps the raw priorities it ranked, and the integer
schedule of a fixed seed is pinned.

Only integer arrays are pinned: float bits can differ across BLAS builds,
while the chunk-size comparisons below run on one build and compare every
array bit for bit."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from priofd.config import SystemConfig
from priofd.dynamics import Fleet
from priofd.errors import ConfigError
from priofd.scenarios import PRESETS, Event, Scenario, actuator_failure
from priofd.simulate import (CHUNK_CELLS, RunTrace, chunks, run_lockstep,
                             run_single)

from oracles import ref_quantize, ref_replay, ref_senders

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK = SystemConfig.load(CONFIGS / "cartpole_desk.json")
FULL = SystemConfig.load(CONFIGS / "cartpole_full.json")
FIELDS = [f.name for f in dataclasses.fields(RunTrace)]
DESK_CELLS = DESK.rounds * DESK.n_agents  # cells of one desk run
DESK_CHUNK = CHUNK_CELLS // DESK_CELLS  # most desk runs in one chunk
SHAKE = ((0.0, 0, 0, 0), (0, 0.0025, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0.04))
PUSH = ((0.01, 0, 0, 0), (0, 0.0, 0, 0), (0, 0, 0.01, 0), (0, 0, 0, 0.0))

# overlapping disturbances (agent 3 twice, which restarts its stream), an
# actuator failure on a shaken agent, two bandwidth changes, a disturbance
# that outlasts the run and one of a single round
COMBINED = Scenario("combined", [
    Event(60, "add_disturbance", agents=(1, 3), covariance=SHAKE, duration=50),
    Event(80, "add_disturbance", agents=(3,), covariance=PUSH, duration=30),
    Event(90, "set_bandwidth", bandwidth=1),
    Event(100, "set_B_zero", agents=(2, 3)),
    Event(150, "set_bandwidth", bandwidth=3),
    Event(200, "add_disturbance", agents=(5,), covariance=SHAKE, duration=200),
    Event(250, "add_disturbance", agents=(6,), covariance=PUSH, duration=1),
])
# an odd run length, so the last pair of rounds has one round, and M
# changed at odd rounds, so rounds 90 and 91, and 150 and 151, elect with
# different M within one pair
ODD = dataclasses.replace(DESK, rounds=DESK.rounds - 1)
ODD_BANDWIDTH = Scenario("odd-bandwidth", [
    Event(91, "set_bandwidth", bandwidth=1),
    Event(151, "set_bandwidth", bandwidth=3),
    Event(201, "set_B_zero", agents=(4,)),
])
CASES = {**{name: (make(), False, DESK) for name, make in PRESETS.items()},
         "combined": (COMBINED, False, DESK),
         "select-on-raw": (None, True, DESK),
         "odd-rounds": (ODD_BANDWIDTH, False, ODD)}

# three agents on the desk plant with distinct noise and a distinct gain
# per ordered pair, agents 1 and 3 uncoupled: a coupling block read as its
# transpose, or an agent's noise drawn with another's covariance, changes
# the run
PAIR_GAINS = np.array([[0.0, 0.5, 0.0], [1.5, 0.0, 1.0], [0.0, 0.25, 0.0]])
ASYMMETRIC = Fleet(DESK.A, DESK.B, DESK.F_self,
                   np.kron(PAIR_GAINS, DESK.F_cross),
                   [c * np.eye(4) for c in (3e-4, 1e-4, 6e-4)])

# sha256 of gamma (uint8) and priorities (<i2), run after run, of desk seed
# 7, runs 0..7: taken from the per-run engine, which the chunk engine must
# reproduce exactly
PINNED = {
    "fault-free": "c9b101e55b3650f0c28035a52ea455ba3166ccfaeb4e12a6671c21344edeadf7",
    "actuator-failure": "591df12ffe0b16ff71fc587a9c1103541217c17822af75a5729fb3fdf7ede888",
    "bandwidth-loss": "53229543af2ea1a510cf6c34d68aecc9dd6f1f6b84f8d8d3c20182edc866982e",
    "shaken-pole": "83d3876f1e64666eb663428ad233b63257daea5d66c3237825d2abb9ef6c0a71",
}


def lockstep(runs, scenario=None, raw=False, fleet=None,
             schedule_only=False, cfg=DESK):
    """Seed 7 runs of cfg; raw runs them with scale None."""
    return run_lockstep(fleet or cfg.models(), cfg.bandwidth,
                        None if raw else cfg.quant_scale, cfg.rounds, 7, runs,
                        scenario=scenario, schedule_only=schedule_only)


def same_bits(a: RunTrace, b: RunTrace) -> bool:
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).shape == getattr(b, f).shape
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in FIELDS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_chunk_size_invariance(case):
    # run 40 sits alone, last, in the middle, first and in the middle of
    # chunks of 1, 2, 7, 25 and DESK_CHUNK runs; every run of every chunk
    # must equal, bit for bit, its trace from one chunk that starts at run
    # 0 and is longer than all of them, so never equals one of them
    scenario, on_raw, cfg = CASES[case]
    tested = [range(lo, lo + size) for size, lo in (
        (1, 40), (2, 39), (7, 37), (25, 40),
        (DESK_CHUNK, 40 - DESK_CHUNK // 2))]
    whole = range(max(runs.stop for runs in tested) + 1)
    ref = dict(zip(whole, lockstep(whole, scenario, on_raw, cfg=cfg)))
    for runs in tested:
        traces = lockstep(runs, scenario, on_raw, cfg=cfg)
        assert len(traces) == len(runs)
        for run, trace in zip(runs, traces):
            assert same_bits(trace, ref[run]), (case, len(runs), run)
            assert all(getattr(trace, f).flags.c_contiguous for f in FIELDS)
    single = run_single(cfg.models(), cfg.bandwidth,
                        None if on_raw else cfg.quant_scale, cfg.rounds, 7,
                        40, scenario=scenario)
    assert same_bits(single, ref[40])
    assert single.gamma.shape == (cfg.rounds, cfg.n_agents)
    assert single.states.shape == (cfg.rounds, cfg.n_agents, cfg.n)


def schedule_hash(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.gamma.astype(np.uint8).tobytes())
        h.update(trace.priorities.astype("<i2").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_integer_schedule_pinned(name):
    assert schedule_hash(lockstep(range(8), PRESETS[name]())) == PINNED[name]


@pytest.mark.parametrize("cfg", [DESK, FULL], ids=["desk", "full"])
@pytest.mark.parametrize("on_raw", [False, True], ids=["quantized", "raw"])
def test_schedule_only_matches_full_engine(cfg, on_raw):
    # one whole fault-free chunk; the schedule-only path skips the
    # estimates and stores neither states nor errors, yet every schedule
    # array is the same bit for bit
    runs = range(CHUNK_CELLS // (cfg.rounds * cfg.n_agents))
    full = lockstep(runs, raw=on_raw, cfg=cfg)
    lean = lockstep(runs, raw=on_raw, schedule_only=True, cfg=cfg)
    assert len(lean) == len(full) == len(runs) > 1
    for a, b in zip(full, lean):
        assert b.states is None and b.errors is None
        assert b.priorities.dtype == (np.float64 if on_raw else np.int16)
        for f in ("gamma", "priorities", "noise"):
            got, want = getattr(b, f), getattr(a, f)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f


def test_raw_and_quantized_views_of_one_run():
    # with M = N every agent sends in every round from 2 on, whatever its
    # priority, so a run with scale None and one with the config's scale
    # share their schedule and errors: the first keeps the raw priorities
    # it ranked, the second their quantized values
    wide = dataclasses.replace(DESK, bandwidth=DESK.n_agents)
    raw, quantized = (lockstep(range(3, 6), raw=on_raw, cfg=wide)
                      for on_raw in (True, False))
    for a, b in zip(raw, quantized):
        for f in ("gamma", "states", "errors", "noise"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), f
        assert a.priorities.dtype == np.float64
        assert b.priorities.dtype == np.int16
        assert b.priorities.ravel().tolist() == [
            ref_quantize(r, DESK.quant_scale) for r in a.priorities.ravel()]
        assert a.priorities.any() and b.priorities.any()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scale", [None, DESK.quant_scale],
                         ids=["raw", "quantized"])
def test_nan_priority_refused(scale):
    # agent 2's failed cart-pole grows until its state leaves the float64
    # range: its raw priority is +inf from round 865, which quantizes to
    # 255, and NaN from round 1626, which a cast would broadcast as 0
    with pytest.raises(ConfigError, match="run 0, agent 2: priority NaN at "
                       "round 1626; its state has left the float64 range"):
        run_single(DESK.models(), DESK.bandwidth, scale, 1700, seed=5, run=0,
                   scenario=actuator_failure((2,), 100))


def test_schedule_only_pinned():
    assert schedule_hash(lockstep(range(8), schedule_only=True)) \
        == PINNED["fault-free"]


@pytest.mark.parametrize("scenario", [
    *(make() for name, make in sorted(PRESETS.items()) if name != "fault-free"),
    COMBINED, Scenario("narrow", [Event(120, "set_bandwidth", bandwidth=1)])],
    ids=lambda s: s.name)
def test_schedule_only_refuses_events(scenario):
    # the path serves fault-free runs only: a mutated plant needs the
    # estimates, and a bandwidth change is refused too
    with pytest.raises(ConfigError, match="has events"):
        lockstep(range(2), scenario, schedule_only=True)


@pytest.mark.parametrize("fleet, scenario, cfg", [
    (DESK.models(), None, DESK), (DESK.models(), COMBINED, DESK),
    (ASYMMETRIC, None, DESK), (DESK.models(), ODD_BANDWIDTH, ODD)],
    ids=["fault-free", "combined", "asymmetric", "odd-rounds"])
def test_chunk_matches_oracle(fleet, scenario, cfg):
    # every round of every run of one chunk against the agent-by-agent
    # oracle, and the senders each round's priorities elect at the M in
    # effect then; a plant that the scenario has changed is compared on
    # priorities and estimates only
    matched = np.ones((cfg.rounds, len(fleet)), dtype=bool)
    bandwidth = np.full(cfg.rounds, cfg.bandwidth)
    for ev in (scenario.events if scenario else ()):
        if ev.kind == "set_bandwidth":
            bandwidth[ev.k:] = ev.bandwidth
            continue
        end = ev.k + ev.duration + 1 if ev.kind == "add_disturbance" else None
        matched[ev.k:end, [a - 1 for a in ev.agents]] = False
    for trace in lockstep(range(3, 8), scenario, fleet=fleet, cfg=cfg):
        xhat = trace.states - trace.errors
        for k, q, xhat_next, x_next in ref_replay(fleet, trace,
                                                  cfg.quant_scale):
            assert q == trace.priorities[k].tolist(), k
            if k + 2 < cfg.rounds:
                assert set(np.flatnonzero(trace.gamma[k + 2]) + 1) == set(
                    ref_senders(q, bandwidth[k])), k
            assert np.allclose(xhat[k + 1], xhat_next, atol=1e-9), k
            ok = matched[k]
            assert np.allclose(trace.states[k + 1, ok], x_next[ok],
                               atol=1e-9), k


def test_chunks_cover_runs_in_order():
    # the desk fleet runs in chunks of 64, the 20-agent fleet in chunks of
    # at most 19, and a run larger than the budget in chunks of one
    for run_cells, most in ((DESK_CELLS, 64), (300 * 20, 19),
                            (CHUNK_CELLS, 1), (2 * CHUNK_CELLS, 1)):
        for runs in (1, 7, most, most + 1, 3 * most + 5):
            for parts in (1, 2, 8):
                got = chunks(runs, run_cells, parts)
                assert [r for c in got for r in c] == list(range(runs))
                assert all(1 <= len(c) <= most for c in got)
                assert len(got) == max(min(parts, runs), -(-runs // most))
    assert lockstep(range(0)) == []
