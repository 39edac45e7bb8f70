"""The lockstep round engine: a run's trace is the same whatever chunk it
is simulated in, every round of a chunk matches the agent-by-agent oracle,
and the integer schedule of a fixed seed is pinned.

Only integer arrays are pinned: float bits can differ across BLAS builds,
while the chunk-size comparisons below run on one build and compare every
array bit for bit."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from priofd.config import SystemConfig
from priofd.scenarios import PRESETS, Event, Scenario
from priofd.simulate import (CHUNK_RUNS, RunTrace, chunks, run_lockstep,
                             run_single)

from oracles import ref_replay

DESK = SystemConfig.load(Path(__file__).resolve().parent.parent / "configs"
                         / "cartpole_desk.json")
FIELDS = [f.name for f in dataclasses.fields(RunTrace)]
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
CASES = {**{name: (make(), False) for name, make in PRESETS.items()},
         "combined": (COMBINED, False), "select-on-raw": (None, True)}

# sha256 of gamma (uint8) and priorities (<i2), run after run, of desk seed
# 7, runs 0..7: taken from the per-run engine, which the chunk engine must
# reproduce exactly
PINNED = {
    "fault-free": "c9b101e55b3650f0c28035a52ea455ba3166ccfaeb4e12a6671c21344edeadf7",
    "actuator-failure": "591df12ffe0b16ff71fc587a9c1103541217c17822af75a5729fb3fdf7ede888",
    "bandwidth-loss": "53229543af2ea1a510cf6c34d68aecc9dd6f1f6b84f8d8d3c20182edc866982e",
    "shaken-pole": "83d3876f1e64666eb663428ad233b63257daea5d66c3237825d2abb9ef6c0a71",
}


def lockstep(runs, scenario=None, select_on_raw=False):
    return run_lockstep(DESK.models(), DESK.bandwidth, DESK.quant_scale,
                        DESK.rounds, 7, runs, scenario=scenario,
                        select_on_raw=select_on_raw)


def same_bits(a: RunTrace, b: RunTrace) -> bool:
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).shape == getattr(b, f).shape
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in FIELDS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_chunk_size_invariance(case):
    # run 40 sits alone, last, in the middle, first and in the middle of
    # chunks of 1, 2, 7, 25 and CHUNK_RUNS runs; every run of every chunk
    # must equal its trace from one chunk of 64 runs, bit for bit
    scenario, on_raw = CASES[case]
    ref = dict(zip(range(8, 72), lockstep(range(8, 72), scenario, on_raw)))
    for size, lo in ((1, 40), (2, 39), (7, 37), (25, 40),
                     (CHUNK_RUNS, 40 - CHUNK_RUNS // 2)):
        runs = range(lo, lo + size)
        traces = lockstep(runs, scenario, on_raw)
        assert len(traces) == size
        for run, trace in zip(runs, traces):
            assert same_bits(trace, ref[run]), (case, size, run)
            assert all(getattr(trace, f).flags.c_contiguous for f in FIELDS)
    single = run_single(DESK.models(), DESK.bandwidth, DESK.quant_scale,
                        DESK.rounds, 7, 40, scenario=scenario,
                        select_on_raw=on_raw)
    assert same_bits(single, ref[40])
    assert single.gamma.shape == (DESK.rounds, DESK.n_agents)
    assert single.states.shape == (DESK.rounds, DESK.n_agents, DESK.n)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_integer_schedule_pinned(name):
    h = hashlib.sha256()
    for trace in lockstep(range(8), PRESETS[name]()):
        h.update(trace.gamma.astype(np.uint8).tobytes())
        h.update(trace.priorities.astype("<i2").tobytes())
    assert h.hexdigest() == PINNED[name]


@pytest.mark.parametrize("scenario", [None, COMBINED], ids=["fault-free",
                                                            "combined"])
def test_chunk_matches_oracle(scenario):
    # every round of every run of one chunk against the agent-by-agent
    # oracle; a plant that the scenario has changed is compared on
    # priorities and estimates only
    models = DESK.models()
    matched = np.ones((DESK.rounds, DESK.n_agents), dtype=bool)
    for ev in (scenario.events if scenario else ()):
        end = ev.k + ev.duration + 1 if ev.kind == "add_disturbance" else None
        matched[ev.k:end, [a - 1 for a in ev.agents]] = False
    for trace in lockstep(range(3, 8), scenario):
        xhat = trace.states - trace.errors
        for k, q, xhat_next, x_next in ref_replay(models, trace,
                                                  DESK.quant_scale):
            assert q == trace.priorities[k].tolist(), k
            assert np.allclose(xhat[k + 1], xhat_next, atol=1e-9), k
            ok = matched[k]
            assert np.allclose(trace.states[k + 1, ok], x_next[ok],
                               atol=1e-9), k


def test_chunks_cover_runs_in_order():
    for runs in (1, 7, CHUNK_RUNS, CHUNK_RUNS + 1, 3 * CHUNK_RUNS + 5):
        for parts in (1, 2, 8):
            got = chunks(runs, parts)
            assert [r for c in got for r in c] == list(range(runs))
            assert all(1 <= len(c) <= CHUNK_RUNS for c in got)
            assert len(got) >= min(parts, runs)
    assert lockstep(range(0)) == []
