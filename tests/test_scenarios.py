import dataclasses
import json

import numpy as np
import pytest

from priofd.errors import ConfigError
from priofd.harness import run_batch
from priofd.scenarios import (Scenario, Event, actuator_failure,
                              bandwidth_loss, fault_free, resolve_scenario,
                              shaken_pole)
from priofd.simulate import run_single

from oracles import ref_replay


def test_empty_scenario_changes_nothing(desk_cfg, desk_models):
    base = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                      80, seed=31, run=0)
    with_scn = run_single(desk_models, desk_cfg.bandwidth,
                          desk_cfg.quant_scale, 80, seed=31, run=0,
                          scenario=fault_free())
    assert np.array_equal(base.priorities, with_scn.priorities)
    assert np.array_equal(base.gamma, with_scn.gamma)
    assert np.array_equal(base.errors, with_scn.errors)


@pytest.mark.parametrize("scn", [actuator_failure((2,), 40),
                                 bandwidth_loss(1, 40),
                                 shaken_pole(2, 40, duration=20)])
def test_prefix_identical_to_fault_free(desk_cfg, desk_models, scn):
    base = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                      80, seed=37, run=0)
    faulted = run_single(desk_models, desk_cfg.bandwidth,
                         desk_cfg.quant_scale, 80, seed=37, run=0,
                         scenario=scn)
    assert np.array_equal(base.states[:40], faulted.states[:40])
    assert np.array_equal(base.priorities[:40], faulted.priorities[:40])
    assert not np.array_equal(base.priorities[40:], faulted.priorities[40:])


def test_actuator_failure_mutates_plant_only(desk_cfg, desk_models):
    # from k=0 agents 2 and 3 run on plants without input, while every
    # shared estimate keeps the original input matrix
    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       40, seed=0, run=0, scenario=actuator_failure((2, 3), 0))
    x, xhat = trace.states, trace.states - trace.errors
    for k, _, xhat_next, x_next in ref_replay(desk_models, trace,
                                              desk_cfg.quant_scale):
        assert np.allclose(xhat[k + 1], xhat_next, rtol=0, atol=1e-9)
        for i in (1, 2):
            assert np.allclose(x[k + 1, i],
                               desk_models.A @ x[k, i] + trace.noise[k, i],
                               rtol=0, atol=1e-9)
        healthy = [0, 3, 4, 5]
        assert np.allclose(x[k + 1, healthy], x_next[healthy], rtol=0,
                           atol=1e-9)
    assert desk_models.B.any()   # the scenario leaves the model intact


def test_faulty_agent_error_tracks_model_mismatch(desk_cfg, desk_models):
    # after B := 0 the plant ignores its input, so the estimation error
    # after a received round equals v - B u rather than v
    scn = actuator_failure((1,), 5)
    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       60, seed=41, run=0, scenario=scn)
    sent = np.flatnonzero(trace.gamma[5:-1, 0]) + 5
    assert sent.size > 0
    mismatch = [not np.array_equal(trace.errors[k + 1, 0], trace.noise[k, 0])
                for k in sent]
    assert all(mismatch)


def refused(desk_cfg, desk_models, scenario, match):
    """run_single refuses the scenario before round 0: its events lie in
    rounds that a 10-round run never reaches, if at all."""
    with pytest.raises(ConfigError, match=match):
        run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale, 10,
                   seed=0, run=0, scenario=scenario)


def test_unknown_agent_rejected(desk_cfg, desk_models):
    refused(desk_cfg, desk_models, actuator_failure((99,), 9), "agents 1..6")


def test_bandwidth_event_validated(desk_cfg, desk_models):
    refused(desk_cfg, desk_models,
            Scenario("x", [Event(9, "set_bandwidth", bandwidth=0)]),
            "bandwidth event at k=9 must be positive")


def test_event_after_last_round_refused(desk_cfg, desk_models):
    refused(desk_cfg, desk_models, actuator_failure((2,), 10),
            "outside rounds 0..9")


def test_disturbance_covariance_shape_validated(desk_cfg, desk_models):
    refused(desk_cfg, desk_models, shaken_pole(2, 9, n=5),
            r"covariance shape \(5, 5\) does not match state dimension 4")
    with pytest.raises(ConfigError, match="key 'covariance': rows of unequal"):
        Event.from_dict({"k": 9, "kind": "add_disturbance", "agents": [2],
                         "duration": 5, "covariance": [[1.0, 0.0], [0.0]]})


@pytest.mark.parametrize("cov,match", [
    (np.diag([1.0, -1.0, 1.0, 1.0]), "is not positive semidefinite"),
    # cholesky reads only the lower triangle, which here is the identity
    (np.triu(np.ones((4, 4))), "must be symmetric")])
def test_disturbance_covariance_must_be_symmetric_psd(desk_cfg, cov, match):
    scenario = Scenario("x", [Event(9, "add_disturbance", agents=(2,),
                                    covariance=tuple(map(tuple, cov)),
                                    duration=5)])
    with pytest.raises(ConfigError,
                       match=f"disturbance covariance at k=9 {match}"):
        scenario.check_fits(10, desk_cfg.n_agents, desk_cfg.n)


@pytest.mark.parametrize("duration", [0, -5])
def test_disturbance_duration_validated(desk_cfg, desk_models, small_table,
                                        duration):
    refused(desk_cfg, desk_models, shaken_pole(2, 9, duration=duration),
            f"disturbance at k=9 has duration {duration} < 1")
    with pytest.raises(ConfigError,
                       match=f"disturbance at k=100 has duration {duration}"):
        run_batch(desk_cfg, shaken_pole(2, 100, duration=duration),
                  small_table, runs=1, seed=1)


@pytest.mark.parametrize("event", [
    Event(9, "set_B_zero"),
    dataclasses.replace(shaken_pole(2, 9).events[0], agents=())])
def test_plant_event_without_agents_refused(desk_cfg, desk_models,
                                            small_table, event):
    # an actuator failure or disturbance on no agent changes nothing, yet
    # a report would put pre/post rates around its round
    refused(desk_cfg, desk_models, Scenario("x", [event]),
            f"{event.kind} event at k=9 names no agent")
    with pytest.raises(ConfigError, match="names no agent"):
        run_batch(desk_cfg, Scenario("x", [dataclasses.replace(event, k=100)]),
                  small_table, runs=1, seed=1)


def test_shaken_pole_saturates_priority(desk_cfg, desk_models):
    scn = shaken_pole(agent=3, k=50, duration=30)
    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       100, seed=43, run=0, scenario=scn)
    assert trace.priorities[:50, 2].max() < 255
    assert trace.priorities[52:60, 2].max() == 255
    # disturbance expires: the plant matches the model again afterwards
    follow = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                        200, seed=43, run=0, scenario=scn)
    late_sent = np.flatnonzero(follow.gamma[120:-1, 2]) + 120
    assert late_sent.size > 0
    for k in late_sent[-5:]:
        assert np.array_equal(follow.errors[k + 1, 2], follow.noise[k, 2])


def test_disturbance_expiry_round_takes_plant_path(desk_cfg, desk_models):
    # the disturbance of rounds 40..55 expires in round 56, which agent 2
    # sends in: that round still forms e = x - xhat from the simulated
    # plant, so e(57) equals v(56) only up to rounding; later sends take
    # the exact reset e = v
    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       80, seed=47, run=0, scenario=shaken_pole(2, 40, 16))
    sends = np.flatnonzero(trace.gamma[56:-1, 1]) + 56
    assert sends[0] == 56 and sends.size > 3
    err, v = trace.errors[:, 1], trace.noise[:, 1]
    assert not np.array_equal(err[57], v[56])
    assert np.allclose(err[57], v[56], rtol=0, atol=1e-12)
    for k in sends[1:]:
        assert np.array_equal(err[k + 1], v[k])


def test_second_disturbance_restarts_stream(desk_cfg, desk_models):
    # a disturbance event on an already shaken agent draws its stream from
    # the start again: the extra noise of round 45 repeats that of round 40
    scn = Scenario("twice", shaken_pole(2, 40, 20).events
                   + shaken_pole(2, 45, 20).events)
    trace = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                       60, seed=47, run=0, scenario=scn)
    extra = {k: trace.states[k + 1, 1] - x_next[1] for k, _, _, x_next in
             ref_replay(desk_models, trace, desk_cfg.quant_scale)}
    assert np.abs(extra[40]).max() > 1e-3
    for j in range(5):
        assert np.allclose(extra[45 + j], extra[40 + j], rtol=0, atol=1e-12)
    assert not np.allclose(extra[41], extra[40], rtol=0, atol=1e-3)


def test_disturbance_leaves_other_noise_untouched(desk_cfg, desk_models):
    base = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                      80, seed=47, run=0)
    shaken = run_single(desk_models, desk_cfg.bandwidth, desk_cfg.quant_scale,
                        80, seed=47, run=0, scenario=shaken_pole(2, 40, 20))
    assert np.array_equal(base.noise, shaken.noise)


def test_bandwidth_event_naming_agents_refused(desk_cfg, desk_models):
    # M is shared by the fleet: the agents would be silently ignored
    event = Event.from_dict({"k": 9, "kind": "set_bandwidth", "bandwidth": 1,
                             "agents": [3]})
    refused(desk_cfg, desk_models, Scenario("x", [event]),
            r"set_bandwidth event at k=9 names agents \(3,\)")


@pytest.mark.parametrize("name", [None, ["x"]])
def test_scenario_name_must_be_a_string(tmp_path, name):
    # str() would put "None" or "['x']" into the CSV provenance
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": name, "events": []}))
    with pytest.raises(ConfigError, match="key 'name': expected a string"):
        Scenario.load(path)


@pytest.mark.parametrize("kind", [None, ["set_B_zero"]])
def test_event_kind_must_be_a_string(kind):
    with pytest.raises(ConfigError, match="key 'kind': expected a string"):
        Event.from_dict({"k": 9, "kind": kind, "agents": [2]})


def test_round_trip_and_presets(tmp_path):
    scn = actuator_failure((2, 3, 4, 5), 100)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"name": "actuator-failure", "events": [
        {"k": 100, "kind": "set_B_zero", "agents": [2, 3, 4, 5]}]}))
    back = Scenario.load(path)
    assert back.name == scn.name
    assert back.events == scn.events
    assert resolve_scenario(str(path)).events == scn.events
    assert resolve_scenario("bandwidth-loss").events[0].kind == "set_bandwidth"
    assert resolve_scenario(None).events == []
    with pytest.raises(ConfigError):
        resolve_scenario("no-such-preset")


def test_faulty_agents_listing():
    assert actuator_failure((4, 2), 10).faulty_agents() == (2, 4)
    assert bandwidth_loss(1, 10).faulty_agents() == ()
    assert shaken_pole(3, 10).faulty_agents() == (3,)
