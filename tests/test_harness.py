import dataclasses
import json

import numpy as np
import pytest

from priofd.calibration import calibrate
from priofd.cli import main
from priofd.errors import ConfigError
from priofd.fd_dynamic import dfd_verdicts
from priofd.fd_static import sfd_verdicts
from priofd.harness import (DETECTORS, DFD, SEP, SFD, AggregateReport,
                            RunRecord, _run_chunk, emit_csv, parse_run_record,
                            report_from_records, run_batch,
                            write_alarm_series, write_detection_delays,
                            write_run_record, write_table)
from priofd.scenarios import (PRESETS, actuator_failure, bandwidth_loss,
                              fault_free, shaken_pole)


@pytest.fixture(scope="module")
def small_batch(desk_cfg, small_table):
    report, records = run_batch(desk_cfg, actuator_failure((2,), 100),
                                small_table, runs=8, seed=900,
                                record_runs=8)
    return report, records


def both_entry_points(cfg, table, records, scenario, monitored=2,
                      band_agent=2, band_component=3):
    """The same request to run_batch and to report_from_records; each
    refusal below must come from both."""
    return (lambda: run_batch(cfg, scenario, table, runs=1, seed=0,
                              monitored=monitored, band_agent=band_agent,
                              band_component=band_component),
            lambda: report_from_records(records, cfg, scenario, monitored,
                                        band_agent, band_component))


def test_single_run_probabilities_are_indicator(desk_cfg, small_table):
    report, _ = run_batch(desk_cfg, None, small_table, runs=1, seed=50)
    assert set(np.unique(report.p)) <= {0.0, 1.0}


def test_incompatible_table_refused(desk_cfg, small_table):
    other = dataclasses.replace(small_table, eta=0.05)
    with pytest.raises(ConfigError):
        run_batch(desk_cfg, None, other, runs=1, seed=0)


def test_event_after_last_round_refused(desk_cfg, small_table, small_batch):
    _, records = small_batch
    for call in both_entry_points(desk_cfg, small_table, records,
                                  actuator_failure((2,), 400)):
        with pytest.raises(ConfigError, match="k=400"):
            call()


def test_event_leaving_no_post_interval_refused(desk_cfg, small_table,
                                                small_batch):
    # k + d >= rounds: the interval [k + d, rounds) the post rates average
    # over would be empty
    _, records = small_batch
    for k in (290, 295):
        for call in both_entry_points(desk_cfg, small_table, records,
                                      actuator_failure((2,), k)):
            with pytest.raises(ConfigError,
                               match=f"k={k} leaves no post-event"):
                call()
    report, _ = run_batch(desk_cfg, actuator_failure((2,), 289), small_table,
                          runs=1, seed=0)
    assert np.isfinite(report.post).all()


def test_event_leaving_no_pre_interval_refused(desk_cfg, small_table,
                                               small_batch):
    # k <= warmup_discard = 50: the interval [warmup_discard, k) the pre
    # rates average over would be empty
    _, records = small_batch
    for k in (30, 50):
        for call in both_entry_points(desk_cfg, small_table, records,
                                      actuator_failure((2,), k)):
            with pytest.raises(ConfigError,
                               match=f"k={k} leaves no pre-event"):
                call()
    report, _ = run_batch(desk_cfg, actuator_failure((2,), 51), small_table,
                          runs=2, seed=5)
    assert np.isfinite(report.pre).all()


def test_in_sample_seed_refused(desk_cfg, small_table):
    seed = small_table.seed
    with pytest.raises(ConfigError, match=f"seed {seed} equals .* seed {seed}"):
        run_batch(desk_cfg, None, small_table, runs=1, seed=seed)


def test_event_agent_outside_fleet_refused(desk_cfg, small_table,
                                           small_batch):
    _, records = small_batch
    for agent in (0, desk_cfg.n_agents + 1):
        for call in both_entry_points(desk_cfg, small_table, records,
                                      actuator_failure((2, agent), 100)):
            with pytest.raises(ConfigError, match="agents 1..6"):
                call()


def test_monitored_and_band_outside_fleet_refused(desk_cfg, small_table,
                                                  small_batch):
    _, records = small_batch
    scenario = actuator_failure((2,), 100)
    for kw in ({"monitored": 0}, {"monitored": 7}, {"band_agent": 7}):
        for call in both_entry_points(desk_cfg, small_table, records,
                                      scenario, **kw):
            with pytest.raises(ConfigError, match="outside the fleet"):
                call()
    for comp in (0, desk_cfg.n + 1):
        for call in both_entry_points(desk_cfg, small_table, records,
                                      scenario, band_component=comp):
            with pytest.raises(ConfigError,
                               match=f"band component must be in 1..{desk_cfg.n}"):
                call()


def test_no_runs_refused(desk_cfg, small_table):
    with pytest.raises(ConfigError, match="runs must be >= 1"):
        run_batch(desk_cfg, None, small_table, runs=0, seed=0)
    with pytest.raises(ConfigError, match="runs must be >= 1"):
        report_from_records([], desk_cfg, fault_free(), 1, 1)
    with pytest.raises(ConfigError, match="record_runs must be >= 0, got -1"):
        run_batch(desk_cfg, None, small_table, runs=1, seed=0, record_runs=-1)


def test_short_records_refused(desk_cfg):
    # 3-round, 2-agent records: events with an empty pre- or post-event
    # interval or beyond the last round, and agents outside the records,
    # are refused as run_batch refuses them
    rounds, agents = 3, 2
    cfg = dataclasses.replace(desk_cfg, rounds=rounds, warmup_discard=1, d=1)
    zeros = np.zeros((rounds, agents), dtype=bool)
    records = [RunRecord(0, 9, zeros, zeros.astype(np.int16),
                         np.zeros((rounds, agents, 2), dtype=bool),
                         np.zeros((rounds, agents, 1)))]
    for scenario, monitored, match in (
            (actuator_failure((1,), 0), 1, "k=0 leaves no pre-event"),
            (actuator_failure((1,), 2), 1, "k=2 leaves no post-event"),
            (actuator_failure((1,), 7), 1, "k=7"),
            (fault_free(), 5, "outside the fleet"),
            (bandwidth_loss(0, 1), 1, "bandwidth event at k=1 must be positive"),
            (shaken_pole(1, 1, duration=0), 1,
             "disturbance at k=1 has duration 0 < 1")):
        with pytest.raises(ConfigError, match=match):
            report_from_records(records, cfg, scenario, monitored, 1, 1)
    with pytest.raises(ConfigError, match="band component must be in 1..1"):
        report_from_records(records, cfg, fault_free(), 1, 1, 2)


def test_monitored_defaults_to_first_faulty(small_batch):
    report, _ = small_batch
    assert report.monitored == 2
    assert report.k_event == 100


def test_detection_delays_recorded(small_batch):
    report, _ = small_batch
    assert np.isfinite(report.delay).all()
    assert (report.delay >= 0).all()


def test_record_roundtrip(tmp_path, small_batch):
    _, records = small_batch
    path = tmp_path / "run.csv"
    header = "# config_hash=x;seed=900;runs=8;scenario=t;run=3\n"
    write_run_record(records[3], path, header)
    back = parse_run_record(path)
    assert back.run == 3 and back.seed == 900
    assert back == records[3]


def test_report_recomputable_from_records(desk_cfg, small_table, small_batch):
    report, records = small_batch
    again = report_from_records(records, desk_cfg, actuator_failure((2,), 100),
                                monitored=report.monitored,
                                band_agent=report.band_agent)
    for field in dataclasses.fields(AggregateReport):
        assert np.array_equal(getattr(report, field.name),
                              getattr(again, field.name),
                              equal_nan=True), field.name


def test_emitted_files_deterministic(tmp_path, desk_cfg, small_table):
    outs = []
    for sub in ("a", "b"):
        report, records = run_batch(desk_cfg, bandwidth_loss(1, 100),
                                    small_table, runs=4, seed=77,
                                    record_runs=2)
        files = emit_csv(report, records, tmp_path / sub, desk_cfg, 77,
                         "bandwidth-loss")
        outs.append({f.name: f.read_bytes() for f in files})
    assert outs[0] == outs[1]
    assert "alarm_probability.csv" in outs[0]
    assert "run_00001.csv" in outs[0]


def test_chunk_records_only_runs_below_record_runs(desk_cfg, small_table):
    out = _run_chunk(desk_cfg.models(), desk_cfg.bandwidth,
                     desk_cfg.quant_scale, desk_cfg.rounds, 5,
                     actuator_failure((2,), 100), small_table, (1, 2), 3,
                     range(1, 6))
    assert [None if rec is None else rec.run for _, rec in out] == [
        1, 2, None, None, None]
    for (alarms, band), rec in out[:2]:
        assert np.array_equal(alarms, rec.alarms)
        assert np.array_equal(band, rec.states[:, 1, 2])
        for i in range(desk_cfg.n_agents):
            q = rec.priorities[:, i]
            assert np.array_equal(alarms[:, i, SFD], sfd_verdicts(
                q, small_table.sfd_kappa, small_table.d))
            assert np.array_equal(alarms[:, i, DFD], dfd_verdicts(
                rec.gamma[:, i], q, small_table))


def test_workers_match_serial(tmp_path, desk_cfg, small_table):
    serial, _ = run_batch(desk_cfg, None, small_table, runs=6, seed=5)
    parallel, _ = run_batch(desk_cfg, None, small_table, runs=6, seed=5,
                            workers=2)
    assert np.array_equal(serial.p, parallel.p)
    assert np.array_equal(serial.state_mean, parallel.state_mean)
    with pytest.raises(ConfigError, match="workers must be >= 1, got 0"):
        run_batch(desk_cfg, None, small_table, runs=6, seed=5, workers=0)


def test_calibrate_workers_match_serial(tmp_path, desk_cfg):
    cfg = tmp_path / "cfg.json"
    desk_cfg.save(cfg)
    outs = {}
    for workers in (1, 2):
        table = tmp_path / f"{workers}.pfdt"
        report = tmp_path / f"{workers}.csv"
        assert main(["calibrate", "--config", str(cfg), "--runs", "12",
                     "--seed", "4", "-o", str(table), "--report", str(report),
                     "--workers", str(workers)]) == 0
        outs[workers] = table.read_bytes(), report.read_bytes()
    assert outs[1] == outs[2]
    with pytest.raises(ConfigError, match="workers must be >= 1, got 0"):
        calibrate(desk_cfg, runs=12, seed=4, workers=0)
    assert main(["calibrate", "--config", str(cfg), "--runs", "12",
                 "-o", str(tmp_path / "0.pfdt"), "--workers", "0"]) == 2


def test_hand_computed_aggregate_bytes(tmp_path, desk_cfg):
    rounds, agents = 3, 2
    cfg = dataclasses.replace(desk_cfg, rounds=rounds, warmup_discard=1, d=2)

    def rec(run, sfd, dfd, band):
        states = np.zeros((rounds, agents, 1))
        states[:, 0, 0] = band
        alarms = np.zeros((rounds, agents, len(DETECTORS)), dtype=bool)
        alarms[..., SFD], alarms[..., DFD] = sfd, dfd
        return RunRecord(run, 9, np.zeros((rounds, agents), dtype=bool),
                         np.zeros((rounds, agents), dtype=np.int16), alarms,
                         states)

    records = [
        rec(0, [[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 0], [1, 0]], [1, 2, 3]),
        rec(1, [[0, 0], [1, 1], [0, 1]], [[0, 0], [1, 0], [1, 1]], [3, 2, 1]),
    ]
    report = report_from_records(records, cfg, fault_free(), monitored=1,
                                 band_agent=1, band_component=1)
    path = tmp_path / "alarm.csv"
    header = "# config_hash=test;seed=9;runs=2;scenario=fault-free\n"
    write_alarm_series(report, path, header)
    expect = (header + "k;p_sfd;p_dfd\n"
              "0;0.0;0.0\n"
              "1;1.0;0.5\n"
              "2;0.5;1.0\n")
    assert path.read_text() == expect
    # agent 1's band component is (1, 2, 3) and (3, 2, 1) over the runs
    assert report.state_mean.tolist() == [2.0, 2.0, 2.0]
    assert report.state_std.tolist() == [1.0, 0.0, 1.0]
    # first alarms of agent 1 from an event at k=1
    event = report_from_records(
        records, dataclasses.replace(cfg, warmup_discard=0, d=1),
        actuator_failure((1,), 1), monitored=1, band_agent=1,
        band_component=1)
    assert event.delay[:, SFD].tolist() == [0.0, 0.0]
    assert event.delay[:, DFD].tolist() == [1.0, 0.0]
    # agent 1 alarms with p_sfd (0, 1, 0.5) and p_dfd (0, 0.5, 1): the pre
    # interval is [0, 1), the post interval [k + d, 3) = [2, 3)
    assert event.interval_rates("sfd", 1) == (0.0, 0.5)
    assert event.interval_rates("dfd", 1) == (0.0, 1.0)
    for name in ("sFD", "DFD", "both", ""):
        with pytest.raises(ValueError):
            event.interval_rates(name, 1)
    # agents are 1-based: 0 is not the last agent, and N+1 is refused too
    assert event.interval_rates("sfd", 2) != event.interval_rates("sfd", 1)
    for agent in (0, -1, agents + 1):
        with pytest.raises(ValueError, match=f"agent {agent} is not in 1..2"):
            event.interval_rates("sfd", agent)


def test_empty_delay_table_is_header_only(tmp_path, desk_cfg, small_table):
    report, _ = run_batch(desk_cfg, None, small_table, runs=2, seed=3)
    path = tmp_path / "delays.csv"
    write_detection_delays(report, path, "# h\n")
    assert path.read_text() == "# h\ndelay;n_sfd;n_dfd\n"


def reference_table(header, names, columns):
    """The CSV format spelled out: SEP.join(map(str, row)) over the columns'
    .tolist() values, bools as ints."""
    values = [[int(v) if isinstance(v, bool) else v
               for v in np.asarray(col).tolist()] for col in columns]
    return header + SEP.join(names) + "\n" + "".join(
        SEP.join(map(str, row)) + "\n" for row in zip(*values))


def test_write_table_golden(tmp_path):
    floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e39]
    n = len(floats)
    names = ("flag", "i16", "i64", "name", "x")
    columns = (np.arange(n) % 3 == 0,
               np.arange(n, dtype=np.int16) * -4096,
               np.arange(n, dtype=np.int64) * 2**61,
               ["sfd", "dfd", "a b", "", "x=1", "-", "z"],
               np.array(floats))
    path = tmp_path / "t.csv"
    write_table(path, "# h\n", names, columns)
    expect = reference_table("# h\n", names, columns)
    assert path.read_bytes() == expect.encode()
    assert expect.splitlines()[2:4] == [
        "1;0;0;sfd;nan", "0;-4096;2305843009213693952;dfd;inf"]
    assert [line.rsplit(SEP, 1)[1] for line in expect.splitlines()[2:]] == [
        "nan", "inf", "-inf", "-0.0", "5e-324", "0.1", "1e+39"]
    empty = tuple(np.asarray(col)[:0] for col in columns)
    write_table(path, "# h\n", names, empty)
    assert path.read_bytes() == reference_table("# h\n", names, empty).encode()
    assert path.read_text() == "# h\nflag;i16;i64;name;x\n"


def assert_cells(path, header_lines, names, rows):
    """Every cell of a CSV against the value it was written from: a float
    as the repr of the Python float, parsing back bit-exactly; an int or a
    bool as str(int(value)); anything else as str. Float bytes are not
    pinned, since they can differ across BLAS builds."""
    lines = path.read_text().splitlines()
    assert lines[header_lines] == ";".join(names)
    body = lines[header_lines + 1:]
    assert len(body) == len(rows)
    for line, row in zip(body, rows):
        cells = line.split(";")
        assert len(cells) == len(row), line
        for cell, value in zip(cells, row):
            if isinstance(value, (int, np.bool_, np.integer)):
                assert cell == str(int(value)), (line, value)
            elif isinstance(value, (float, np.floating)):
                assert cell == repr(float(value)), (line, value)
                assert (np.float64(cell).tobytes() == np.float64(value).tobytes()
                        or np.isnan(value) and cell == "nan"), (line, value)
            else:
                assert cell == str(value), (line, value)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_cell_follows_the_format_rule(tmp_path, desk_cfg, small_table,
                                            preset):
    scenario = PRESETS[preset]()
    report, records = run_batch(desk_cfg, scenario, small_table, runs=5,
                                seed=41, record_runs=2)
    emit_csv(report, records, tmp_path, desk_cfg, 41, scenario.name)
    ks = range(report.rounds)
    agent = report.monitored - 1
    assert_cells(tmp_path / "alarm_probability.csv", 1, ("k", "p_sfd", "p_dfd"),
                 [(k, report.p[k, agent, SFD], report.p[k, agent, DFD])
                  for k in ks])
    bands = []
    for k in ks:
        m, s = report.state_mean[k], report.state_std[k]
        bands.append((k, m - 3 * s, m - 2 * s, m - s, m, m + s, m + 2 * s,
                      m + 3 * s))
    assert_cells(tmp_path / "state_bands.csv", 1,
                 ("k", "minus3", "minus2", "minus1", "mean", "plus1", "plus2",
                  "plus3"), bands)
    rates = [(det, i + 1, report.pre[i, j], report.post[i, j])
             for det, j in (("sfd", SFD), ("dfd", DFD))
             for i in range(report.n_agents)]
    assert_cells(tmp_path / "interval_rates.csv", 1,
                 ("detector", "agent", "pre_rate", "post_rate"), rates)
    post_cells = [line.split(";")[3] for line in
                  (tmp_path / "interval_rates.csv").read_text().splitlines()[2:]]
    # the post interval exists exactly when the scenario has an event
    assert all((cell == "nan") == (report.k_event is None)
               for cell in post_cells)
    delays = [d[np.isfinite(d)] for d in
              (report.delay[:, SFD], report.delay[:, DFD])]
    top = int(max((d.max() for d in delays if d.size), default=-1))
    assert_cells(tmp_path / "detection_delays.csv", 1,
                 ("delay", "n_sfd", "n_dfd"),
                 [(t, np.count_nonzero(delays[0] == t),
                   np.count_nonzero(delays[1] == t)) for t in range(top + 1)])
    for rec in records:
        n_sel = rec.states.shape[2]
        assert_cells(
            tmp_path / f"run_{rec.run:05d}.csv", 1,
            ("k", "agent", "gamma", "quantized_priority", "sfd", "dfd",
             *(f"x{j + 1}" for j in range(n_sel))),
            [(k, i + 1, rec.gamma[k, i], rec.priorities[k, i],
              rec.alarms[k, i, SFD], rec.alarms[k, i, DFD], *rec.states[k, i])
             for k in ks for i in range(report.n_agents)])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    table = root / "thresholds.pfdt"
    assert main(["make-config", "--preset", "desk", "--seed", "1",
                 "--scale-fit-runs", "10", "-o", str(cfg)]) == 0
    assert main(["calibrate", "--config", str(cfg), "--runs", "40",
                 "--seed", "2", "-o", str(table),
                 "--report", str(root / "coverage.csv")]) == 0
    return root, cfg, table


class TestCli:
    def test_run_and_outputs(self, artifacts):
        root, cfg, table = artifacts
        out = root / "exp"
        assert main(["run", "--config", str(cfg), "--table", str(table),
                     "--scenario", "bandwidth-loss", "--runs", "5",
                     "--seed", "3", "--record-runs", "1",
                     "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"alarm_probability.csv", "state_bands.csv",
                "interval_rates.csv", "detection_delays.csv",
                "run_00000.csv"} <= names

    def test_bench_and_inspect(self, artifacts):
        # detector cost is measured by perfbench's online workload; the
        # CLI no longer has a bench subcommand
        root, cfg, table = artifacts
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg), "--table", str(table)])
        assert exc.value.code == 2
        assert main(["inspect-table", "--table", str(table)]) == 0

    def test_in_sample_seed_is_refused(self, artifacts, tmp_path, capsys):
        root, cfg, table = artifacts
        assert main(["run", "--config", str(cfg), "--table", str(table),
                     "--runs", "2", "--seed", "2",
                     "--out", str(tmp_path / "x")]) == 2
        assert "calibration seed 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_is_refused(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "t.pfdt")]) == 2

    def test_mismatched_table_is_refused(self, artifacts, tmp_path):
        root, cfg, table = artifacts
        other_cfg = tmp_path / "other.json"
        assert main(["make-config", "--preset", "desk", "--seed", "1",
                     "--eta", "0.02", "--scale-fit-runs", "10",
                     "-o", str(other_cfg)]) == 0
        assert main(["run", "--config", str(other_cfg), "--table", str(table),
                     "--runs", "2", "--out", str(tmp_path / "x")]) == 2

    def test_scale_fit_without_runs_is_refused(self, tmp_path, capsys):
        assert main(["make-config", "--scale-fit-runs", "0",
                     "-o", str(tmp_path / "c.json")]) == 2
        assert "runs >= 1, got 0" in capsys.readouterr().err

    def test_config_without_matrices_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"version": 1, "name": "x"}')
        assert main(["calibrate", "--config", str(cfg),
                     "-o", str(tmp_path / "t.pfdt")]) == 2
        assert f"{cfg}: missing key 'matrices'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("rows", None), ("cols", "four"),
                                           ("data", 3.0)])
    def test_matrix_field_is_named_with_its_matrix(self, artifacts, tmp_path,
                                                   capsys, key, value):
        _, cfg, _ = artifacts
        doc = json.loads(cfg.read_text())
        if value is None:
            del doc["matrices"]["B"][key]
        else:
            doc["matrices"]["B"][key] = value
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(bad),
                     "-o", str(tmp_path / "t.pfdt")]) == 2
        want = (f"{bad}: matrices.B: missing key 'rows'" if value is None
                else f"{bad}: matrices.B: key '{key}': ")
        assert want in capsys.readouterr().err

    def test_config_that_is_not_json_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["calibrate", "--config", str(cfg),
                     "-o", str(tmp_path / "t.pfdt")]) == 2
        assert f"error: {cfg}: " in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,want", [
        pytest.param(("detector", "d"), [10], "key 'd': ", id="d-list"),
        pytest.param(("n_agents",), 6.9, "key 'n_agents': ", id="n_agents-6.9"),
        pytest.param(("n_agents",), True, "key 'n_agents': ",
                     id="n_agents-true"),
        pytest.param(("bandwidth",), 2.5, "key 'bandwidth': ",
                     id="bandwidth-2.5"),
        pytest.param(("run", "rounds"), 300.7, "key 'rounds': ",
                     id="rounds-300.7"),
        pytest.param(("quant_scale",), float("nan"), "key 'quant_scale': ",
                     id="quant_scale-nan"),
        pytest.param(("quant_scale",), float("inf"), "key 'quant_scale': ",
                     id="quant_scale-inf"),
        pytest.param(("matrices", "A", "data", 5), float("inf"),
                     "matrices.A: key 'data': ", id="A-inf"),
        pytest.param(("matrices", "A", "data", 5), float("nan"),
                     "matrices.A: key 'data': ", id="A-nan"),
        pytest.param(("matrices", "B", "rows"), -4,
                     "matrices.B: key 'rows': ", id="B-negative-rows"),
        pytest.param(("matrices", "B", "cols"), -1,
                     "matrices.B: key 'cols': ", id="B-negative-cols"),
        pytest.param(("allow_unstable",), "false", "key 'allow_unstable': ",
                     id="allow_unstable-string"),
        # str() would hash and write "None" or "['desk']" as the name
        pytest.param(("name",), None, "key 'name': expected a string",
                     id="name-null"),
        pytest.param(("name",), ["desk"], "key 'name': expected a string",
                     id="name-list"),
    ])
    def test_config_field_of_wrong_type_is_refused(self, artifacts, tmp_path,
                                                   capsys, path, value, want):
        _, cfg, _ = artifacts
        doc = json.loads(cfg.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(bad),
                     "-o", str(tmp_path / "t.pfdt")]) == 2
        assert f"{bad}: {want}" in capsys.readouterr().err

    def test_scenario_event_without_kind_is_refused(self, artifacts, tmp_path,
                                                    capsys):
        _, cfg, table = artifacts
        scenario = tmp_path / "scn.json"
        scenario.write_text('{"name": "x", "events": [{"k": 100}]}')
        assert main(["run", "--config", str(cfg), "--table", str(table),
                     "--scenario", str(scenario), "--runs", "1",
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{scenario}: missing key 'kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["set_B_zero", "add_disturbance"])
    def test_plant_event_without_agents_is_refused(self, artifacts, tmp_path,
                                                   capsys, kind):
        _, cfg, table = artifacts
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps({"name": "x", "events": [
            {"k": 100, "kind": kind, "agents": [], "duration": 5,
             "covariance": np.eye(4).tolist()}]}))
        assert main(["run", "--config", str(cfg), "--table", str(table),
                     "--scenario", str(scenario), "--runs", "2",
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{kind} event at k=100 names no agent" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_psd_disturbance_is_refused(self, artifacts, tmp_path,
                                            capsys):
        _, cfg, table = artifacts
        scenario = tmp_path / "scn.json"
        cov = np.diag([1e-4, -1e-4, 0.0, 0.0]).tolist()
        scenario.write_text(json.dumps({"name": "x", "events": [
            {"k": 100, "kind": "add_disturbance", "agents": [2],
             "duration": 5, "covariance": cov}]}))
        assert main(["run", "--config", str(cfg), "--table", str(table),
                     "--scenario", str(scenario), "--runs", "2",
                     "--workers", "2", "--out", str(tmp_path / "x")]) == 2
        assert ("disturbance covariance at k=100 is not positive "
                "semidefinite") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
