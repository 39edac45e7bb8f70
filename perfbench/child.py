"""The measured process: one fresh interpreter per command invocation.

    python3 perfbench/child.py SPEC.json

Started by perfbench/run.py from the repository root with src/ and tests/
on PYTHONPATH and BLAS held to one thread. SPEC.json (written by run.py)
names the workload step to run:

    argv       priofd CLI arguments, or null for the online feed; "{rep}"
               stands for the output directory of each repeat
    repeats    how many times the command runs in this process, each
               timed on its own
    inputs     traces to simulate after the command: a list of
               {"config", "seed", "run", "faulty"}
    feed       how many of those traces to feed through the online
               detectors, with the threshold table "feed_table"
    traced     wrap the layers' public functions and report layer figures
    out        directory for result.json and traces.npz

The process first sets up (imports priofd, loads and validates the desk
config, builds its models, loads the reference threshold table) and stamps
CLOCK_MONOTONIC, so run.py can take set-up time from its own spawn stamp.
Then it runs the command through priofd.cli.main, simulates the input
traces the checks and the online feed need, and feeds them round by round
to every agent's StaticDetector and dfd_evaluate, timing each call.

Every timing is reported twice: raw, and scaled to a host of fixed speed
by perfbench/probe.py, whose kernel runs every 50 ms from the import of
priofd on (and after every PROBE_ROUNDS rounds during the feed). Probe
time is excluded from every interval it falls in.

Tracing wraps functions at the module attributes their callers look up,
and only when "traced" is set; nothing in the package is edited. Layers
the command does not call are then driven here on the same inputs, so
every layer figure is a measured cost on this workload's traces.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# This file only runs as a script. The probe starts before priofd is
# imported so that the import's time can be scaled like every other.
T_IMPORT = time.perf_counter()
import numpy as np  # noqa: E402

from probe import REFERENCE_S, SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()
import priofd  # noqa: E402
import priofd.cli  # noqa: E402
T_IMPORTED = time.perf_counter()

from priofd import calibration, harness  # noqa: E402
from priofd.config import SystemConfig  # noqa: E402
from priofd.fd_dynamic import (ThresholdTable, dfd_evaluate,  # noqa: E402
                               partition_window)
from priofd.fd_static import StaticDetector  # noqa: E402
from priofd.network import ScheduleHistory  # noqa: E402
from priofd.scenarios import Scenario, fault_free  # noqa: E402
from priofd.simulate import run_single  # noqa: E402

DESK_CONFIG = "configs/cartpole_desk.json"
REFERENCE_TABLE = "perfbench/data/desk_thresholds.pfdt"
SCENARIO = "configs/scenario_actuator_failure.json"
DRIVE_RUNS = 2     # Monte Carlo runs for driven fit_quantization_scale/run_batch
PROBE_ROUNDS = 100  # feed rounds between two probes


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans: name, phase, parent span, start and end.

    A span's self time is its duration minus that of its direct children.
    Arguments are kept by reference so counts can be derived after the
    measured phase, outside every span.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.children: dict[int, list[int]] = {}
        self.factor = 1.0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "phase": self.phase,
                    "parent": self.stack[-1] if self.stack else None,
                    "args": args, "kwargs": kwargs, "result": None,
                    "start": time.perf_counter(), "end": None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                span["result"] = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            return span["result"]
        return traced

    def install(self, module, attr, name):
        setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def finish(self, factor: float) -> None:
        """Index children and fix the speed factor once spans are done."""
        self.factor = factor
        for i, s in enumerate(self.spans):
            self.children.setdefault(s["parent"], []).append(i)

    def duration(self, idx: int) -> float:
        """Span length without probe time, at reference speed."""
        s = self.spans[idx]
        return PROBE.scaled(s["start"], s["end"], self.factor)

    def self_time(self, idx: int) -> float:
        return self.duration(idx) - sum(map(self.duration,
                                            self.children.get(idx, ())))

    def pick(self, name: str) -> list[int]:
        """Indices of the named spans in the first phase that has any: what
        the command spent, else what the benchmark drove itself."""
        for phase in ("command", "inputs", "drive"):
            found = [i for i, s in enumerate(self.spans)
                     if s["name"] == name and s["phase"] == phase]
            if found:
                return found
        return []


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer at the names its callers look up."""
    tracer.install(priofd.cli, "build_preset", "design.build_preset")
    tracer.install(calibration, "fit_quantization_scale",
                   "calibration.fit_quantization_scale")
    for module in (calibration, harness):
        tracer.install(module, "run_single", "simulate.run_single")
    tracer.install(calibration.SampleBank, "add_trace", "calibration.add_trace")
    tracer.install(calibration, "dfd_entries", "calibration.dfd_entries")
    tracer.install(harness, "sfd_verdicts", "fd_static.sfd_verdicts")
    tracer.install(harness, "dfd_verdicts", "fd_dynamic.dfd_verdicts")
    tracer.install(ThresholdTable, "save", "fd_dynamic.table_save")
    tracer.install(priofd.cli, "run_batch", "harness.run_batch")
    tracer.install(priofd.cli, "emit_csv", "harness.emit_csv")


# ---------------------------------------------------------------------------
# Period counts, derived from the schedule alone


def period_counts(gamma: np.ndarray, start_k: int, d: int, b: int) -> dict:
    """Windows, periods partitioned, periods with T2 <= b, and distinct
    communication-delimited periods, for windows ending at start_k..T-1 of
    one agent's schedule."""
    g = np.asarray(gamma, dtype=bool)
    rounds = g.shape[0]
    start_k = max(start_k, d - 1)
    ks = np.arange(start_k, rounds)
    ws = ks - d + 1
    comms = np.concatenate(([0], np.cumsum(g)))
    partitioned = int((comms[ks + 1] - comms[ws]).sum() + (~g[ks]).sum())
    idx = np.arange(rounds)
    last = np.maximum.accumulate(np.where(g, idx, -1))
    nxt = np.minimum.accumulate(np.where(g, idx, rounds)[::-1])[::-1]
    # only a window's first period can end more than b rounds after the
    # communication before it (d <= b)
    prev = np.where(ws > 0, last[np.maximum(ws - 1, 0)], -1)
    prev = np.where(prev >= np.maximum(ws - (b + 1), 0), prev, -1)
    first_end = np.minimum(nxt[ws], ks)
    unbinned = int(((prev < 0) | (first_end - prev > b)).sum())
    lo = start_k - d + 1
    distinct = int(g[lo:].sum() + (not g[-1]))
    return {"windows": int(ks.size), "partitioned": partitioned,
            "binned": partitioned - unbinned, "distinct": distinct}


def mismatched_agent_rounds(scenario: Scenario | None, rounds: int) -> int:
    """Agent-rounds simulated on a plant that differs from the shared
    model, from the scenario's actuator failures."""
    if scenario is None:
        return 0
    first: dict[int, int] = {}
    for ev in scenario.events:
        if ev.kind == "set_B_zero" and ev.k < rounds:
            for agent in ev.agents:
                first[agent] = min(first.get(agent, ev.k), ev.k)
    return sum(rounds - k for k in first.values())


# ---------------------------------------------------------------------------
# Online per-update path


def feed(gammas, prios, table: ThresholdTable, traced: bool) -> dict:
    """Every agent's detectors, round by round, as an observer runs them.

    The probe runs every PROBE_ROUNDS rounds and after the last instead of
    on a timer, so no probe lands inside a timed call. The samples between
    two probes are scaled by the mean of the two."""
    d, b = table.d, table.b
    PROBE.stop()
    n_traces, rounds, n_agents = gammas.shape
    sfd = np.zeros(gammas.shape, dtype=bool)
    dfd = np.zeros(gammas.shape, dtype=bool)
    ns = {"sfd": [], "dfd": [], "append": [], "part": []}
    cuts = []      # sample counts at the end of each segment
    segment_s = []
    now = time.perf_counter_ns

    def segment_end(t0):
        segment_s.append(time.perf_counter() - t0)
        cuts.append({key: len(v) for key, v in ns.items()})
        PROBE.run()
        return time.perf_counter()

    PROBE.run()
    t0 = time.perf_counter()
    for t in range(n_traces):
        q = prios[t].T.astype(np.int64)   # one contiguous row per agent
        g = gammas[t].T
        dets = [StaticDetector(i + 1, table.sfd_kappa, d)
                for i in range(n_agents)]
        hists = [ScheduleHistory(i + 1, d + b + 1) for i in range(n_agents)]
        for k in range(rounds):
            if k and k % PROBE_ROUNDS == 0:
                t0 = segment_end(t0)
            for i in range(n_agents):
                value, bit = int(q[i, k]), bool(g[i, k])
                a = now()
                verdict = dets[i].update(value)
                z = now()
                ns["sfd"].append(z - a)
                sfd[t, k, i] = verdict
                if traced:
                    a = now()
                    hists[i].append(bit)
                    z = now()
                    ns["append"].append(z - a)
                else:
                    hists[i].append(bit)
                if k < d - 1:
                    continue
                window = q[i, k - d + 1:k + 1]
                a = now()
                verdict = dfd_evaluate(hists[i], window, table, k)
                z = now()
                ns["dfd"].append(z - a)
                dfd[t, k, i] = verdict
                if traced:
                    a = now()
                    partition_window(hists[i], k, d, b)
                    z = now()
                    ns["part"].append(z - a)
        t0 = segment_end(t0)
    PROBE.start()

    n_seg = len(segment_s)
    probe_s = (np.array(PROBE.ends[-n_seg - 1:])
               - np.array(PROBE.starts[-n_seg - 1:]))
    factor = REFERENCE_S / ((probe_s[:-1] + probe_s[1:]) / 2)
    per_trace = n_seg // n_traces
    scaled_s = np.array(segment_s) * factor
    out = {"trace_s": list(np.add.reduceat(segment_s, np.arange(0, n_seg, per_trace))),
           "trace_ref_s": list(np.add.reduceat(scaled_s, np.arange(0, n_seg, per_trace))),
           "sfd": sfd, "dfd": dfd}
    for key, samples in ns.items():
        raw = np.array(samples, dtype=np.int64)
        counts = np.diff([0] + [c[key] for c in cuts])
        out[key + "_ns"] = raw
        out[key + "_ref_ns"] = raw * np.repeat(factor, counts)
    return out


# ---------------------------------------------------------------------------
# Layer figures (traced runs)


def drive_missing(tracer: Tracer, cfg: SystemConfig, table: ThresholdTable,
                  gammas, prios, out: Path, seed: int) -> None:
    """Call each layer the command did not reach, through its wrapped name,
    on this workload's inputs."""
    tracer.phase = "drive"
    m, rounds, warmup = cfg.bandwidth, cfg.rounds, cfg.warmup_discard
    models = cfg.models()
    if not tracer.pick("design.build_preset"):
        priofd.cli.build_preset("desk", seed=seed, fit_scale=False)
    if not tracer.pick("calibration.fit_quantization_scale"):
        calibration.fit_quantization_scale(models, m, runs=DRIVE_RUNS,
                                           run_length=rounds, seed=seed,
                                           warmup_discard=warmup)
    if not tracer.pick("calibration.add_trace"):
        bank = calibration.SampleBank(cfg.d, cfg.b)
        for g, q in zip(gammas, prios):
            bank.add_trace(g, q, warmup)
        calibration.dfd_entries(calibration.CalibrationConfig(
            cfg.eta, cfg.d, cfg.b, runs=len(gammas), run_length=rounds,
            seed=seed, warmup_discard=warmup), bank)
    if not tracer.pick("fd_dynamic.dfd_verdicts"):
        for g, q in zip(gammas, prios):
            for i in range(cfg.n_agents):
                harness.sfd_verdicts(q[:, i], table.sfd_kappa, table.d)
                harness.dfd_verdicts(g[:, i], q[:, i], table)
    if not tracer.pick("fd_dynamic.table_save"):
        table.save(out / "driven.pfdt")
    if not tracer.pick("harness.run_batch"):
        scenario = Scenario.load(SCENARIO)
        report, records = priofd.cli.run_batch(
            cfg, scenario, table, runs=DRIVE_RUNS, seed=seed, record_runs=1)
        priofd.cli.emit_csv(report, records, out / "driven_csv", cfg, seed,
                            scenario.name)


def layer_figures(tracer: Tracer, cfg: SystemConfig, fed: dict) -> dict:
    spans = tracer.spans
    n_agents, d, b = cfg.n_agents, cfg.d, cfg.b

    dur = tracer.duration

    def arg(i, pos, key):
        s = spans[i]
        return s["args"][pos] if len(s["args"]) > pos else s["kwargs"][key]

    out = {}
    sims = tracer.pick("simulate.run_single")
    out["simulate.run_single_ms"] = 1e3 * sum(map(tracer.self_time, sims)) / len(sims)
    out["simulate.runs"] = len(sims)
    out["simulate.agent_rounds"] = sum(len(arg(i, 0, "models")) * arg(i, 3, "rounds")
                                       for i in sims)
    out["network.mismatched_agent_rounds"] = sum(
        mismatched_agent_rounds(spans[i]["kwargs"].get("scenario"),
                                arg(i, 3, "rounds")) for i in sims)

    pre = tracer.pick("design.build_preset")
    out["design.preset_ms"] = 1e3 * sum(map(tracer.self_time, pre)) / len(pre)
    fits = tracer.pick("calibration.fit_quantization_scale")
    out["calibration.fit_scale_self_ms"] = (
        1e3 * sum(map(tracer.self_time, fits))
        / sum(spans[i]["kwargs"]["runs"] for i in fits))

    adds = tracer.pick("calibration.add_trace")
    out["calibration.add_trace_ms"] = 1e3 * sum(map(dur, adds)) / len(adds)
    counts = {"windows": 0, "partitioned": 0, "binned": 0, "distinct": 0}
    for i in adds:
        gamma, start_k = arg(i, 1, "gamma"), arg(i, 3, "start_k")
        for col in range(gamma.shape[1]):
            for key, val in period_counts(gamma[:, col], start_k, d, b).items():
                counts[key] += val
    out["calibration.windows"] = counts["windows"]
    out["calibration.periods_partitioned"] = counts["partitioned"]
    out["calibration.periods_binned"] = counts["binned"]
    out["calibration.distinct_periods"] = counts["distinct"]
    ent = tracer.pick("calibration.dfd_entries")
    out["calibration.dfd_entries_ms"] = 1e3 * sum(map(dur, ent)) / len(ent)

    sv = tracer.pick("fd_static.sfd_verdicts")
    out["fd_static.sfd_verdicts_ms"] = 1e3 * sum(map(dur, sv)) / (len(sv) / n_agents)
    dv = tracer.pick("fd_dynamic.dfd_verdicts")
    out["fd_dynamic.dfd_verdicts_ms"] = 1e3 * sum(map(dur, dv)) / (len(dv) / n_agents)
    windows = periods = 0
    for i in dv:
        c = period_counts(arg(i, 0, "gamma"), d - 1, d, b)
        windows += c["windows"]
        periods += c["partitioned"]
    out["fd_dynamic.windows_replayed"] = windows
    out["fd_dynamic.periods_replayed"] = periods
    sv = tracer.pick("fd_dynamic.table_save")
    out["fd_dynamic.table_save_ms"] = 1e3 * sum(map(dur, sv)) / len(sv)
    out["fd_dynamic.partition_window_us_p50"] = float(np.median(fed["part_ref_ns"])) / 1e3
    out["network.history_append_us_p50"] = float(np.median(fed["append_ref_ns"])) / 1e3

    rb = tracer.pick("harness.run_batch")
    out["harness.run_batch_self_ms"] = (
        1e3 * sum(map(tracer.self_time, rb))
        / sum(spans[i]["kwargs"]["runs"] for i in rb))
    em = tracer.pick("harness.emit_csv")
    out["harness.emit_csv_ms"] = 1e3 * sum(map(dur, em)) / len(em)
    out["harness.csv_bytes"] = sum(Path(p).stat().st_size for i in em
                                   for p in spans[i]["result"]) // len(em)
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = Path(spec["out"])
    t1 = time.perf_counter()
    cfg = SystemConfig.load(DESK_CONFIG)
    t2 = time.perf_counter()
    cfg.models()
    t3 = time.perf_counter()
    table = ThresholdTable.load(REFERENCE_TABLE)
    t4 = time.perf_counter()
    ready = clock()
    f = PROBE.factor(T_IMPORT, t4)
    result = {"ready": ready, "setup_probe_s": PROBE.busy(T_IMPORT, t4),
              "setup_factor": f,
              "import_s": PROBE.scaled(T_IMPORT, T_IMPORTED, f),
              "load_ms": 1e3 * PROBE.scaled(t1, t2, f),
              "models_ms": 1e3 * PROBE.scaled(t2, t3, f),
              "table_load_ms": 1e3 * PROBE.scaled(t3, t4, f),
              "rc": 0, "command_s": [], "command_ref_s": []}

    tracer = Tracer() if spec["traced"] else None
    sim = run_single
    if tracer is not None:
        install_tracing(tracer)
        sim = tracer.wrap("simulate.run_single", run_single)

    if spec["argv"] is not None:
        if tracer is not None:
            tracer.phase = "command"
        for rep in range(spec["repeats"]):
            rep_dir = out / f"rep{rep}"
            rep_dir.mkdir()
            argv = [a.replace("{rep}", str(rep_dir)) for a in spec["argv"]]
            t = time.perf_counter()
            result["rc"] = priofd.cli.main(argv)
            z = time.perf_counter()
            result["command_s"].append(z - t - PROBE.busy(t, z))
            result["command_ref_s"].append(PROBE.scaled(t, z))
            if result["rc"] != 0:
                break
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if spec["inputs"] and result["rc"] == 0:
        if tracer is not None:
            tracer.phase = "inputs"
        fleets = {path: SystemConfig.load(path) for path in
                  {x["config"] for x in spec["inputs"]}}
        models = {path: c.models() for path, c in fleets.items()}
        faulty = Scenario.load(SCENARIO)
        traces = [sim(models[x["config"]], fleets[x["config"]].bandwidth,
                      fleets[x["config"]].require_scale(),
                      fleets[x["config"]].rounds, seed=x["seed"], run=x["run"],
                      scenario=faulty if x["faulty"] else fault_free())
                  for x in spec["inputs"]]
        gammas = np.stack([tr.gamma for tr in traces])
        prios = np.stack([tr.priorities for tr in traces])
        feed_table = ThresholdTable.load(spec["feed_table"])
        n_feed = spec["feed"]
        if tracer is not None:
            tracer.phase = "feed"
        fed = feed(gammas[:n_feed], prios[:n_feed], feed_table,
                   tracer is not None)
        if spec["argv"] is None:
            result["command_s"] = fed["trace_s"]
            result["command_ref_s"] = fed["trace_ref_s"]
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        np.savez(out / "traces.npz", gamma=gammas, priorities=prios,
                 sfd=fed["sfd"], dfd=fed["dfd"],
                 **{k: fed[k] for k in ("sfd_ns", "dfd_ns", "sfd_ref_ns",
                                        "dfd_ref_ns")})
        if tracer is not None:
            drive_missing(tracer, cfg, table, gammas[:n_feed],
                          prios[:n_feed], out, spec["inputs"][0]["seed"])
            PROBE.stop()
            tracer.finish(PROBE.factor(T_IMPORT, time.perf_counter()))
            result["layers"] = layer_figures(tracer, cfg, fed)
    PROBE.stop()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
