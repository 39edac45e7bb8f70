"""Experiment harness: Monte Carlo batches, aggregation, CSV artifacts.

All emitted files are semicolon separated with '.' decimals and start with
a provenance comment (config hash, seed, run count, scenario), so identical
inputs produce byte-identical files. write_table is the one CSV writer:
each artifact is a set of equal-length columns, written one formatted row
at a time, and every cell is str of the Python value (bools as 0 and 1;
str of a float is its repr, which parses back bit-exactly). A worker
replays each run's detectors once for all agents. Aggregates are exact
counts divided by the run count, and every report field can be recomputed
from run records.
Every per-detector array ends in an axis of length 2 in the order of
DETECTORS; the CSV column names stay the literal text of the file format.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fd_dynamic, fd_static
from .config import SystemConfig
from .errors import ConfigError
# perfbench wraps and calls the verdicts here, one agent at a time, and wraps
# run_single; a benchmark-only change moves that to the modules and run_lockstep
from .fd_dynamic import ThresholdTable, dfd_verdicts  # noqa: F401
from .fd_static import sfd_verdicts  # noqa: F401
from .scenarios import Scenario, fault_free
from .simulate import map_chunks, run_lockstep
from .simulate import run_single  # noqa: F401

DETECTORS = ("sfd", "dfd")
SFD, DFD = DETECTORS.index("sfd"), DETECTORS.index("dfd")


@dataclass
class RunRecord:
    """Everything needed to replay one run's verdicts offline."""
    run: int
    seed: int
    gamma: np.ndarray       # (T, N) bool
    priorities: np.ndarray  # (T, N) int
    alarms: np.ndarray      # (T, N, 2) bool
    states: np.ndarray      # (T, N, n_sel) selected state components

    def __eq__(self, other) -> bool:
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass
class AggregateReport:
    runs: int
    rounds: int
    n_agents: int
    monitored: int              # agent id of the headline alarm series
    k_event: int | None
    p: np.ndarray               # (T, N, 2) per-timestep alarm probability
    pre: np.ndarray             # (N, 2) interval false-positive/alarm rates
    post: np.ndarray
    delay: np.ndarray           # (runs, 2) detection delay, NaN if never
    band_agent: int             # agent id of the state band series
    band_component: int         # 1-based state index
    state_mean: np.ndarray      # (T,)
    state_std: np.ndarray       # (T,)

    def interval_rates(self, detector: str, agent: int) -> tuple[float, float]:
        """(pre, post) of agent 1..N; ValueError outside DETECTORS or 1..N."""
        j = DETECTORS.index(detector)
        if not 1 <= agent <= self.n_agents:
            raise ValueError(f"agent {agent} is not in 1..{self.n_agents}")
        return float(self.pre[agent - 1, j]), float(self.post[agent - 1, j])


def _run_chunk(models, m, scale, rounds, seed, scenario, table, band,
               record_runs, chunk):
    """All a worker sends back, per run in run order: (alarms, states at the
    0-based `band` pair) and the RunRecord, None from record_runs on."""
    out = []
    for run, trace in zip(chunk, run_lockstep(models, m, scale, rounds, seed,
                                              chunk, scenario=scenario)):
        alarms = np.empty(trace.gamma.shape + (len(DETECTORS),), dtype=bool)
        g, q = trace.gamma, trace.priorities
        alarms[..., SFD] = fd_static.sfd_verdicts(q, table.sfd_kappa, table.d)
        alarms[..., DFD] = fd_dynamic.dfd_verdicts(g, q, table)
        summary = (alarms, trace.states[:, band[0], band[1]])
        record = (RunRecord(run, seed, trace.gamma, trace.priorities, alarms,
                            trace.states) if run < record_runs else None)
        out.append((summary, record))
    return out


class _Tally:
    """Alarm counts, state-band sums and detection delays, accumulated run
    by run in run order. run_batch and report_from_records both build their
    report here, so every field of a report recomputed from run records is
    bit-identical to the in-process one, and both refuse the same requests."""

    def __init__(self, cfg: SystemConfig, scenario: Scenario, runs: int,
                 rounds: int, n_agents: int, n_components: int,
                 monitored: int, band_agent: int, band_component: int):
        if runs < 1:
            raise ConfigError("runs must be >= 1")
        scenario.check_fits(rounds, n_agents, cfg.n)
        k_event = scenario.first_event_round
        if k_event is not None and k_event <= cfg.warmup_discard:
            raise ConfigError(
                f"first event at k={k_event} leaves no pre-event interval "
                f"[warmup_discard, k) with warmup_discard={cfg.warmup_discard}")
        if k_event is not None and k_event + cfg.d >= rounds:
            raise ConfigError(
                f"first event at k={k_event} leaves no post-event interval "
                f"[k+d, rounds) with d={cfg.d} and rounds={rounds}")
        if not 1 <= monitored <= n_agents or not 1 <= band_agent <= n_agents:
            raise ConfigError("monitored/band agent outside the fleet")
        if not 1 <= band_component <= n_components:
            raise ConfigError(f"band component must be in 1..{n_components}")
        self.cfg, self.runs, self.k_event = cfg, runs, k_event
        self.monitored = monitored
        self.band_agent, self.band_component = band_agent, band_component
        self.alarms = np.zeros((rounds, n_agents, len(DETECTORS)),
                               dtype=np.int64)
        self.band_sum = np.zeros(rounds)
        self.band_sq = np.zeros(rounds)
        self.delay = np.full((runs, len(DETECTORS)), np.nan)

    def add(self, run: int, alarms: np.ndarray, band: np.ndarray) -> None:
        self.alarms += alarms
        self.band_sum += band
        self.band_sq += band * band
        if self.k_event is not None:
            after = alarms[self.k_event:, self.monitored - 1]
            hit = after.any(axis=0)
            self.delay[run, hit] = after.argmax(axis=0)[hit]

    def report(self) -> AggregateReport:
        cfg, runs = self.cfg, self.runs
        rounds, n_agents, _ = self.alarms.shape
        p = self.alarms / runs
        pre, post = _interval_rates(p, cfg.warmup_discard, self.k_event, cfg.d)
        mean_state = self.band_sum / runs
        var = np.maximum(self.band_sq / runs - mean_state ** 2, 0.0)
        return AggregateReport(
            runs=runs, rounds=rounds, n_agents=n_agents,
            monitored=self.monitored, k_event=self.k_event, p=p, pre=pre,
            post=post, delay=self.delay, band_agent=self.band_agent,
            band_component=self.band_component, state_mean=mean_state,
            state_std=np.sqrt(var))


def run_batch(cfg: SystemConfig, scenario: Scenario | None,
              table: ThresholdTable, runs: int, seed: int,
              monitored: int | None = None,
              band_agent: int | None = None, band_component: int = 3,
              record_runs: int = 0,
              workers: int = 1) -> tuple[AggregateReport, list[RunRecord]]:
    """Monte Carlo batch; deterministic given (cfg, scenario, table, seed,
    runs) regardless of worker count."""
    scenario = scenario or fault_free()
    if record_runs < 0:
        raise ConfigError(f"record_runs must be >= 0, got {record_runs}")
    table.check_compatible(cfg)
    if seed == table.seed:
        # noise is keyed on (seed, run): these runs would replay the
        # calibration runs and measure in-sample rates
        raise ConfigError(
            f"evaluation seed {seed} equals the threshold table's "
            f"calibration seed {table.seed}; use a different seed")
    rounds = cfg.rounds
    n_agents = cfg.n_agents
    faulty = scenario.faulty_agents()
    if monitored is None:
        monitored = faulty[0] if faulty else 1
    if band_agent is None:
        band_agent = monitored
    tally = _Tally(cfg, scenario, runs, rounds, n_agents, cfg.n, monitored,
                   band_agent, band_component)

    models = cfg.models()
    worker = partial(_run_chunk, models, cfg.bandwidth, cfg.require_scale(),
                     rounds, seed, scenario, table,
                     (band_agent - 1, band_component - 1), record_runs)
    records: list[RunRecord] = []

    results = map_chunks(worker, runs, rounds * n_agents, workers)
    for run, ((alarms, band), rec) in enumerate(
            out for chunk in results for out in chunk):
        tally.add(run, alarms, band)
        if rec is not None:
            records.append(rec)

    return tally.report(), records


def _interval_rates(p: np.ndarray, warmup: int, k_event: int | None,
                    d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean per-timestep rate before the event and after it has fully
    entered the detection window ([k_event + d, T)); _Tally refuses an
    event that leaves either interval empty."""
    if k_event is None:
        return p[warmup:].mean(axis=0), np.full(p.shape[1:], np.nan)
    return p[warmup:k_event].mean(axis=0), p[k_event + d:].mean(axis=0)


# ---------------------------------------------------------------------------
# CSV artifacts

SEP = ";"


def _provenance(cfg_hash: str, seed: int, runs: int, scenario: str) -> str:
    return (f"# config_hash={cfg_hash}{SEP}seed={seed}{SEP}runs={runs}"
            f"{SEP}scenario={scenario}\n")


def write_table(path, header: str, names: Sequence[str],
                columns: Sequence) -> None:
    """`header`, a line of column names, then one row per index of the
    equal-length columns: each cell is "%s" of the column's Python value
    (bools as ints), which is its str."""
    cols = [(c.astype(np.int64) if c.dtype.kind == "b" else c).tolist()
            for c in map(np.asarray, columns)]
    row = SEP.join(["%s"] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + SEP.join(names) + "\n")
        fh.writelines(row % cells for cells in zip(*cols))


def write_alarm_series(report: AggregateReport, path: Path, header: str) -> None:
    agent = report.monitored - 1
    write_table(path, header, ("k", "p_sfd", "p_dfd"),
                (np.arange(report.rounds), report.p[:, agent, SFD],
                 report.p[:, agent, DFD]))


def write_state_bands(report: AggregateReport, path: Path, header: str) -> None:
    m, s = report.state_mean, report.state_std
    write_table(path, header, ("k", "minus3", "minus2", "minus1", "mean",
                               "plus1", "plus2", "plus3"),
                (np.arange(report.rounds), m - 3 * s, m - 2 * s, m - s, m,
                 m + s, m + 2 * s, m + 3 * s))


def write_interval_rates(report: AggregateReport, path: Path, header: str) -> None:
    n = report.n_agents
    write_table(path, header, ("detector", "agent", "pre_rate", "post_rate"),
                (["sfd"] * n + ["dfd"] * n, np.tile(np.arange(1, n + 1), 2),
                 report.pre[:, (SFD, DFD)].T.ravel(),
                 report.post[:, (SFD, DFD)].T.ravel()))


def write_detection_delays(report: AggregateReport, path: Path, header: str) -> None:
    finite = [d[np.isfinite(d)].astype(int)
              for d in report.delay[:, (SFD, DFD)].T]
    top = int(max((arr.max() for arr in finite if arr.size), default=-1)) + 1
    write_table(path, header, ("delay", "n_sfd", "n_dfd"),
                (np.arange(top), *(np.bincount(arr, minlength=top)
                                   for arr in finite)))


def write_run_record(rec: RunRecord, path: Path, header: str) -> None:
    """One row per (k, agent), k first."""
    rounds, n_agents, n_sel = rec.states.shape
    write_table(path, header,
                ("k", "agent", "gamma", "quantized_priority", "sfd", "dfd",
                 *(f"x{j + 1}" for j in range(n_sel))),
                (np.repeat(np.arange(rounds), n_agents),
                 np.tile(np.arange(1, n_agents + 1), rounds),
                 *(arr.ravel() for arr in (rec.gamma, rec.priorities,
                                           rec.alarms[..., SFD],
                                           rec.alarms[..., DFD])),
                 *(rec.states[:, :, j].ravel() for j in range(n_sel))))


def parse_run_record(path: Path) -> RunRecord:
    """Inverse of write_run_record; provenance comments supply run and seed."""
    run = seed = -1
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            for part in line[1:].strip().split(SEP):
                key, _, val = part.partition("=")
                if key == "run":
                    run = int(val)
                elif key == "seed":
                    seed = int(val)
        elif line and not line.startswith("k" + SEP):
            rows.append(line.split(SEP))
    cells = np.array(rows)
    ks, agents = cells[:, 0].astype(int), cells[:, 1].astype(int) - 1
    shape = (ks.max() + 1, agents.max() + 1)
    flags = np.zeros(shape + (4,), dtype=np.int16)
    flags[ks, agents] = cells[:, 2:6].astype(int)
    alarms = np.empty(shape + (len(DETECTORS),), dtype=bool)
    alarms[..., (SFD, DFD)] = flags[..., 2:]
    states = np.zeros(shape + (cells.shape[1] - 6,))
    states[ks, agents] = cells[:, 6:].astype(float)
    return RunRecord(run, seed, flags[..., 0].astype(bool), flags[..., 1],
                     alarms, states)


def emit_csv(report: AggregateReport, records: Sequence[RunRecord],
             outdir: str | Path, cfg: SystemConfig, seed: int,
             scenario_name: str) -> list[Path]:
    """Write all aggregate artifacts plus one CSV per recorded run."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        header = _provenance(cfg.hash(), seed, report.runs, scenario_name)
        out = []
        for name, writer in (("alarm_probability.csv", write_alarm_series),
                             ("state_bands.csv", write_state_bands),
                             ("interval_rates.csv", write_interval_rates),
                             ("detection_delays.csv", write_detection_delays)):
            path = outdir / name
            writer(report, path, header)
            out.append(path)
        for rec in records:
            path = outdir / f"run_{rec.run:05d}.csv"
            rec_header = header.rstrip("\n") + f"{SEP}run={rec.run}\n"
            write_run_record(rec, path, rec_header)
            out.append(path)
        return out
    except OSError as exc:
        raise OSError(f"cannot write experiment artifacts under {outdir}: "
                      f"{exc}") from exc


def report_from_records(records: Sequence[RunRecord], cfg: SystemConfig,
                        scenario: Scenario, monitored: int,
                        band_agent: int, band_component: int = 3) -> AggregateReport:
    """run_batch's report, recomputed from the records of all its runs
    (record_runs = runs)."""
    rounds, n_agents, n_components = (records[0].states.shape if records
                                      else (0, 0, 0))
    tally = _Tally(cfg, scenario, len(records), rounds, n_agents,
                   n_components, monitored, band_agent, band_component)
    for run, rec in enumerate(records):
        tally.add(run, rec.alarms,
                  rec.states[:, band_agent - 1, band_component - 1])
    return tally.report()
