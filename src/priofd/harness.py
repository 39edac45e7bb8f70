"""Experiment harness: Monte Carlo batches, aggregation, CSV artifacts.

All emitted files are semicolon separated with '.' decimals and start with
a provenance comment (config hash, seed, run count, scenario), so identical
inputs produce byte-identical files. write_table is the one CSV writer:
each artifact is a set of equal-length columns, and each column is
formatted once by its dtype (bools and integers as ints, floats as the
repr of the Python float, which parses back bit-exactly). Aggregates are
exact counts divided by the run count and can be recomputed from emitted
run records.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import SystemConfig
from .errors import ConfigError
from .fd_dynamic import ThresholdTable, dfd_verdicts
from .fd_static import sfd_verdicts
from .scenarios import Scenario, fault_free
from .simulate import chunks, run_lockstep
# perfbench wraps run_single here; a benchmark-only change moves that to run_lockstep
from .simulate import run_single  # noqa: F401


@dataclass
class RunRecord:
    """Everything needed to replay one run's verdicts offline."""
    run: int
    seed: int
    gamma: np.ndarray       # (T, N) bool
    priorities: np.ndarray  # (T, N) int
    sfd: np.ndarray         # (T, N) bool
    dfd: np.ndarray         # (T, N) bool
    states: np.ndarray      # (T, N, n_sel) selected state components

    def __eq__(self, other) -> bool:
        return (self.run == other.run and self.seed == other.seed
                and np.array_equal(self.gamma, other.gamma)
                and np.array_equal(self.priorities, other.priorities)
                and np.array_equal(self.sfd, other.sfd)
                and np.array_equal(self.dfd, other.dfd)
                and np.array_equal(self.states, other.states))


@dataclass
class AggregateReport:
    runs: int
    rounds: int
    n_agents: int
    monitored: int              # agent id of the headline alarm series
    k_event: int | None
    p_sfd: np.ndarray           # (T, N) per-timestep alarm probability
    p_dfd: np.ndarray
    pre_sfd: np.ndarray         # (N,) interval false-positive/alarm rates
    post_sfd: np.ndarray
    pre_dfd: np.ndarray
    post_dfd: np.ndarray
    delay_sfd: np.ndarray       # (runs,) detection delay, NaN if never
    delay_dfd: np.ndarray
    mean_err_sq: np.ndarray     # (T, N) Monte Carlo mean ||e_i(k)||^2
    band_agent: int             # agent id of the state band series
    band_component: int         # 1-based state index
    state_mean: np.ndarray      # (T,)
    state_std: np.ndarray       # (T,)

    def interval_rates(self, detector: str, agent: int) -> tuple[float, float]:
        pre = self.pre_sfd if detector == "sfd" else self.pre_dfd
        post = self.post_sfd if detector == "sfd" else self.post_dfd
        return float(pre[agent - 1]), float(post[agent - 1])


def _run_chunk(models, m, scale, rounds, seed, scenario, table, chunk):
    """Each run's record and squared error norms, in run order: all that
    run_batch reads of a chunk, and all that a worker process sends back."""
    out = []
    for run, trace in zip(chunk, run_lockstep(models, m, scale, rounds, seed,
                                              chunk, scenario=scenario)):
        n_agents = trace.gamma.shape[1]
        sfd = np.stack([sfd_verdicts(trace.priorities[:, i], table.sfd_kappa,
                                     table.d)
                        for i in range(n_agents)], axis=1)
        dfd = np.stack([dfd_verdicts(trace.gamma[:, i], trace.priorities[:, i],
                                     table) for i in range(n_agents)], axis=1)
        out.append((RunRecord(run, seed, trace.gamma, trace.priorities, sfd,
                              dfd, trace.states), trace.err_sq))
    return out


class _Tally:
    """Alarm counts, state-band sums and detection delays, accumulated run
    by run in run order. run_batch and report_from_records both build their
    report here, so a report recomputed from run records is bit-identical
    to the in-process one, and both refuse the same requests."""

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
        self.alarm_sfd = np.zeros((rounds, n_agents), dtype=np.int64)
        self.alarm_dfd = np.zeros((rounds, n_agents), dtype=np.int64)
        self.band_sum = np.zeros(rounds)
        self.band_sq = np.zeros(rounds)
        self.delay_sfd = np.full(runs, np.nan)
        self.delay_dfd = np.full(runs, np.nan)

    def add(self, run: int, sfd: np.ndarray, dfd: np.ndarray,
            states: np.ndarray) -> None:
        self.alarm_sfd += sfd
        self.alarm_dfd += dfd
        comp = states[:, self.band_agent - 1, self.band_component - 1]
        self.band_sum += comp
        self.band_sq += comp * comp
        if self.k_event is not None:
            for arr, out in ((sfd, self.delay_sfd), (dfd, self.delay_dfd)):
                hits = np.flatnonzero(arr[self.k_event:, self.monitored - 1])
                if hits.size:
                    out[run] = hits[0]

    def report(self, mean_err_sq: np.ndarray) -> AggregateReport:
        cfg, runs = self.cfg, self.runs
        rounds, n_agents = self.alarm_sfd.shape
        p_sfd = self.alarm_sfd / runs
        p_dfd = self.alarm_dfd / runs
        pre_sfd, post_sfd = _interval_rates(p_sfd, cfg.warmup_discard,
                                            self.k_event, cfg.d)
        pre_dfd, post_dfd = _interval_rates(p_dfd, cfg.warmup_discard,
                                            self.k_event, cfg.d)
        mean_state = self.band_sum / runs
        var = np.maximum(self.band_sq / runs - mean_state ** 2, 0.0)
        return AggregateReport(
            runs=runs, rounds=rounds, n_agents=n_agents,
            monitored=self.monitored, k_event=self.k_event, p_sfd=p_sfd,
            p_dfd=p_dfd, pre_sfd=pre_sfd, post_sfd=post_sfd, pre_dfd=pre_dfd,
            post_dfd=post_dfd, delay_sfd=self.delay_sfd,
            delay_dfd=self.delay_dfd, mean_err_sq=mean_err_sq,
            band_agent=self.band_agent, band_component=self.band_component,
            state_mean=mean_state, state_std=np.sqrt(var))


def run_batch(cfg: SystemConfig, scenario: Scenario | None,
              table: ThresholdTable, runs: int, seed: int,
              monitored: int | None = None,
              band_agent: int | None = None, band_component: int = 3,
              record_runs: int = 0,
              workers: int = 1) -> tuple[AggregateReport, list[RunRecord]]:
    """Monte Carlo batch; deterministic given (cfg, scenario, table, seed,
    runs) regardless of worker count."""
    scenario = scenario or fault_free()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
                     rounds, seed, scenario, table)
    err_sq_sum = np.zeros((rounds, n_agents))
    records: list[RunRecord] = []

    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(worker, chunks(runs, rounds * n_agents,
                                          parts=4 * workers))
    else:
        pool = None
        results = map(worker, chunks(runs, rounds * n_agents))
    try:
        for rec, err_sq in (out for chunk in results for out in chunk):
            tally.add(rec.run, rec.sfd, rec.dfd, rec.states)
            err_sq_sum += err_sq
            if rec.run < record_runs:
                records.append(rec)
    finally:
        if pool is not None:
            pool.shutdown()

    return tally.report(err_sq_sum / runs), records


def _interval_rates(p: np.ndarray, warmup: int, k_event: int | None,
                    d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean per-timestep rate before the event and after it has fully
    entered the detection window ([k_event + d, T))."""
    rounds = p.shape[0]
    pre_end = rounds if k_event is None else k_event
    pre = p[warmup:pre_end].mean(axis=0)
    if k_event is None:
        post = np.full(p.shape[1], np.nan)
    else:
        post = p[min(k_event + d, rounds):].mean(axis=0)
    return pre, post


# ---------------------------------------------------------------------------
# CSV artifacts

SEP = ";"


def _provenance(cfg_hash: str, seed: int, runs: int, scenario: str) -> str:
    return (f"# config_hash={cfg_hash}{SEP}seed={seed}{SEP}runs={runs}"
            f"{SEP}scenario={scenario}\n")


def _cells(column) -> Iterator[str]:
    """One column's cells: bools and integers as str of the int, floats as
    repr of the Python float, anything else as str."""
    col = np.asarray(column)
    if col.dtype.kind == "b":
        col = col.astype(np.int64)
    return map(repr if col.dtype.kind == "f" else str, col.tolist())


def write_table(path, header: str, names: Sequence[str],
                columns: Sequence) -> None:
    """`header`, a line of column names, then one row per index of the
    equal-length columns, each column formatted once by _cells."""
    rows = zip(*map(_cells, columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + SEP.join(names) + "\n")
        fh.writelines(SEP.join(row) + "\n" for row in rows)


def write_alarm_series(report: AggregateReport, path: Path, header: str) -> None:
    agent = report.monitored - 1
    write_table(path, header, ("k", "p_sfd", "p_dfd"),
                (np.arange(report.rounds), report.p_sfd[:, agent],
                 report.p_dfd[:, agent]))


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
                 np.concatenate((report.pre_sfd, report.pre_dfd)),
                 np.concatenate((report.post_sfd, report.post_dfd))))


def write_detection_delays(report: AggregateReport, path: Path, header: str) -> None:
    finite = [d[np.isfinite(d)].astype(int) for d in
              (report.delay_sfd, report.delay_dfd)]
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
                                           rec.sfd, rec.dfd)),
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
    fields = [np.zeros(shape, dtype=dtype)
              for dtype in (bool, np.int16, bool, bool)]
    for col, arr in enumerate(fields, start=2):
        arr[ks, agents] = cells[:, col].astype(int)
    states = np.zeros(shape + (cells.shape[1] - 6,))
    states[ks, agents] = cells[:, 6:].astype(float)
    return RunRecord(run, seed, *fields, states)


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
    """Recompute the record-derived aggregate fields from emitted records
    (mean_err_sq is not part of run records and stays NaN)."""
    rounds, n_agents, n_components = (records[0].states.shape if records
                                      else (0, 0, 0))
    tally = _Tally(cfg, scenario, len(records), rounds, n_agents,
                   n_components, monitored, band_agent, band_component)
    for run, rec in enumerate(records):
        tally.add(run, rec.sfd, rec.dfd, rec.states)
    return tally.report(np.full((rounds, n_agents), np.nan))
