"""Monte Carlo threshold calibration for both detectors.

calibrate(cfg, runs, seed, workers=1) is the one entry point. It simulates
`runs` fault-free runs of the fleet a SystemConfig describes, with noise
keyed on (seed, run), in lockstep chunks on the schedule-only path of
simulate.run_lockstep, and bins run by run every window sum and period sum
at rounds >= cfg.warmup_discard into one SampleBank per chunk. The chunks
run in this process, or over a pool of `workers` processes (map_chunks),
and merge into the first chunk's bank in chunk order; a merge is exact
integer addition, so the bank, and every artifact, is the same for any
worker count. Models, bandwidth, quantization scale, eta, d, b and the run
length all come from cfg. It then refuses a bank too thin for the sFD
percentile, takes that percentile, and tabulates the dFD entries.

Thresholds are empirical percentiles of fault-free statistics. The sFD
threshold is the 100(1-eta)th percentile of pooled window sums; each dFD
cell (T1, T2, a) pools the period sums with that signature and tabulates,
for every H, the 100(1-eta/H)th percentile. These thresholds and the
quantization scale's percentile are one nearest-rank order statistic

    kappa = sorted_samples[min(max(ceil(level * n), 1), n)]   (1-indexed)

(the rank rule is _rank), so calibration is a pure function of (config,
runs, seed). Quantized sums are small integers, so sample multisets are
exact histograms. A bank keeps a histogram only for the (T1, T2, a) cells
it has observed (a desk calibration fills about 200 of 3,200), and
dfd_entries visits each of them once and reads its d levels in one
nearest_rank call.

Samples within a run are autocorrelated; the percentile remains a
consistent estimator of the marginal quantile, and many independent runs
keep the effective sample size honest. Cells that fault-free operation
never (or too rarely) produces keep kappa = +inf: a signature we cannot
bound must never alarm.

A Fleet gives every agent the same dynamics, self gain and priority
weight, and a SystemConfig fleet every agent the same noise and cross
gain, so pooling its agents mixes no distributions.
fit_quantization_scale, the raw-priority pre-pass that gives a config its
scale, maps schedule-only run_lockstep chunks of scale None; it takes a
Fleet and refuses one whose noise covariances differ.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .config import SystemConfig, check_run
from .dynamics import Fleet
from .errors import CalibrationError, ConfigError
from .fd_dynamic import ThresholdTable, window_periods
from .fd_static import window_sums
from .harness import write_table
from .priority import QUANT_MAX, SCALE_FIT_PERCENTILE, SCALE_HEADROOM_TARGET
from .simulate import map_chunks, run_lockstep
# perfbench wraps run_single here; a benchmark-only change moves that to run_lockstep
from .simulate import run_single  # noqa: F401

log = logging.getLogger(__name__)

MIN_SFD_SAMPLES_FACTOR = 100.0   # refuse below 100/eta pooled window sums
MIN_CELL_SAMPLES_FACTOR = 20.0   # a cell needs 20*H/eta sums for level 1-eta/H


@dataclass
class CalibrationConfig:
    """Detector and run parameters apart from a SystemConfig; dfd_entries
    reads only eta. calibrate takes them from the SystemConfig itself."""
    eta: float = SystemConfig.eta
    d: int = SystemConfig.d
    b: int = SystemConfig.b
    runs: int = 2000
    run_length: int = SystemConfig.rounds
    seed: int = 0
    warmup_discard: int = SystemConfig.warmup_discard

    def __post_init__(self):
        check_run(self.eta, self.d, self.b, self.run_length,
                  self.warmup_discard)
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")


@dataclass
class SampleBank:
    """Exact multisets of fault-free sums, histogram backed.

    sfd_hist[s] counts window sums equal to s. Period sums get one
    histogram row per observed (T1, T2, a) cell: row[c] is the row of flat
    cell c = ((T1-1)*b + T2-1)*2 + a, or -1 while c is unseen, and
    rows[row[c], s] counts its period sums equal to s. So the bank grows
    with the observed cells, not with b*b*2 of them, and two banks add up
    exactly (merge).
    """
    d: int
    b: int
    sfd_hist: np.ndarray = field(init=False)
    row: np.ndarray = field(init=False)
    rows: np.ndarray = field(init=False)

    def __post_init__(self):
        top = QUANT_MAX * self.d + 1
        self.sfd_hist = np.zeros(top, dtype=np.int64)
        self.row = np.full(self.b * self.b * 2, -1, dtype=np.int64)
        self.rows = np.zeros((0, top), dtype=np.int64)

    @property
    def sfd_count(self) -> int:
        return int(self.sfd_hist.sum())

    @property
    def dfd_count(self) -> int:
        return int(self.rows.sum())

    def cell_counts(self) -> np.ndarray:
        """Period sums per cell, as a (b, b, 2) array over (T1-1, T2-1, a)."""
        counts = np.zeros(self.row.size, dtype=np.int64)
        seen = self.row >= 0
        counts[seen] = self.rows[self.row[seen]].sum(axis=1)
        return counts.reshape(self.b, self.b, 2)

    def observed(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The observed cells in (T1, T2, a) order, as index arrays
        (T1-1, T2-1, a), and their period-sum histograms, one row each."""
        cell = np.flatnonzero(self.row >= 0)
        return (np.unravel_index(cell, (self.b, self.b, 2)),
                self.rows[self.row[cell]])

    def _add_cells(self, cell: np.ndarray) -> None:
        """A zero histogram row for every cell in `cell` not yet seen; rows
        grow to at least twice their capacity, so a growth copy is rare."""
        new = np.unique(cell[self.row[cell] < 0])
        if new.size:
            n, cap = self.row.max() + 1, len(self.rows)
            self.row[new] = np.arange(n, n + new.size)
            if n + new.size > cap:
                grown = np.zeros((max(2 * cap, n + new.size),
                                  self.rows.shape[1]), dtype=np.int64)
                grown[:n] = self.rows[:n]
                self.rows = grown

    def __getstate__(self):  # a pickled bank carries no spare rows
        return {**vars(self), "rows": self.rows[:self.row.max() + 1]}

    def add_sums(self, windows: np.ndarray, t1: np.ndarray, t2: np.ndarray,
                 a: np.ndarray, sums: np.ndarray) -> None:
        """Bin the window sums `windows`, and the period sums `sums` with
        signatures (t1, t2, a), 1 <= t1 <= t2 <= b."""
        top = self.sfd_hist.size
        self.sfd_hist += np.bincount(windows, minlength=top)
        cell = ((t1 - 1) * self.b + (t2 - 1)) * 2 + a
        self._add_cells(cell)
        np.add.at(self.rows.reshape(-1), self.row[cell] * top + sums, 1)

    def add_trace(self, gamma: np.ndarray, priorities: np.ndarray,
                  start_k: int) -> None:
        """Collect every window sum and period sum at rounds >= start_k of
        every agent (column) of one run, from one layout of its periods."""
        d, b = self.d, self.b
        start_k = max(start_k, d - 1)
        windows = window_sums(priorities, d)[start_k - (d - 1):]
        _, t1, t2, _, a, s = window_periods(gamma, priorities, d, b, start_k)
        tab = t2 <= b
        self.add_sums(windows.ravel(), t1[tab], t2[tab], a[tab], s[tab])

    def merge(self, other: SampleBank) -> SampleBank:
        """Add `other`'s samples to this bank, row by row of each cell;
        exact integer addition, so merge order changes no count."""
        if (other.d, other.b) != (self.d, self.b):
            raise ConfigError(f"cannot merge a bank of (d, b) = "
                              f"{(other.d, other.b)} into {(self.d, self.b)}")
        self.sfd_hist += other.sfd_hist
        cell = np.flatnonzero(other.row >= 0)
        self._add_cells(cell)
        self.rows[self.row[cell]] += other.rows[other.row[cell]]
        return self


def _rank(level, n: int):
    """1-indexed nearest rank of `level` (scalar or array) among n samples."""
    return np.clip(np.ceil(np.multiply(level, n)), 1, n).astype(np.int64)


def nearest_rank(hist: np.ndarray, level):
    """Nearest-rank percentile of a histogram-backed multiset at one level
    (a float) or an array of levels (a float array): the _rank-th sample."""
    n = int(hist.sum())
    if n < 1:
        raise CalibrationError("percentile of an empty sample set")
    values = np.searchsorted(np.cumsum(hist), _rank(level, n)).astype(float)
    return float(values) if values.ndim == 0 else values


def calibrate(cfg: SystemConfig, runs: int, seed: int,
              workers: int = 1) -> tuple[ThresholdTable, SampleBank]:
    """Both detectors' thresholds from one fault-free sampling pass of
    `runs` runs of the configured fleet, noise keyed on (seed, run): one
    bank per chunk of runs, over `workers` processes, merged in chunk
    order. The result does not depend on the worker count."""
    cfg.validate()
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    m, scale = cfg.bandwidth, cfg.require_scale()
    worker = partial(_bank_chunk, cfg.models(), m, scale, cfg.rounds, seed,
                     cfg.d, cfg.b, cfg.warmup_discard)
    bank = reduce(SampleBank.merge,
                  map_chunks(worker, runs, cfg.rounds * cfg.n_agents, workers))
    n = bank.sfd_count
    needed = MIN_SFD_SAMPLES_FACTOR / cfg.eta
    if n < needed:
        raise CalibrationError(
            f"{n} window sums collected but the {100 * (1 - cfg.eta):g}th "
            f"percentile needs at least {needed:.0f}")
    kappa = nearest_rank(bank.sfd_hist, 1.0 - cfg.eta)
    log.info("sFD kappa=%g from %d window sums", kappa, n)
    entries = dfd_entries(cfg, bank)
    return ThresholdTable(cfg.eta, cfg.d, cfg.b, m, cfg.n_agents, scale,
                          seed, kappa, n, bank.dfd_count, entries), bank


def _bank_chunk(models: Fleet, m: int, scale: float, rounds: int, seed: int,
                d: int, b: int, warmup_discard: int,
                chunk: range) -> SampleBank:
    """The bank of one chunk of runs, binned run by run: all that
    calibrate reads of a chunk, and all that a worker process sends back."""
    bank = SampleBank(d, b)
    for trace in run_lockstep(models, m, scale, rounds, seed, chunk,
                              schedule_only=True):
        bank.add_trace(trace.gamma, trace.priorities, warmup_discard)
    return bank


def dfd_entries(cfg: SystemConfig | CalibrationConfig,
                bank: SampleBank) -> np.ndarray:
    """Lookup entries kappa(T1, T2, H, a) from a sample bank, at the false
    positive target cfg.eta.

    T1 > T2 cells are NaN (structurally invalid, unreachable through
    lookup); insufficiently sampled cells are +inf.
    """
    d, b, eta = bank.d, bank.b, cfg.eta
    entries = np.full((b, b, d, 2), np.inf, dtype=np.float32)
    h = np.arange(1, d + 1)
    levels, needed = 1.0 - eta / h, MIN_CELL_SAMPLES_FACTOR * h / eta
    counts = bank.cell_counts()
    cells, hists = bank.observed()
    for t1, t2, a, hist in zip(*cells, hists):
        thin = counts[t1, t2, a] < needed
        entries[t1, t2, :, a] = np.where(
            thin, np.inf, nearest_rank(hist, levels))
        if thin.any():
            log.debug("cell (T1=%d,T2=%d,a=%d) has %d samples: kappa=inf for "
                      "H=%s", t1 + 1, t2 + 1, a, counts[t1, t2, a], h[thin].tolist())
    entries[np.tril_indices(b, -1)] = np.nan
    sparse = int(np.isinf(entries).sum(axis=2)[counts > 0].sum())
    if sparse:
        log.warning("%d (cell, H) combinations undersampled, kept at +inf", sparse)
    _log_monotonicity(entries)
    return entries


def _log_monotonicity(entries: np.ndarray) -> None:
    """Sanity scan (logged, not asserted): for fixed (T1, a, H), kappa should
    not decrease in T2 on well-sampled cells; longer silence admits larger
    error."""
    finite = np.where(np.isfinite(entries), entries, np.nan)
    viol = int(np.any(finite < np.fmax.accumulate(finite, axis=1),
                      axis=1).sum())
    if viol:
        log.info("monotonicity sanity: %d (T1,a,H) slices show a decreasing "
                 "kappa in T2 (statistical noise on thin cells is expected)", viol)


def write_calibration_report(bank: SampleBank, path) -> None:
    """Cell coverage CSV: how many period sums back each (T1, T2, a) cell,
    plus the pooled sFD sample count on a summary row."""
    counts = bank.cell_counts()
    t1, t2, a = np.nonzero(counts)
    # the T1=0 row first: sFD window sums
    write_table(path, "", ("T1", "T2", "a", "count"),
                (np.r_[0, t1 + 1], np.r_[0, t2 + 1], np.r_[0, a],
                 np.r_[bank.sfd_count, counts[t1, t2, a]]))


def fit_quantization_scale(models: Fleet, m: int, runs: int, run_length: int,
                           seed: int, warmup_discard: int) -> float:
    """Deployment quantization scale from a raw-priority pre-pass.

    Scheduling normally consumes quantized priorities, which requires the
    scale being fitted here. The pre-pass runs with scale None, so it
    schedules on raw priorities (the fine-quantization limit; the quantizer
    is monotone, so selection only differs through ties), and maps the
    fitted percentile to just below the headroom target.
    """
    if (models.noise_cov != models.noise_cov[0]).any():
        raise CalibrationError("agents have distinct noise covariances; the "
                               "scale fit pools their raw priorities")
    if runs < 1:
        raise CalibrationError(f"the scale fit needs runs >= 1, got {runs}")
    worker = partial(run_lockstep, models, m, None, run_length, seed,
                     schedule_only=True)
    samples = np.concatenate([
        tr.priorities[warmup_discard:].ravel()
        for traces in map_chunks(worker, runs, run_length * len(models))
        for tr in traces])
    samples.sort()
    p = float(samples[_rank(SCALE_FIT_PERCENTILE, samples.size) - 1])
    if p <= 0:
        raise CalibrationError("fault-free raw priorities are all zero; "
                               "cannot fit a quantization scale")
    scale = p / SCALE_HEADROOM_TARGET
    log.info("quantization scale %.6g (p%g of %d raw priorities = %.6g)",
             scale, 100 * SCALE_FIT_PERCENTILE, samples.size, p)
    return scale
