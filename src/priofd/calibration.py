"""Monte Carlo threshold calibration for both detectors.

calibrate(cfg, runs, seed) is the one entry point. It simulates `runs`
fault-free runs of the fleet a SystemConfig describes, with noise keyed on
(seed, run), in lockstep chunks (simulate.run_lockstep), and bins run by
run, in run order, every window sum and period sum at rounds >=
cfg.warmup_discard into a SampleBank. Models, bandwidth, quantization
scale, eta, d, b and the run length all come from cfg. It then refuses a
bank too thin for the sFD percentile, takes that percentile, and tabulates
the dFD entries (dfd_entries).

Thresholds are empirical percentiles of fault-free statistics. The sFD
threshold is the 100(1-eta)th percentile of pooled window sums; each dFD
cell (T1, T2, a) pools the period sums with that signature and tabulates,
for every H, the 100(1-eta/H)th percentile. These thresholds and the
quantization scale's percentile are one nearest-rank order statistic

    kappa = sorted_samples[min(max(ceil(level * n), 1), n)]   (1-indexed)

(the rank rule is _rank), so calibration is a pure function of (config,
runs, seed). Quantized sums are small integers, so sample multisets are
exact histograms; dfd_entries visits each observed (T1, T2, a) cell once
and reads its d levels in one nearest_rank call.

Samples within a run are autocorrelated; the percentile remains a
consistent estimator of the marginal quantile, and many independent runs
keep the effective sample size honest. Cells that fault-free operation
never (or too rarely) produces keep kappa = +inf: a signature we cannot
bound must never alarm.

The round engine refuses a fleet whose agents differ in dynamics, gains
or priority weight, so pooling a SystemConfig fleet's agents mixes no
distributions. fit_quantization_scale, the raw-priority pre-pass that
gives a config its scale, takes a model list and also refuses one whose
noise covariances differ.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import SystemConfig, check_run
from .dynamics import AgentModel
from .errors import CalibrationError, ConfigError
from .fd_dynamic import ThresholdTable, window_periods
from .fd_static import window_sums
from .harness import write_table
from .priority import QUANT_MAX, SCALE_FIT_PERCENTILE, SCALE_HEADROOM_TARGET
from .simulate import chunks, run_lockstep
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

    sfd_hist[s] counts window sums equal to s; dfd_hist[T1-1, T2-1, a, s]
    counts period sums with that signature.
    """
    d: int
    b: int
    sfd_hist: np.ndarray = field(init=False)
    dfd_hist: np.ndarray = field(init=False)

    def __post_init__(self):
        top = QUANT_MAX * self.d + 1
        self.sfd_hist = np.zeros(top, dtype=np.int64)
        self.dfd_hist = np.zeros((self.b, self.b, 2, top), dtype=np.int64)

    @property
    def sfd_count(self) -> int:
        return int(self.sfd_hist.sum())

    @property
    def dfd_count(self) -> int:
        return int(self.dfd_hist.sum())

    def cell_counts(self) -> np.ndarray:
        return self.dfd_hist.sum(axis=3)

    def add_trace(self, gamma: np.ndarray, priorities: np.ndarray,
                  start_k: int) -> None:
        """Collect every window sum and period sum at rounds >= start_k."""
        n_agents = gamma.shape[1]
        d, b = self.d, self.b
        start_k = max(start_k, d - 1)
        top = self.sfd_hist.shape[0]
        flat: list[np.ndarray] = []
        for i in range(n_agents):
            sums = window_sums(priorities[:, i], d)
            post = sums[start_k - (d - 1):]
            self.sfd_hist += np.bincount(post, minlength=top)
            rows = window_periods(gamma[:, i], priorities[:, i], d, b, start_k)
            tab = rows[2] <= b
            _, t1, t2, _, a, s = (col[tab] for col in rows)
            flat.append((((t1 - 1) * b + (t2 - 1)) * 2 + a) * top + s)
        np.add.at(self.dfd_hist.reshape(-1), np.concatenate(flat), 1)


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


def calibrate(cfg: SystemConfig, runs: int,
              seed: int) -> tuple[ThresholdTable, SampleBank]:
    """Both detectors' thresholds from one fault-free sampling pass of
    `runs` runs of the configured fleet, noise keyed on (seed, run)."""
    cfg.validate()
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    models, m, scale = cfg.models(), cfg.bandwidth, cfg.require_scale()
    bank = SampleBank(cfg.d, cfg.b)
    for chunk in chunks(runs, cfg.rounds * cfg.n_agents):
        for trace in run_lockstep(models, m, scale, cfg.rounds, seed, chunk):
            bank.add_trace(trace.gamma, trace.priorities, cfg.warmup_discard)
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
    for t1, t2, a in zip(*np.nonzero(counts)):
        thin = counts[t1, t2, a] < needed
        entries[t1, t2, :, a] = np.where(
            thin, np.inf, nearest_rank(bank.dfd_hist[t1, t2, a], levels))
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


def fit_quantization_scale(models: Sequence[AgentModel], m: int, runs: int,
                           run_length: int, seed: int,
                           warmup_discard: int) -> float:
    """Deployment quantization scale from a raw-priority pre-pass.

    Scheduling normally consumes quantized priorities, which requires the
    scale being fitted here. The pre-pass schedules on raw priorities (the
    fine-quantization limit; the quantizer is monotone, so selection only
    differs through ties) and maps the fitted percentile to just below the
    headroom target.
    """
    if any(not np.array_equal(mod.noise_cov, models[0].noise_cov)
           for mod in models):
        raise CalibrationError("agents have distinct noise covariances; the "
                               "scale fit pools their raw priorities")
    if runs < 1:
        raise CalibrationError(f"the scale fit needs runs >= 1, got {runs}")
    # filled run by run, so that no chunk's arrays outlive the chunk
    samples = np.empty((runs, run_length - warmup_discard, len(models)))
    for chunk in chunks(runs, run_length * len(models)):
        for run, trace in zip(chunk, run_lockstep(
                models, m, 1.0, run_length, seed, chunk, select_on_raw=True)):
            samples[run] = trace.raw_priorities[warmup_discard:]
    samples = samples.ravel()
    samples.sort()
    p = float(samples[_rank(SCALE_FIT_PERCENTILE, samples.size) - 1])
    if p <= 0:
        raise CalibrationError("fault-free raw priorities are all zero; "
                               "cannot fit a quantization scale")
    scale = p / SCALE_HEADROOM_TARGET
    log.info("quantization scale %.6g (p%g of %d raw priorities = %.6g)",
             scale, 100 * SCALE_FIT_PERCENTILE, samples.size, p)
    return scale
