"""Monte Carlo threshold calibration for both detectors.

Thresholds are empirical percentiles of fault-free statistics. The sFD
threshold is the 100(1-eta)th percentile of pooled window sums; each dFD
cell (T1, T2, a) pools the period sums with that signature and tabulates,
for every H, the 100(1-eta/H)th percentile. The percentile estimator is the
deterministic nearest-rank order statistic

    kappa = sorted_samples[ceil(level * n)]   (1-indexed)

so calibration is a pure function of (config, seed). Quantized sums are
small integers, so sample multisets are stored as exact histograms.

Samples within a run are autocorrelated; the percentile remains a
consistent estimator of the marginal quantile, and many independent runs
keep the effective sample size honest. Cells that fault-free operation
never (or too rarely) produces keep kappa = +inf: a signature we cannot
bound must never alarm.

Agents are pooled only when their (dynamics, gains, weight) signatures are
identical; calibrating a mixed fleet is refused rather than silently
pooling different distributions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import AgentModel
from .errors import CalibrationError, ConfigError
from .fd_dynamic import ThresholdTable, window_periods
from .fd_static import window_sums
from .priority import QUANT_MAX, SCALE_HEADROOM_TARGET
from .simulate import run_single

log = logging.getLogger(__name__)

MIN_SFD_SAMPLES_FACTOR = 100.0   # refuse below 100/eta pooled window sums
MIN_CELL_SAMPLES_FACTOR = 20.0   # a cell needs 20*H/eta sums for level 1-eta/H


@dataclass
class CalibrationConfig:
    eta: float = 0.01
    d: int = 10
    b: int = 40
    runs: int = 2000
    run_length: int = 300
    seed: int = 0
    warmup_discard: int = 50

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ConfigError(f"eta must be in (0, 1), got {self.eta}")
        if self.d < 1 or self.b < 1 or self.runs < 1:
            raise ConfigError("d, b and runs must all be >= 1")
        if self.run_length < self.warmup_discard + self.d:
            raise ConfigError("run_length too short for warmup_discard + d")


@dataclass
class SampleBank:
    """Exact multisets of fault-free sums, histogram backed.

    sfd_hist[s] counts window sums equal to s; dfd_hist[T1-1, T2-1, a, s]
    counts period sums with that signature. With audit=True every sample's
    (run, k, agent) origin is kept for traceability.
    """
    d: int
    b: int
    audit: bool = False
    sfd_hist: np.ndarray = field(init=False)
    dfd_hist: np.ndarray = field(init=False)
    audit_log: list = field(default_factory=list)

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
                  start_k: int, run: int = -1) -> None:
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
            k, t1, t2, _, a, s = (col[tab] for col in rows)
            flat.append((((t1 - 1) * b + (t2 - 1)) * 2 + a) * top + s)
            if self.audit:
                cols = (c.tolist() for c in (t1, t2, a, s))
                self.audit_log.extend((run, kk, i + 1, *cell)
                                      for kk, *cell in zip(k.tolist(), *cols))
        np.add.at(self.dfd_hist.reshape(-1), np.concatenate(flat), 1)


def nearest_rank(hist: np.ndarray, level: float) -> float:
    """Nearest-rank percentile of a histogram-backed multiset: the value of
    the ceil(level*n)-th smallest sample (1-indexed)."""
    n = int(hist.sum())
    if n < 1:
        raise CalibrationError("percentile of an empty sample set")
    rank = min(max(math.ceil(level * n), 1), n)
    return float(np.searchsorted(np.cumsum(hist), rank))


def model_signature(model: AgentModel) -> bytes:
    parts = [model.A, model.B, model.F_self, model.noise_cov,
             model.priority_weight]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def _require_homogeneous(models: Sequence[AgentModel]) -> None:
    sigs = {model_signature(m) for m in models}
    if len(sigs) != 1:
        raise CalibrationError(
            "agents have distinct (dynamics, gains, weight) signatures; "
            "pooled calibration would mix different priority distributions")


def collect_samples(cfg: CalibrationConfig, models: Sequence[AgentModel],
                    m: int, scale: float, audit: bool = False) -> SampleBank:
    """Fault-free Monte Carlo sampling pooled across identical agents."""
    _require_homogeneous(models)
    bank = SampleBank(cfg.d, cfg.b, audit=audit)
    for run in range(cfg.runs):
        trace = run_single(models, m, scale, cfg.run_length, cfg.seed, run)
        bank.add_trace(trace.gamma, trace.priorities, cfg.warmup_discard, run)
    return bank


def calibrate_sfd(cfg: CalibrationConfig, models: Sequence[AgentModel],
                  m: int, scale: float,
                  bank: SampleBank | None = None) -> tuple[float, int]:
    """sFD threshold and its pooled sample count."""
    if bank is None:
        bank = collect_samples(cfg, models, m, scale)
    n = bank.sfd_count
    needed = MIN_SFD_SAMPLES_FACTOR / cfg.eta
    if n < needed:
        raise CalibrationError(
            f"{n} window sums collected but the {100 * (1 - cfg.eta):g}th "
            f"percentile needs at least {needed:.0f}")
    kappa = nearest_rank(bank.sfd_hist, 1.0 - cfg.eta)
    log.info("sFD kappa=%g from %d window sums", kappa, n)
    return kappa, n


def dfd_entries(cfg: CalibrationConfig, bank: SampleBank) -> np.ndarray:
    """Lookup entries kappa(T1, T2, H, a) from a sample bank.

    T1 > T2 cells are NaN (structurally invalid, unreachable through
    lookup); insufficiently sampled cells are +inf.
    """
    d, b, eta = cfg.d, cfg.b, cfg.eta
    entries = np.full((b, b, d, 2), np.inf, dtype=np.float32)
    counts = bank.cell_counts()
    sparse = 0
    for t1 in range(1, b + 1):
        entries[t1 - 1, :t1 - 1, :, :] = np.nan
        for t2 in range(t1, b + 1):
            for a in (0, 1):
                n = int(counts[t1 - 1, t2 - 1, a])
                if n == 0:
                    continue
                hist = bank.dfd_hist[t1 - 1, t2 - 1, a]
                cum = np.cumsum(hist)
                for h in range(1, d + 1):
                    if n < MIN_CELL_SAMPLES_FACTOR * h / eta:
                        sparse += 1
                        log.debug("cell (T1=%d,T2=%d,a=%d) has %d samples, "
                                  "H=%d needs %.0f: kappa=inf",
                                  t1, t2, a, n, h, MIN_CELL_SAMPLES_FACTOR * h / eta)
                        continue
                    rank = min(max(math.ceil((1.0 - eta / h) * n), 1), n)
                    entries[t1 - 1, t2 - 1, h - 1, a] = float(
                        np.searchsorted(cum, rank))
    if sparse:
        log.warning("%d (cell, H) combinations undersampled, kept at +inf", sparse)
    _log_monotonicity(entries, counts, cfg)
    return entries


def _log_monotonicity(entries: np.ndarray, counts: np.ndarray,
                      cfg: CalibrationConfig) -> None:
    """Sanity scan (logged, not asserted): for fixed (T1, a, H), kappa should
    not decrease in T2 on well-sampled cells; longer silence admits larger
    error."""
    viol = 0
    for t1 in range(cfg.b):
        for a in (0, 1):
            for h in range(cfg.d):
                col = entries[t1, :, h, a]
                ok = np.isfinite(col)
                vals = col[ok]
                if vals.size >= 2 and np.any(np.diff(vals) < 0):
                    viol += 1
    if viol:
        log.info("monotonicity sanity: %d (T1,a,H) slices show a decreasing "
                 "kappa in T2 (statistical noise on thin cells is expected)", viol)


def calibrate_dfd(cfg: CalibrationConfig, models: Sequence[AgentModel],
                  m: int, scale: float,
                  bank: SampleBank | None = None) -> ThresholdTable:
    if bank is None:
        bank = collect_samples(cfg, models, m, scale)
    kappa, n_sfd = calibrate_sfd(cfg, models, m, scale, bank=bank)
    entries = dfd_entries(cfg, bank)
    return ThresholdTable(cfg.eta, cfg.d, cfg.b, m, len(models), scale,
                          cfg.seed, kappa, n_sfd, bank.dfd_count, entries)


def calibrate(cfg: CalibrationConfig, models: Sequence[AgentModel],
              m: int, scale: float) -> tuple[ThresholdTable, SampleBank]:
    """One sampling pass feeding both detectors' thresholds."""
    bank = collect_samples(cfg, models, m, scale)
    return calibrate_dfd(cfg, models, m, scale, bank=bank), bank


def write_calibration_report(bank: SampleBank, path) -> None:
    """Cell coverage CSV: how many period sums back each (T1, T2, a) cell,
    plus the pooled sFD sample count on a summary row."""
    counts = bank.cell_counts()
    with open(path, "w", newline="") as fh:
        fh.write("T1;T2;a;count\n")
        fh.write(f"0;0;0;{bank.sfd_count}\n")  # T1=0 row: sFD window sums
        for t1 in range(1, bank.b + 1):
            for t2 in range(t1, bank.b + 1):
                for a in (0, 1):
                    n = int(counts[t1 - 1, t2 - 1, a])
                    if n:
                        fh.write(f"{t1};{t2};{a};{n}\n")


def fit_quantization_scale(models: Sequence[AgentModel], m: int, runs: int,
                           run_length: int, seed: int,
                           warmup_discard: int = 50,
                           percentile: float = 0.999) -> float:
    """Deployment quantization scale from a raw-priority pre-pass.

    Scheduling normally consumes quantized priorities, which requires the
    scale being fitted here. The pre-pass schedules on raw priorities (the
    fine-quantization limit; the quantizer is monotone, so selection only
    differs through ties) and maps the fitted percentile to just below the
    headroom target.
    """
    _require_homogeneous(models)
    pool = []
    for run in range(runs):
        trace = run_single(models, m, scale=1.0, rounds=run_length, seed=seed,
                           run=run, select_on_raw=True, keep_raw=True)
        pool.append(trace.raw_priorities[warmup_discard:].ravel())
    samples = np.sort(np.concatenate(pool))
    rank = min(max(math.ceil(percentile * samples.size), 1), samples.size)
    p = float(samples[rank - 1])
    if p <= 0:
        raise CalibrationError("fault-free raw priorities are all zero; "
                               "cannot fit a quantization scale")
    scale = p / SCALE_HEADROOM_TARGET
    log.info("quantization scale %.6g (p%g of %d raw priorities = %.6g)",
             scale, 100 * percentile, samples.size, p)
    return scale
