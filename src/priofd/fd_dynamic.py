"""History-adaptive fault detector with a precalibrated lookup table.

The detection window [k-d+1, k] is split into periods delimited by the
monitored agent's communication rounds: every period except possibly the
last ends at a round with gamma=1 and contains no interior communication.
A period is characterized by its start delay T1 and end delay T2, both
measured from the last communication before the period (T1 = 1 for all but
the first period), plus the number of periods H in the window and a flag a
marking the period that ends at the current round. Each period's priority
sum is compared against kappa(T1, T2, H, a); any exceedance raises Fault.

Long silences carry no evidence of misbehavior: entries with T2 > b are
+inf, so such periods never alarm. The first period's T1 is capped at b+1
when no communication is found within b+1 rounds before the window (or
since the run start), which forces its T2 beyond b.

The online partitioner (partition_window) walks one window of a
ScheduleHistory per round for dfd_evaluate. The batch kernel window_periods
lays out every period of every window of a recorded run as flat arrays for
calibration (SampleBank.add_trace) and replay (dfd_verdicts).

Table file format "PFDT" v1 (little endian):

    magic 'PFDT' | u32 version |
    f64 eta | u32 d | u32 b | u32 M | u32 N | f64 scale | u64 seed |
    f64 sfd_kappa | u64 sfd_samples | u64 dfd_samples |
    float32 entries, C order, shape (b, b, d, 2) indexed
        [T1-1, T2-1, H-1, a]

Cells never touched by calibration hold +inf; structurally invalid cells
(T1 > T2) hold NaN and are unreachable through lookup. Round-trips are
bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import SystemConfig
from .errors import ConfigError
from .network import ScheduleHistory

MAGIC = b"PFDT"
VERSION = 1
_HEADER = struct.Struct("<4sI d II II d Q d QQ")


@dataclass(frozen=True)
class Period:
    h: int          # 1-based index within the window
    start: int      # first round (absolute)
    end: int        # last round (absolute, inclusive)
    T1: int
    T2: int
    is_last: bool

    def __post_init__(self):
        if not (1 <= self.T1 <= self.T2):
            raise AssertionError(f"invalid period delays T1={self.T1} T2={self.T2}")
        if self.end - self.start != self.T2 - self.T1:
            raise AssertionError("period length inconsistent with delays")


def partition_rounds(window_gamma: Sequence[bool], window_start: int,
                     last_comm_before: int | None, b: int) -> list[Period]:
    """Partition [window_start, window_start+len-1] given the gamma bits of
    the window and the round of the last communication strictly before it
    (None if none within b+1 rounds, which caps the first T1 at b+1)."""
    k_end = window_start + len(window_gamma) - 1
    raw: list[tuple[int, int, int]] = []  # (start, end, T1)
    start = window_start
    t_prev = last_comm_before
    for off, bit in enumerate(window_gamma):
        r = window_start + off
        if bit:
            t1 = (start - t_prev) if t_prev is not None else b + 1
            raw.append((start, r, t1))
            t_prev = r
            start = r + 1
    if start <= k_end:
        t1 = (start - t_prev) if t_prev is not None else b + 1
        raw.append((start, k_end, t1))
    return [Period(h, s, e, t1, t1 + (e - s), h == len(raw))
            for h, (s, e, t1) in enumerate(raw, start=1)]


def partition_window(history: ScheduleHistory, k: int, d: int, b: int) -> list[Period]:
    """The unique period partition of [k-d+1, k] for one agent."""
    gam = history.window(k, d)
    ws = k - d + 1
    last = history.last_comm_in(ws - (b + 1), ws - 1)
    return partition_rounds(gam, ws, last, b)


def window_periods(gamma: np.ndarray, q: np.ndarray, d: int, b: int,
                   start_k: int) -> tuple[np.ndarray, ...]:
    """Every period of every window [k-d+1, k] with k >= start_k of one
    agent's full run, as flat int64 arrays (k, T1, T2, H, a, sum). Rows are
    ordered by k, then by period index within the window."""
    g = np.asarray(gamma, dtype=bool)
    ks = np.arange(max(start_k, d - 1), g.shape[0])
    ws = ks - d + 1
    comms = np.flatnonzero(g)
    pad = np.append(comms, 0)                 # lo + j may run one past the end
    lo = np.searchsorted(comms, ws)
    n_comm = np.searchsorted(comms, ks, side="right") - lo
    h_count = n_comm + ~g[ks]                 # trailing silent period
    first = np.cumsum(h_count) - h_count      # row of each window's period 1
    w = np.repeat(np.arange(ks.size), h_count)
    j = np.arange(w.size) - first[w]          # 0-based period index
    end = np.where(j < n_comm[w], pad[lo[w] + j], ks[w])
    start = np.empty_like(end)
    start[1:] = end[:-1] + 1
    start[first] = ws
    # the first period counts from the last communication before the window,
    # capped at b+1; every later period starts right after one
    t1 = np.ones_like(end)
    t1[first] = np.where(lo > 0, np.minimum(ws - pad[lo - 1], b + 1), b + 1)
    cq = np.concatenate(([0], np.cumsum(q, dtype=np.int64)))
    return (ks[w], t1, t1 + end - start, h_count[w],
            (j == h_count[w] - 1).astype(np.int64), cq[end + 1] - cq[start])


@dataclass
class ThresholdTable:
    eta: float
    d: int
    b: int
    m: int
    n_agents: int
    scale: float
    seed: int
    sfd_kappa: float
    sfd_samples: int
    dfd_samples: int
    entries: np.ndarray  # float32, (b, b, d, 2)

    def __post_init__(self):
        expected = (self.b, self.b, self.d, 2)
        self.entries = np.asarray(self.entries, dtype=np.float32)
        if self.entries.shape != expected:
            raise ConfigError(
                f"table entries shape {self.entries.shape}, expected {expected}")

    def lookup(self, t1: int, t2: int, h: int, a: int | bool) -> float:
        a = int(a)
        if t1 < 1 or t2 < t1 or h < 1 or h > self.d or a not in (0, 1):
            raise ValueError(
                f"invalid lookup index T1={t1} T2={t2} H={h} a={a}")
        if t2 > self.b:
            return float("inf")
        return float(self.entries[t1 - 1, t2 - 1, h - 1, a])

    def check_compatible(self, cfg: SystemConfig) -> None:
        """Refuse a table calibrated for other detector parameters, another
        fleet size or bandwidth, or another quantization scale."""
        got = (self.eta, self.d, self.b, self.m, self.n_agents, self.scale)
        want = (cfg.eta, cfg.d, cfg.b, cfg.bandwidth, cfg.n_agents,
                cfg.require_scale())
        if got != want:
            raise ConfigError(
                "threshold table header does not match the runtime config: "
                f"table (eta,d,b,M,N,scale)={got}, config={want}")

    def save(self, path: str | Path) -> None:
        header = _HEADER.pack(MAGIC, VERSION, self.eta, self.d, self.b,
                              self.m, self.n_agents, self.scale, self.seed,
                              self.sfd_kappa, self.sfd_samples,
                              self.dfd_samples)
        arr = np.ascontiguousarray(self.entries, dtype="<f4")
        Path(path).write_bytes(header + arr.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdTable":
        blob = Path(path).read_bytes()
        if len(blob) < _HEADER.size:
            raise ConfigError(f"{path}: truncated threshold table")
        (magic, version, eta, d, b, m, n_agents, scale, seed, sfd_kappa,
         sfd_samples, dfd_samples) = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a threshold table (bad magic)")
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported table version {version}")
        count = b * b * d * 2
        body = blob[_HEADER.size:]
        if len(body) != 4 * count:
            raise ConfigError(f"{path}: expected {4 * count} entry bytes, "
                              f"found {len(body)}")
        entries = np.frombuffer(body, dtype="<f4").reshape(b, b, d, 2)
        return cls(eta, d, b, m, n_agents, scale, seed, sfd_kappa,
                   sfd_samples, dfd_samples, entries.copy())


def dfd_evaluate(history: ScheduleHistory, priorities: Sequence[int],
                 table: ThresholdTable, k: int) -> bool:
    """Verdict at round k; priorities are the monitored agent's last d
    quantized values (rounds k-d+1 .. k). True = Fault."""
    d, b = table.d, table.b
    q = np.asarray(priorities, dtype=np.int64)
    if q.shape != (d,):
        raise ConfigError(f"need exactly d={d} priorities, got {q.shape}")
    periods = partition_window(history, k, d, b)
    ws = k - d + 1
    h_count = len(periods)
    for p in periods:
        s = int(q[p.start - ws:p.end - ws + 1].sum())
        if s > table.lookup(p.T1, p.T2, h_count, p.is_last):
            return True
    return False


def dfd_verdicts(gamma: np.ndarray, priorities: np.ndarray,
                 table: ThresholdTable) -> np.ndarray:
    """Vectorized replay of one agent's full run: verdicts for rounds
    0..T-1 from the recorded schedule and priorities. Rounds before the
    first full window are NoFault. Identical to dfd_evaluate round by
    round."""
    out = np.zeros(len(gamma), dtype=bool)
    k, t1, t2, h, a, s = window_periods(gamma, priorities, table.d, table.b, 0)
    tab = t2 <= table.b
    kappa = table.entries[t1[tab] - 1, t2[tab] - 1, h[tab] - 1, a[tab]]
    out[k[tab][s[tab] > kappa]] = True
    return out
