"""History-adaptive fault detector with a precalibrated lookup table.

The detection window [k-d+1, k] is split into periods delimited by the
monitored agent's communication rounds: every period except possibly the
last ends at a round with gamma=1 and contains no interior communication.
A period is characterized by its start delay T1 and end delay T2, both
measured from the last communication before the period (T1 = 1 for all but
the first period), plus the number of periods H in the window and a flag a
marking the period that ends at the current round. Each period's priority
sum is compared against kappa(T1, T2, H, a); any exceedance raises Fault.

Long silences carry no evidence of misbehavior: the table stops at T2 = b
and periods with T2 > b are never compared, so they never alarm. The first
period's T1 is capped at b+1 when no communication is found within b+1
rounds before the window (or since the run start), which forces its T2
beyond b.

The online path runs once per round on what an observer holds. One
helper (_period_ends) takes the communication rounds a ScheduleHistory
returns for [k-d-b, k], bisects them at the window start, and returns the
first period's T1 and the last round of every period. partition_window
builds its Period tuples from those; dfd_evaluate walks them in one pass
with no per-period objects, taking each period's sum from one prefix list
of the window's priorities and its threshold as a Python float.
The batch kernel window_periods lays out the compared periods of every
window of a recorded (T,) or (T, C) run as flat arrays, column (agent)
after column, in one pass; a window's first period looks back for its T1
only within its own column. It is where the batch path decides T2 <= b,
and it tags each period with its window's row w in the run's (C, windows)
layout. Calibration (SampleBank.add_trace) bins its rows as they come;
replay (dfd_verdicts) gathers their thresholds and scatters each
exceedance onto w. Online, dfd_evaluate decides T2 <= b itself, and
test_offline_matches_online holds the two paths to the same verdicts.

Table file format "PFDT" v1 (little endian):

    magic 'PFDT' | u32 version |
    f64 eta | u32 d | u32 b | u32 M | u32 N | f64 scale | u64 seed |
    f64 sfd_kappa | u64 sfd_samples | u64 dfd_samples |
    float32 entries, C order, shape (b, b, d, 2) indexed
        [T1-1, T2-1, H-1, a]

Cells never touched by calibration hold +inf; structurally invalid cells
(T1 > T2) hold NaN and are never read by either detector. Round-trips are
bit-exact.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .config import SystemConfig
from .errors import ConfigError
from .network import ScheduleHistory

MAGIC = b"PFDT"
VERSION = 1
_HEADER = struct.Struct("<4sI d II II d Q d QQ")


class Period(NamedTuple):
    start: int      # first round (absolute)
    end: int        # last round (absolute, inclusive)
    T1: int
    T2: int
    is_last: bool


def _period_ends(history: ScheduleHistory, k: int, d: int,
                 b: int) -> tuple[int, list[int]]:
    """The first period's T1 and the last round of every period of
    [k-d+1, k], from the agent's communication rounds in [k-d-b, k]."""
    ws = k - d + 1
    if ws < 0:
        raise ConfigError(f"window [{ws}, {k}] starts before the run")
    ends = history.comm_rounds(ws - (b + 1), k)
    before = bisect_left(ends, ws)
    # the first period counts from the last communication before the window
    # (at most b+1 rounds back), or from b+1 if there is none; every later
    # period starts right after a communication
    t1 = ws - ends[before - 1] if before else b + 1
    del ends[:before]                # comm_rounds returns a new list
    if not ends or ends[-1] != k:
        ends.append(k)
    return t1, ends


def partition_window(history: ScheduleHistory, k: int, d: int, b: int) -> list[Period]:
    """The unique period partition of [k-d+1, k] for one agent, from its
    communication rounds in [k-d-b, k]."""
    t1, ends = _period_ends(history, k, d, b)
    periods = []
    start = k - d + 1
    for end in ends:
        periods.append(Period(start, end, t1, t1 + end - start, end == k))
        start, t1 = end + 1, 1
    return periods


def window_periods(gamma: np.ndarray, q: np.ndarray, d: int, b: int,
                   start_k: int) -> tuple[np.ndarray, ...]:
    """The compared periods (T2 <= b) of every window [k-d+1, k], k >=
    start_k, of every column of a (T,) or (T, C) run, as flat int64 arrays
    (w, T1, T2, H, a, sum) in column, k, period order. w is the window's
    row in the (C, windows) layout: k = w % windows + max(start_k, d-1)."""
    g = np.asarray(gamma, dtype=bool)
    rounds, cols = g.shape[0], 1 if g.ndim == 1 else g.shape[1]
    # the columns laid end to end: a window ends at flat round kf of the
    # column that starts at flat round base, and sees only that column
    g, q = g.T.ravel(), np.asarray(q).T.ravel()
    col_ks = np.arange(max(start_k, d - 1), rounds)
    base = np.repeat(np.arange(cols) * rounds, col_ks.size)
    kf = base + np.tile(col_ks, cols)
    ws = kf - d + 1
    comms = np.flatnonzero(g)
    pad = np.append(comms, -1)                # lo + j may run one past the end
    lo = np.searchsorted(comms, ws)
    n_comm = np.searchsorted(comms, kf, side="right") - lo
    h_count = n_comm + ~g[kf]                 # trailing silent period
    first = np.cumsum(h_count) - h_count      # row of each window's period 1
    w = np.repeat(np.arange(kf.size), h_count)
    j = np.arange(w.size) - first[w]          # 0-based period index
    end = np.where(j < n_comm[w], pad[lo[w] + j], kf[w])
    start = np.empty_like(end)
    start[1:] = end[:-1] + 1
    start[first] = ws
    # the first period counts from the last communication of its column
    # before the window (pad[-1] = -1 if none), capped at b+1; every later
    # period starts right after one
    t1 = np.ones_like(end)
    prev = pad[lo - 1]
    t1[first] = np.where(prev >= base, np.minimum(ws - prev, b + 1), b + 1)
    cq = np.concatenate(([0], np.cumsum(q, dtype=np.int64)))
    sums = cq[end + 1] - cq[start]
    end += t1 - start                         # T2, in place
    keep = end <= b                           # a period past b never alarms
    w, j = w[keep], j[keep]
    h = h_count[w]
    return (w, t1[keep], end[keep], h, (j == h - 1).astype(np.int64),
            sums[keep])


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
        if d < 1 or b < 1 or not 0 < eta < 1:
            raise ConfigError(f"{path}: bad table header: need d >= 1, "
                              f"b >= 1 and 0 < eta < 1, got d={d}, b={b}, "
                              f"eta={eta}")
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
    t1, ends = _period_ends(history, k, d, b)
    # cq[j] is the sum of the window's first j priorities
    cq = list(accumulate(q.tolist(), initial=0))
    kappa, h = table.entries.item, len(ends) - 1
    start = ws = k - d + 1
    for end in ends:
        t2 = t1 + end - start
        if (t2 <= b and cq[end - ws + 1] - cq[start - ws]
                > kappa(t1 - 1, t2 - 1, h, int(end == k))):
            return True
        start, t1 = end + 1, 1
    return False


def dfd_verdicts(gamma: np.ndarray, priorities: np.ndarray,
                 table: ThresholdTable) -> np.ndarray:
    """Vectorized replay of a full run: verdicts for rounds 0..T-1 of one
    agent's (T,) schedule and priorities, or of every column (agent) of a
    (T, C) pair, in that shape: one gather of the thresholds of the periods
    window_periods compares, and one scatter of the exceedances onto their
    window rows w. Rounds before the first full window are NoFault.
    Identical to dfd_evaluate round by round."""
    g, d = np.asarray(gamma, dtype=bool), table.d
    w, t1, t2, h, a, s = window_periods(g, priorities, d, table.b, 0)
    fault = np.zeros(g.T.shape[:-1] + (max(len(g) - d + 1, 0),), dtype=bool)
    fault.reshape(-1)[w[s > table.entries[t1 - 1, t2 - 1, h - 1, a]]] = True
    out = np.zeros(g.shape, dtype=bool)
    out[d - 1:] = fault.T
    return out
