"""Host-speed probe: a fixed slice of work run every 50 ms in the measured
process, so timings can be scaled to a host of fixed speed.

On a host shared with other tenants the speed of one core swings by a
factor of up to two within seconds, and by ±25% between runs a minute
apart, in wall and CPU time alike. A probe on the other core does not
follow it. A probe interleaved in the same thread does: on repeated
25-run calibrations, the quartile spread of 8-command medians fell from
0.20 of the median in raw time to 0.05 in probe-scaled time.

The probe's work mirrors one agent round of the desk fleet (batched 4x4
products, an 8-bit quantizer, a top-M sort, a schedule deque) but is this
file's own code, so a change to priofd cannot make the probe faster or
slower. Its time is excluded from every measured interval it falls in.
A timing t taken while the probe ran in p seconds (median) is reported as
t * REFERENCE_S / p: what the work would take on a host where the probe
takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import time
from collections import deque

import numpy as np

REFERENCE_S = 0.003   # about the probe's median on a quiet 2.1 GHz Xeon core
INTERVAL_S = 0.05
ROUNDS = 100

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((6, 4, 4)) * 0.5
_E0 = _rng.standard_normal((6, 4))
_W = np.eye(4)


def kernel(rounds: int = ROUNDS) -> int:
    e = _E0.copy()
    hist: deque[bool] = deque(maxlen=51)
    acc = 0
    for _ in range(rounds):
        e = np.einsum("ijk,ik->ij", _A, e) + _E0 * 0.1
        e /= 1.0 + np.abs(e).max()
        raw = np.einsum("ij,jk,ik->i", e, _W, e)
        q = np.minimum(np.floor(raw / 0.001), 255).astype(np.int64)
        top = sorted(enumerate(q.tolist()), key=lambda kv: (-kv[1], kv[0]))[:2]
        gamma = np.zeros(6, dtype=bool)
        for i, _ in top:
            gamma[i] = True
        e[gamma] = _E0[gamma] * 0.1
        hist.append(bool(gamma[0]))
        acc += sum(1 for bit in hist if bit) + int(q.sum())
    return acc


class SpeedProbe:
    """Runs the kernel on SIGALRM every INTERVAL_S while started, or on
    demand, and keeps each run's perf_counter start and end."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def _on_alarm(self, signum, frame) -> None:
        self.run()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def within(self, lo: float, hi: float) -> np.ndarray:
        """Durations of the probe runs inside [lo, hi]."""
        s, e = np.array(self.starts), np.array(self.ends)
        keep = (s >= lo) & (e <= hi)
        return e[keep] - s[keep]

    def busy(self, lo: float, hi: float) -> float:
        return float(self.within(lo, hi).sum())

    def factor(self, lo: float, hi: float) -> float:
        """REFERENCE_S over the median probe inside [lo, hi], or over all
        probes so far if none ran there."""
        d = self.within(lo, hi)
        if not d.size:
            d = np.array(self.ends) - np.array(self.starts)
        return REFERENCE_S / float(np.median(d))

    def scaled(self, lo: float, hi: float, factor: float | None = None) -> float:
        """Length of [lo, hi] without probe time, at reference speed."""
        f = self.factor(lo, hi) if factor is None else factor
        return (hi - lo - self.busy(lo, hi)) * f
