"""Static-threshold fault detector (sliding window sum).

The verdict at round k is Fault iff the sum of the monitored agent's last d
quantized priorities exceeds kappa (strict comparison). The sum acts as a
low pass on the detection decision: larger d smooths the verdict but delays
detection. Until d samples exist the verdict is NoFault, so startup cannot
raise alarms. O(1) per update, O(d) memory.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class StaticDetector:
    """One instance per (observer, monitored) pair; instances independent."""

    def __init__(self, agent: int, kappa: float, d: int):
        if d < 1:
            raise ValueError(f"horizon d must be >= 1, got {d}")
        self.agent = agent
        self.kappa = float(kappa)
        self.d = d
        self.window = deque(maxlen=d)
        self._sum = 0

    def update(self, g_new: int) -> bool:
        """Feed the priority of one round (in round order); True = Fault."""
        if len(self.window) == self.d:
            self._sum -= self.window[0]
        self.window.append(g_new)
        self._sum += g_new
        if len(self.window) < self.d:
            return False
        return self._sum > self.kappa


def sfd_verdicts(priorities: np.ndarray, kappa: float, d: int) -> np.ndarray:
    """Vectorized replay: verdicts for rounds 0..T-1 of a (T,) priority
    sequence, or of every column (agent) of a (T, C) one, in its shape.
    Identical to feeding StaticDetector round by round."""
    q = np.asarray(priorities, dtype=np.int64)
    out = np.zeros(q.shape, dtype=bool)
    out[d - 1:] = window_sums(q, d) > kappa
    return out


def window_sums(priorities: np.ndarray, d: int) -> np.ndarray:
    """Sums over [k-d+1, k] for k = d-1 .. T-1 (length T-d+1) of a (T,)
    run, or of every column of a (T, C) one."""
    q = np.asarray(priorities, dtype=np.int64)
    c = np.concatenate((np.zeros_like(q[:1]), np.cumsum(q, axis=0)))
    return c[d:] - c[:-d]      # empty if T < d
