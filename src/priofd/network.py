"""The network side of the protocol: which agents transmit, and the
communication record an online dFD observer keeps.

top_m is the one home of the selection rule: the M highest priorities
win, ties to the lower agent id. The round engine (simulate.run_lockstep)
applies it every round, to every run of a chunk at once, to elect the
senders two rounds ahead. ScheduleHistory keeps one agent's communication
rounds for the per-update dFD (fd_dynamic.dfd_evaluate).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ConfigError


class ScheduleHistory:
    """Rounds in which one agent communicated (gamma=1), as an online dFD
    observer keeps them: absolute round numbers, oldest first, covering the
    last `retention` rounds appended. Rounds before the run count as
    silent."""

    def __init__(self, agent: int, retention: int):
        if retention < 1:
            raise ConfigError("retention must be >= 1")
        self.agent = agent
        self.retention = retention
        self._comms: deque[int] = deque()
        self._next_round = 0

    def append(self, bit: bool) -> None:
        if bit:
            self._comms.append(self._next_round)
        self._next_round += 1
        if self._comms and self._comms[0] < self._next_round - self.retention:
            self._comms.popleft()

    def comm_rounds(self, lo: int, hi: int) -> list[int]:
        """Communication rounds in [lo, hi], oldest first. Scans back from
        the newest round and stops below lo, so with hi the newest round a
        call costs O(hi - lo) whatever the retention."""
        first = max(self._next_round - self.retention, 0)
        if max(lo, 0) < first or hi >= self._next_round:
            raise ConfigError(
                f"history of agent {self.agent} covers "
                f"[{first}, {self._next_round - 1}], requested [{lo}, {hi}]")
        out = []
        for r in reversed(self._comms):
            if r < lo:
                break
            if r <= hi:
                out.append(r)
        out.reverse()
        return out


def top_m(priorities: np.ndarray, m: int) -> np.ndarray:
    """Indices of the min(m, N) highest priorities along the last axis,
    highest first, ties to the lower index."""
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    p = np.asarray(priorities)
    return np.argsort(-p, axis=-1, kind="stable")[..., :min(m, p.shape[-1])]
