"""The network side of the protocol: which agents transmit, and the
communication record an online dFD observer keeps.

top_m is the one home of the selection rule: the M highest priorities
win, ties to the lower agent id. The round engine (simulate.run_lockstep)
applies it every round, to every run of a chunk at once, to elect the
senders two rounds ahead. ScheduleHistory keeps one agent's communication
rounds in a sorted list for the per-update dFD (fd_dynamic.dfd_evaluate):
an append trims at most one round, and a range lookup is two bisections
and a slice.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .errors import ConfigError


class ScheduleHistory:
    """Rounds in which one agent communicated (gamma=1), as an online dFD
    observer keeps them: absolute round numbers in a sorted list, covering
    the last `retention` rounds appended. Rounds before the run count as
    silent."""

    def __init__(self, agent: int, retention: int):
        if retention < 1:
            raise ConfigError("retention must be >= 1")
        self.agent = agent
        self.retention = retention
        self._comms: list[int] = []
        self._next_round = 0

    def append(self, bit: bool) -> None:
        if bit:
            self._comms.append(self._next_round)
        self._next_round += 1
        # rounds are distinct, so one append moves at most one out of reach
        if self._comms and self._comms[0] < self._next_round - self.retention:
            del self._comms[0]

    def comm_rounds(self, lo: int, hi: int) -> list[int]:
        """Communication rounds in [lo, hi], oldest first, as a new list.
        Two bisections and a slice: O(log retention + hi - lo)."""
        n = self._next_round
        first = n - self.retention    # rounds before 0 are known silent
        if (lo < first and first > 0) or hi >= n:
            raise ConfigError(
                f"history of agent {self.agent} covers "
                f"[{max(first, 0)}, {n - 1}], requested [{lo}, {hi}]")
        comms = self._comms
        return comms[bisect_left(comms, lo):bisect_right(comms, hi)]


def top_m(priorities: np.ndarray, m: int) -> np.ndarray:
    """Indices of the min(m, N) highest priorities along the last axis,
    highest first, ties to the lower index."""
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    p = np.asarray(priorities)
    # a stable sort has one result whatever its algorithm; numpy's radix
    # sort of 16-bit keys is several times slower on rows of a few agents
    key = np.negative(p, dtype=np.result_type(p, np.int32))
    return np.argsort(key, axis=-1, kind="stable")[..., :min(m, p.shape[-1])]
