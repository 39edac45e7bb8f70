"""Round-based many-to-all protocol with priority scheduling.

Timeline of one round k (all agents synchronized, network lossless):

1. every agent's quantized priority g_i(k) is collected;
2. the winner set decided from priorities at k-2 transmits: those agents'
   current measurements x_i(k) flood the network during round k
   (gamma_i(k)=1) and enter everyone's estimate at k+1;
3. the fresh priorities elect the senders of round k+2.

The first two rounds have an empty delivery pipeline; the winner set from
round-0 priorities transmits in round 2. States, estimates and errors start
at zero, so the cold start is benign.

The world advances the shared estimates via the extrapolation rule and the
estimation errors via their exact recursions (e <- v after a received
round, e <- Atilde e + v after a silent one) whenever an agent's plant
matches the shared model; plants mutated by fault scenarios fall back to
explicit plant simulation with e = x - x_hat. True states are derived as
x = x_hat + e.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (AgentModel, DISTURBANCE_NOISE, PROCESS_NOISE,
                       draw_noise_block, noise_stream)
from .errors import ConfigError
from .priority import quantize_batch


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


def select_senders(priorities: np.ndarray | Sequence[float], m: int) -> tuple[int, ...]:
    """Ids of the min(m, N) agents with the highest priorities, given the
    values of agents 1..N in order. Ties break by ascending agent id."""
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    p = np.asarray(priorities)
    return tuple((np.argsort(-p, kind="stable")[:min(m, p.size)] + 1).tolist())


@dataclass
class RoundOutcome:
    k: int
    priorities: np.ndarray          # quantized, indexed by agent id - 1
    senders: tuple[int, ...]        # ids with gamma(k) = 1


@dataclass
class Disturbance:
    chol: np.ndarray
    until_k: int                    # exclusive
    rng: np.random.Generator


class WorldState:
    """Single-owner state of one simulation run (advanced sequentially)."""

    def __init__(self, models: Sequence[AgentModel], m: int, scale: float,
                 rounds: int, seed: int, run: int):
        ids = [mod.id for mod in models]
        if ids != list(range(1, len(models) + 1)):
            raise ConfigError(f"agent ids must be 1..N in order, got {ids}")
        dims = {(mod.n, mod.m) for mod in models}
        if len(dims) != 1:
            raise ConfigError("the round engine requires equal state/input "
                              "dimensions across agents")
        if m <= 0:
            raise ConfigError(f"bandwidth M must be positive, got {m}")
        self.models = list(models)
        self.N = len(models)
        self.n, self.b = dims.pop()
        self.M = min(m, self.N)
        self.scale = float(scale)
        self.rounds = rounds
        self.k = 0

        self.Xhat = np.zeros((self.N, self.n))
        self.E = np.zeros((self.N, self.n))

        self._A = np.stack([mod.A for mod in models])
        self._B = np.stack([mod.B for mod in models])
        self._Fself = np.stack([mod.F_self for mod in models])
        self._P1 = np.stack([mod.closed_loop for mod in models])
        self._P2 = np.stack([mod.error_pred2 for mod in models])
        self._W = np.stack([mod.priority_weight for mod in models])
        big = np.zeros((self.N * self.b, self.N * self.n))
        for i, mod in enumerate(models):
            for j, gain in mod.F_cross.items():
                if not 1 <= j <= self.N or j == mod.id:
                    raise ConfigError(f"agent {mod.id} has F_cross entry for "
                                      f"invalid agent {j}")
                big[i * self.b:(i + 1) * self.b,
                    (j - 1) * self.n:j * self.n] = gain
        self._BigF = big

        # plant-side copies; scenario mutations touch only these
        self.plant_A = self._A.copy()
        self.plant_B = self._B.copy()
        self.model_matched = np.ones(self.N, dtype=bool)
        self.disturbances: dict[int, Disturbance] = {}

        self.noise = np.stack([
            draw_noise_block(mod, noise_stream(seed, run, mod.id, PROCESS_NOISE), rounds)
            for mod in models
        ], axis=1)  # (rounds, N, n); row k is injected in the k -> k+1 step
        self._seed, self._run = seed, run

        self.pipeline: deque[tuple[int, ...]] = deque([(), ()])

    def disturbance_stream(self, agent: int) -> np.random.Generator:
        return noise_stream(self._seed, self._run, agent, DISTURBANCE_NOISE)

    @property
    def states(self) -> np.ndarray:
        """True states x(k) = x_hat(k) + e(k), indexed by agent id - 1."""
        return self.Xhat + self.E

    def raw_priorities(self) -> np.ndarray:
        e_pred = np.einsum("ijk,ik->ij", self._P2, self.E)
        return np.einsum("ij,ijk,ik->i", e_pred, self._W, e_pred)


def run_round(world: WorldState, select_on_raw: bool = False) -> RoundOutcome:
    """Execute round k: collect priorities, resolve the delay pipeline,
    deliver measurements, elect the senders of round k+2, advance plants,
    estimates and errors to k+1."""
    k = world.k
    if k >= world.rounds:
        raise ConfigError(f"run configured for {world.rounds} rounds, "
                          f"round {k} requested")

    X = world.Xhat + world.E
    raw = world.raw_priorities()
    q = quantize_batch(raw, world.scale)

    senders = world.pipeline.popleft()
    winners = select_senders(raw if select_on_raw else q, world.M)
    world.pipeline.append(winners)

    gamma = np.zeros(world.N, dtype=bool)
    for i in senders:
        gamma[i - 1] = True

    # controls: every agent from its true state, extrapolations from the
    # shared estimate; the coupling term is common to both
    coupling = (world._BigF @ world.Xhat.ravel()).reshape(world.N, world.b)
    U = np.einsum("imn,in->im", world._Fself, X) + coupling
    Uhat = np.einsum("imn,in->im", world._Fself, world.Xhat) + coupling

    base = np.where(gamma[:, None], X, world.Xhat)
    ubase = np.where(gamma[:, None], U, Uhat)
    xhat_next = (np.einsum("ijk,ik->ij", world._A, base)
                 + np.einsum("imn,in->im", world._B, ubase))

    v = world.noise[k]
    e_next = np.einsum("ijk,ik->ij", world._P1, world.E) + v
    e_next[gamma] = v[gamma]
    mismatched = np.flatnonzero(~world.model_matched)
    for i in mismatched:
        x_next = world.plant_A[i] @ X[i] + world.plant_B[i] @ U[i] + v[i]
        dist = world.disturbances.get(i + 1)
        if dist is not None:
            if k < dist.until_k:
                x_next = x_next + dist.chol @ dist.rng.standard_normal(world.n)
            else:
                del world.disturbances[i + 1]
                world.model_matched[i] = (
                    np.array_equal(world.plant_A[i], world._A[i])
                    and np.array_equal(world.plant_B[i], world._B[i]))
        e_next[i] = x_next - xhat_next[i]

    world.Xhat = xhat_next
    world.E = e_next
    world.k = k + 1
    return RoundOutcome(k, q.copy(), senders)
