"""Single-run executor shared by calibration and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import AgentModel
from .network import WorldState, run_round
from .scenarios import Scenario, apply_events


@dataclass
class RunTrace:
    """Everything one run leaves behind. priorities/gamma index [k, agent-1];
    noise row k is the vector injected in the k -> k+1 transition."""
    run: int
    seed: int
    gamma: np.ndarray            # (T, N) bool
    priorities: np.ndarray       # (T, N) int16, quantized
    raw_priorities: np.ndarray | None  # (T, N) float64 when requested
    states: np.ndarray | None    # (T, N, n) when requested
    err_sq: np.ndarray           # (T, N) squared error norms ||e_i(k)||^2
    errors: np.ndarray | None    # (T, N, n) when requested
    noise: np.ndarray | None     # (T, N, n) when requested

    @property
    def rounds(self) -> int:
        return self.gamma.shape[0]


def run_single(models: Sequence[AgentModel], m: int, scale: float,
               rounds: int, seed: int, run: int,
               scenario: Scenario | None = None,
               select_on_raw: bool = False,
               keep_raw: bool = False,
               keep_states: bool = False,
               keep_errors: bool = False,
               keep_noise: bool = False) -> RunTrace:
    """Simulate one run; a pure function of its arguments."""
    world = WorldState(models, m, scale, rounds, seed, run)
    n_agents = world.N
    gamma = np.zeros((rounds, n_agents), dtype=bool)
    q = np.zeros((rounds, n_agents), dtype=np.int16)
    raw = np.zeros((rounds, n_agents)) if keep_raw else None
    states = np.zeros((rounds, n_agents, world.n)) if keep_states else None
    errors = np.zeros((rounds, n_agents, world.n)) if keep_errors else None
    err_sq = np.zeros((rounds, n_agents))

    for k in range(rounds):
        if scenario is not None:
            apply_events(world, scenario, k)
        err_sq[k] = np.einsum("ij,ij->i", world.E, world.E)
        if keep_states:
            states[k] = world.Xhat + world.E
        if keep_errors:
            errors[k] = world.E
        if keep_raw:
            raw[k] = world.raw_priorities()
        outcome = run_round(world, select_on_raw=select_on_raw)
        q[k] = outcome.priorities
        for i in outcome.senders:
            gamma[k, i - 1] = True

    return RunTrace(run, seed, gamma, q, raw, states, err_sq, errors,
                    world.noise if keep_noise else None)
