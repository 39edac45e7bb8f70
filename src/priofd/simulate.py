"""Round engine: one run of the priority-scheduled fleet, shared by
calibration and the experiment harness.

Timeline of one round k (all agents synchronized, network lossless):

1. the scenario's round-k events are applied;
2. every agent's quantized priority g_i(k) is collected;
3. the winner set decided from priorities at k-2 transmits: those agents'
   current measurements x_i(k) flood the network during round k
   (gamma_i(k)=1) and enter everyone's estimate at k+1;
4. the fresh priorities elect the senders of round k+2.

The first two rounds have an empty delivery pipeline; the winner set from
round-0 priorities transmits in round 2. States, estimates and errors start
at zero, so the cold start is benign.

The engine advances the shared estimates via the extrapolation rule and the
estimation errors via their exact recursions (e <- v after a received
round, e <- Atilde e + v after a silent one) whenever an agent's plant
matches the shared model; plants mutated by fault scenarios fall back to
explicit plant simulation with e = x - x_hat. True states are derived as
x = x_hat + e.

Scenario events (scenarios.Event) take effect at the start of their round:
a bandwidth change sets M for that round's selection, and each disturbance
event restarts its agent's (seed, run, agent, DISTURBANCE_NOISE) stream.
The round in which a disturbance expires still takes the explicit-plant
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (AgentModel, DISTURBANCE_NOISE, PROCESS_NOISE,
                       draw_noise_block, noise_stream)
from .errors import ConfigError
from .network import select_senders
from .priority import quantize_batch
from .scenarios import Scenario, fault_free


@dataclass
class RunTrace:
    """Everything one run leaves behind, indexed [k, agent-1]; noise row k
    is the vector injected in the k -> k+1 transition."""
    gamma: np.ndarray            # (T, N) bool
    priorities: np.ndarray       # (T, N) int16, quantized
    raw_priorities: np.ndarray   # (T, N) float64
    states: np.ndarray           # (T, N, n) true states x(k)
    errors: np.ndarray           # (T, N, n) estimation errors e(k)
    noise: np.ndarray            # (T, N, n) process noise
    err_sq: np.ndarray           # (T, N) squared error norms ||e_i(k)||^2


def run_single(models: Sequence[AgentModel], m: int, scale: float,
               rounds: int, seed: int, run: int,
               scenario: Scenario | None = None,
               select_on_raw: bool = False) -> RunTrace:
    """Simulate one run; a pure function of its arguments. Selection uses
    the quantized priorities, or the raw ones with select_on_raw."""
    ids = [mod.id for mod in models]
    if ids != list(range(1, len(models) + 1)):
        raise ConfigError(f"agent ids must be 1..N in order, got {ids}")
    dims = {(mod.n, mod.m) for mod in models}
    if len(dims) != 1:
        raise ConfigError("the round engine requires equal state/input "
                          "dimensions across agents")
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    N = len(models)
    n, nb = dims.pop()

    A = np.stack([mod.A for mod in models])
    B = np.stack([mod.B for mod in models])
    Fself = np.stack([mod.F_self for mod in models])
    P1 = np.stack([mod.closed_loop for mod in models])
    P2 = np.stack([mod.error_pred2 for mod in models])
    W = np.stack([mod.priority_weight for mod in models])
    BigF = np.zeros((N * nb, N * n))
    for i, mod in enumerate(models):
        for j, gain in mod.F_cross.items():
            if not 1 <= j <= N or j == mod.id:
                raise ConfigError(f"agent {mod.id} has F_cross entry for "
                                  f"invalid agent {j}")
            BigF[i * nb:(i + 1) * nb, (j - 1) * n:j * n] = gain

    # events grouped by round, checked before round 0
    scenario = scenario or fault_free()
    scenario.check_fits(rounds, N)
    events: dict[int, list] = {}
    for ev in scenario.events:
        if ev.kind == "set_bandwidth" and ev.bandwidth <= 0:
            raise ConfigError(f"bandwidth event at k={ev.k} must be positive")
        if ev.kind == "add_disturbance" and ev.duration < 1:
            raise ConfigError(f"disturbance at k={ev.k} has duration {ev.duration} < 1")
        if ev.kind == "add_disturbance" and np.shape(ev.covariance) != (n, n):
            raise ConfigError(
                f"disturbance covariance shape {np.shape(ev.covariance)} does "
                f"not match state dimension {n}")
        events.setdefault(ev.k, []).append(ev)

    noise = np.stack([
        draw_noise_block(mod, noise_stream(seed, run, mod.id, PROCESS_NOISE), rounds)
        for mod in models
    ], axis=1)
    gamma = np.zeros((rounds + 2, N), dtype=bool)   # winners land two rows ahead
    q = np.zeros((rounds, N), dtype=np.int16)
    raw = np.zeros((rounds, N))
    states = np.zeros((rounds, N, n))
    errors = np.zeros((rounds, N, n))
    Xhat = np.zeros((N, n))
    E = np.zeros((N, n))
    plant_B = B.copy()                  # scenario mutations touch only this
    matched = np.ones(N, dtype=bool)
    disturbances: dict[int, tuple] = {}  # agent index -> (chol, until_k, rng)
    M = m

    for k in range(rounds):
        for ev in events.get(k, ()):
            if ev.kind == "set_bandwidth":
                M = ev.bandwidth
                continue
            for agent in ev.agents:
                i = agent - 1
                if ev.kind == "set_B_zero":
                    plant_B[i] = 0.0
                else:  # add_disturbance
                    chol = np.linalg.cholesky(np.array(
                        ev.covariance, dtype=float) + 1e-12 * np.eye(n))
                    disturbances[i] = (chol, k + ev.duration, noise_stream(
                        seed, run, agent, DISTURBANCE_NOISE))
                matched[i] = False

        X = Xhat + E
        states[k] = X
        errors[k] = E
        e_pred = np.einsum("ijk,ik->ij", P2, E)
        raw[k] = np.einsum("ij,ijk,ik->i", e_pred, W, e_pred)
        q[k] = quantize_batch(raw[k], scale)
        winners = select_senders(raw[k] if select_on_raw else q[k], M)
        gamma[k + 2, np.subtract(winners, 1)] = True

        # controls: every agent from its true state, extrapolations from the
        # shared estimate; the coupling term is common to both
        sent = gamma[k]
        coupling = (BigF @ Xhat.ravel()).reshape(N, nb)
        U = np.einsum("imn,in->im", Fself, X) + coupling
        Uhat = np.einsum("imn,in->im", Fself, Xhat) + coupling
        base = np.where(sent[:, None], X, Xhat)
        ubase = np.where(sent[:, None], U, Uhat)
        xhat_next = (np.einsum("ijk,ik->ij", A, base)
                     + np.einsum("imn,in->im", B, ubase))

        v = noise[k]
        e_next = np.einsum("ijk,ik->ij", P1, E) + v
        e_next[sent] = v[sent]
        for i in np.flatnonzero(~matched):
            x_next = A[i] @ X[i] + plant_B[i] @ U[i] + v[i]
            if i in disturbances:
                chol, until_k, rng = disturbances[i]
                if k < until_k:
                    x_next = x_next + chol @ rng.standard_normal(n)
                else:
                    del disturbances[i]
                    matched[i] = np.array_equal(plant_B[i], B[i])
            e_next[i] = x_next - xhat_next[i]
        Xhat, E = xhat_next, e_next

    return RunTrace(gamma[:rounds], q, raw, states, errors, noise,
                    np.einsum("kij,kij->ki", errors, errors))
