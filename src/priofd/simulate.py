"""Round engine: a chunk of Monte Carlo runs of the priority-scheduled
fleet, advanced in lockstep, shared by calibration and the experiment
harness.

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

run_lockstep advances a chunk of R runs in one (R, N, n) state with one
round loop; run_single is the chunk of one run. Each run keeps its own
noise streams and every output is stored run-major, so a run's RunTrace is
the same bit for bit whatever chunk simulates it. That holds because every
product is taken per run with the single-run kernel. The coupling term,
for one, is a stacked matmul of BigF with each run's (N*n, 1) estimate
column: one (R, N*n) @ BigF.T gemm would change its summation order with
R, and so the float states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (AgentModel, DISTURBANCE_NOISE, PROCESS_NOISE,
                       draw_noise_block, noise_stream)
from .errors import ConfigError
from .network import top_m
from .priority import quantize_batch
from .scenarios import Scenario, fault_free

# most runs per chunk in calibrate, the scale fit and run_batch; a chunk
# holds about 0.2 MB of trace arrays per desk run
CHUNK_RUNS = 16


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


def chunks(runs: int, parts: int = 1) -> list[range]:
    """0..runs-1 in consecutive, nearly equal chunks of at most CHUNK_RUNS
    runs, and at least `parts` of them where there are that many runs."""
    count = max(1, min(runs, max(parts, -(-runs // CHUNK_RUNS))))
    edges = [runs * j // count for j in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def run_single(models: Sequence[AgentModel], m: int, scale: float,
               rounds: int, seed: int, run: int,
               scenario: Scenario | None = None,
               select_on_raw: bool = False) -> RunTrace:
    """Simulate one run; a pure function of its arguments."""
    return run_lockstep(models, m, scale, rounds, seed, range(run, run + 1),
                        scenario, select_on_raw)[0]


def run_lockstep(models: Sequence[AgentModel], m: int, scale: float,
                 rounds: int, seed: int, runs: Sequence[int],
                 scenario: Scenario | None = None,
                 select_on_raw: bool = False) -> list[RunTrace]:
    """Simulate the given runs in lockstep; trace r is run_single of
    runs[r]. Selection uses the quantized priorities, or the raw ones with
    select_on_raw."""
    ids = [mod.id for mod in models]
    if ids != list(range(1, len(models) + 1)):
        raise ConfigError(f"agent ids must be 1..N in order, got {ids}")
    dims = {(mod.n, mod.m) for mod in models}
    if len(dims) != 1:
        raise ConfigError("the round engine requires equal state/input "
                          "dimensions across agents")
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    N, R = len(models), len(runs)
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

    # every output run-major, so a run's trace is one contiguous slice
    noise = np.zeros((R, rounds, N, n))
    for r, run in enumerate(runs):
        for i, mod in enumerate(models):
            noise[r, :, i] = draw_noise_block(
                mod, noise_stream(seed, run, mod.id, PROCESS_NOISE), rounds)
    gamma = np.zeros((R, rounds + 2, N), dtype=bool)  # winners land 2 rows ahead
    q = np.zeros((R, rounds, N), dtype=np.int16)
    raw = np.zeros((R, rounds, N))
    states = np.zeros((R, rounds, N, n))
    errors = np.zeros((R, rounds, N, n))
    Xhat = np.zeros((R, N, n))
    E = np.zeros((R, N, n))
    plant_B = B.copy()                  # scenario mutations touch only this
    matched = np.ones(N, dtype=bool)
    disturbances: dict[int, tuple] = {}  # index -> (chol, k0, until_k, draws)
    M = m
    rows = np.arange(R)[:, None]

    for k in range(rounds):
        for ev in events.get(k, ()):
            if ev.kind == "set_bandwidth":
                M = ev.bandwidth
                continue
            for agent in ev.agents:
                i = agent - 1
                if ev.kind == "set_B_zero":
                    plant_B[i] = 0.0
                else:  # add_disturbance: all its draws, one block per run
                    chol = np.linalg.cholesky(np.array(
                        ev.covariance, dtype=float) + 1e-12 * np.eye(n))
                    size = (min(ev.duration, rounds - k), n)
                    draws = np.array([noise_stream(
                        seed, run, agent, DISTURBANCE_NOISE).standard_normal(size)
                        for run in runs]).reshape(R, *size)
                    disturbances[i] = (chol, k, k + ev.duration, draws)
                matched[i] = False

        X = Xhat + E
        states[:, k] = X
        errors[:, k] = E
        e_pred = np.einsum("ijk,rik->rij", P2, E)
        raw[:, k] = np.einsum("rij,ijk,rik->ri", e_pred, W, e_pred)
        q[:, k] = quantize_batch(raw[:, k], scale)
        key = raw[:, k] if select_on_raw else q[:, k]
        gamma[rows, k + 2, top_m(key, M)] = True

        # controls: every agent from its true state, extrapolations from the
        # shared estimate; the coupling term is common to both
        sent = gamma[:, k]
        coupling = np.matmul(BigF, Xhat.reshape(R, N * n, 1)).reshape(R, N, nb)
        U = np.einsum("imn,rin->rim", Fself, X) + coupling
        Uhat = np.einsum("imn,rin->rim", Fself, Xhat) + coupling
        base = np.where(sent[..., None], X, Xhat)
        ubase = np.where(sent[..., None], U, Uhat)
        xhat_next = (np.einsum("ijk,rik->rij", A, base)
                     + np.einsum("imn,rin->rim", B, ubase))

        v = noise[:, k]
        e_next = np.einsum("ijk,rik->rij", P1, E) + v
        e_next[sent] = v[sent]
        plant = np.flatnonzero(~matched)
        if plant.size:
            x_next = (np.matmul(A[plant], X[:, plant, :, None])
                      + np.matmul(plant_B[plant], U[:, plant, :, None]))[..., 0]
            x_next += v[:, plant]
            for j, i in enumerate(plant):
                if i not in disturbances:
                    continue
                chol, k0, until_k, draws = disturbances[i]
                if k < until_k:
                    x_next[:, j] += np.matmul(chol, draws[:, k - k0, :, None])[..., 0]
                else:
                    del disturbances[i]
                    matched[i] = np.array_equal(plant_B[i], B[i])
            e_next[:, plant] = x_next - xhat_next[:, plant]
        Xhat, E = xhat_next, e_next

    err_sq = np.einsum("rkij,rkij->rki", errors, errors)
    return [RunTrace(gamma[r, :rounds], q[r], raw[r], states[r], errors[r],
                     noise[r], err_sq[r]) for r in range(R)]
