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

Every agent holds the same estimate of every other agent (the paper's
assumption), so there is no inter-agent error. The engine advances those
shared estimates by the extrapolation rule, and on a plant that matches
the shared model the errors by their own recursion: e <- v after a
received round, e <- Atilde e + v after a silent one. A plant mutated by
a fault scenario falls back to explicit simulation with e = x - x_hat;
true states are x = x_hat + e. Priorities depend only on e, and the
schedule only on the priorities, so with schedule_only a fault-free chunk
runs only the priorities, the selection and the error update, and its
traces carry states and errors None; calibrate and the scale fit take
that path. It refuses any scenario event: a mutated plant needs the
estimates. A trace keeps the priorities its schedule ranked: quantized
given a scale, raw with scale None (the scale fit's pass). A NaN raw
priority, from a state past the float64 range, is refused, not cast to 0.

Scenario events (scenarios.Event) take effect at the start of their round:
a bandwidth change sets M for that round's selection, and each disturbance
event restarts its agent's (seed, run, agent, DISTURBANCE_NOISE) stream.
The round in which a disturbance expires still takes the explicit-plant
path.

run_lockstep advances a chunk of R runs in one (R, N, n) state with one
round loop; run_single is the chunk of one run. The fleet (dynamics.Fleet)
is one shared model: every agent has the same A, B, F_self and priority
weight, and only noise covariances and cross gains differ, so each product
is one shared matrix applied to every (run, agent) vector, an einsum such
as "jk,rik->rij". Each run keeps its own noise streams and every output is
stored run-major, so a run's RunTrace is the same bit for bit whatever
chunk simulates it. That holds because every product sums in the same
order for every run: the einsums sum each vector on its own, and the
coupling term is a stacked matmul of the fleet's (N*m, N*n) coupling with
each run's (N*n, 1) estimate column. One (R, N*n) @ coupling.T gemm would
change its summation order with R, and so the float states; a plain
E @ P2.T gemm sums in another order than the einsum and moves the states
by about 1e-16.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .dynamics import (DISTURBANCE_NOISE, PROCESS_NOISE, Fleet, _psd_factor,
                       draw_noise_block, noise_stream)
from .errors import ConfigError
from .network import top_m
from .priority import quantize_batch
from .scenarios import Scenario, fault_free

# most (run, round, agent) cells per chunk: 64 runs of 6 agents, 19 of 20.
# A cell keeps about 0.1 kB of trace arrays, so a chunk about 13 MB; the
# full-scale make-config peaked at 100 MB in chunks of 16, 133 MB of 64
CHUNK_CELLS = 64 * 300 * 6

T = TypeVar("T")


@dataclass
class RunTrace:
    """Everything one run leaves behind, indexed [k, agent-1]; noise row k
    is the vector injected in the k -> k+1 transition."""
    gamma: np.ndarray            # (T, N) bool
    priorities: np.ndarray       # (T, N) int16, or float64 raw if no scale
    states: np.ndarray | None    # (T, N, n) true states x(k)
    errors: np.ndarray | None    # (T, N, n) estimation errors e(k)
    noise: np.ndarray            # (T, N, n) process noise


def chunks(runs: int, run_cells: int, parts: int = 1) -> list[range]:
    """0..runs-1 in consecutive, nearly equal chunks of CHUNK_CELLS cells
    at most (one run at least), and at least min(parts, runs) of them."""
    most = max(1, CHUNK_CELLS // run_cells)
    count = max(1, min(runs, max(parts, -(-runs // most))))
    edges = [runs * j // count for j in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def map_chunks(worker: Callable[[range], T], runs: int, run_cells: int,
               workers: int = 1) -> Iterator[T]:
    """worker(chunk) over the chunks of 0..runs-1, in chunk order: in this
    process at workers=1, else over a pool of `workers` processes with at
    least 4 chunks each. The worker and its results are pickled, so it must
    be a module-level function (or a partial of one), and the pool's
    processes are spawned, so a script that asks for workers > 1 calls
    this under an `if __name__ == "__main__":` guard."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return map(worker, chunks(runs, run_cells))
    return _pool_map(worker, chunks(runs, run_cells, parts=4 * workers),
                     workers)


def _pool_map(worker: Callable[[range], T], parts: list[range],
              workers: int) -> Iterator[T]:
    # spawned, not forked: a fork copies a process whose BLAS threads may
    # hold locks
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        yield from pool.map(worker, parts)


def run_single(models: Fleet, m: int, scale: float | None, rounds: int,
               seed: int, run: int,
               scenario: Scenario | None = None) -> RunTrace:
    """Simulate one run; a pure function of its arguments."""
    return run_lockstep(models, m, scale, rounds, seed, range(run, run + 1),
                        scenario)[0]


def run_lockstep(models: Fleet, m: int, scale: float | None, rounds: int,
                 seed: int, runs: Sequence[int],
                 scenario: Scenario | None = None,
                 schedule_only: bool = False) -> list[RunTrace]:
    """Simulate the given runs in lockstep; trace r is run_single of
    runs[r]. Selection ranks the quantized priorities, or the raw ones if
    scale is None; schedule_only skips the estimates (module docstring)."""
    if m <= 0:
        raise ConfigError(f"bandwidth M must be positive, got {m}")
    N, R, (n, nb) = len(models), len(runs), models.B.shape
    A, B, Fself, W = models.A, models.B, models.F_self, models.priority_weight
    P1, P2, C = models.closed_loop, models.error_pred2, models.coupling

    # events grouped by round, checked before round 0
    scenario = scenario or fault_free()
    scenario.check_fits(rounds, N, n)
    if schedule_only and scenario.events:
        raise ConfigError(f"schedule_only: scenario {scenario.name!r} has events")
    events: dict[int, list] = {}
    for ev in scenario.events:
        events.setdefault(ev.k, []).append(ev)

    # every output run-major, so a run's trace is one contiguous slice
    noise = np.zeros((R, rounds, N, n))
    for r, run in enumerate(runs):
        for i, chol in enumerate(models.noise_chol):
            noise[r, :, i] = draw_noise_block(
                chol, noise_stream(seed, run, i + 1, PROCESS_NOISE), rounds)
    gamma = np.zeros((R, rounds + 2, N), dtype=bool)  # winners land 2 rows ahead
    prio = np.zeros((R, rounds, N), dtype=float if scale is None else np.int16)
    states = errors = [None] * R   # stored only with the estimates
    if not schedule_only:
        states, errors = np.zeros((R, rounds, N, n)), np.zeros((R, rounds, N, n))
    Xhat = np.zeros((R, N, n))
    E = np.zeros((R, N, n))
    actuated = np.ones(N, dtype=bool)   # cleared by set_B_zero
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
                    actuated[i] = False
                else:  # add_disturbance: all its draws, one block per run
                    chol = _psd_factor(np.array(ev.covariance, dtype=float),
                                       "disturbance covariance")
                    size = (min(ev.duration, rounds - k), n)
                    draws = np.array([noise_stream(
                        seed, run, agent, DISTURBANCE_NOISE).standard_normal(size)
                        for run in runs]).reshape(R, *size)
                    disturbances[i] = (chol, k, k + ev.duration, draws)
                matched[i] = False

        e_pred = np.einsum("jk,rik->rij", P2, E)
        raw = np.einsum("rij,jk,rik->ri", e_pred, W, e_pred)
        if np.isnan(raw).any():
            r, i = np.argwhere(np.isnan(raw))[0]
            raise ConfigError(f"run {runs[r]}, agent {i + 1}: priority NaN at "
                              f"round {k}; its state has left the float64 range")
        prio[:, k] = raw if scale is None else quantize_batch(raw, scale)
        gamma[rows, k + 2, top_m(prio[:, k], M)] = True

        sent, v = gamma[:, k], noise[:, k]
        e_next = np.einsum("jk,rik->rij", P1, E) + v
        e_next[sent] = v[sent]
        if schedule_only:
            E = e_next
            continue

        # the estimate advances on the control of its base (a sender's true
        # state, else itself), a mutated plant below on that of its true state
        X = Xhat + E
        states[:, k] = X
        errors[:, k] = E
        cross = np.matmul(C, Xhat.reshape(R, N * n, 1)).reshape(R, N, nb)
        base = np.where(sent[..., None], X, Xhat)
        ubase = np.einsum("mn,rin->rim", Fself, base) + cross
        xhat_next = (np.einsum("jk,rik->rij", A, base)
                     + np.einsum("mn,rin->rim", B, ubase))
        plant = np.flatnonzero(~matched)
        if plant.size:
            u = np.einsum("mn,rin->rim", Fself, X[:, plant]) + cross[:, plant]
            x_next = (np.matmul(A, X[:, plant, :, None])[..., 0]
                      + np.einsum("mn,rin->rim", B, u)
                      * actuated[plant, None])
            x_next += v[:, plant]
            for j, i in enumerate(plant):
                if i not in disturbances:
                    continue
                chol, k0, until_k, draws = disturbances[i]
                if k < until_k:
                    x_next[:, j] += np.matmul(chol, draws[:, k - k0, :, None])[..., 0]
                else:
                    del disturbances[i]
                    matched[i] = actuated[i]
            e_next[:, plant] = x_next - xhat_next[:, plant]
        Xhat, E = xhat_next, e_next

    return [RunTrace(gamma[r, :rounds], prio[r], states[r], errors[r],
                     noise[r]) for r in range(R)]
