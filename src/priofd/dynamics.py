"""Fleet model and noise streams.

Every agent shares one plant, x_i(k+1) = A x_i(k) + B u_i(k) + v_i(k), one
self gain F_self and one priority weight; the fleet adds the cross gains
between agents and each agent's i.i.d. zero-mean Gaussian process noise
v_i ~ N(0, noise_cov[i]). Noise is drawn from splittable streams keyed by
(seed, run, agent, purpose) so that scenario variations never perturb
unrelated draws and independent Monte Carlo runs can execute in parallel
with disjoint streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# purpose codes for noise_stream
PROCESS_NOISE = 0
DISTURBANCE_NOISE = 1


def _psd_factor(mat: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of a symmetric PSD matrix, with a trace-relative
    jitter; zero for the zero matrix."""
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigError(f"{name} must be symmetric")
    eps = 1e-12 * max(1.0, float(np.trace(mat)))
    try:
        chol = np.linalg.cholesky(mat + eps * np.eye(mat.shape[0]))
    except np.linalg.LinAlgError:
        raise ConfigError(f"{name} is not positive semidefinite") from None
    return chol if mat.any() else np.zeros_like(mat)


@dataclass
class Fleet:
    """N identical linear agents and their coupling.

    Agent i+1 applies u_i = F_self x_i + sum_j coupling[i, j] xhat_j, where
    block (i, j) of the (N*m, N*n) coupling is its gain on agent j+1's
    shared estimate and the diagonal blocks are zero; its process noise
    has covariance noise_cov[i]. priority_weight defaults to I.
    """

    A: np.ndarray
    B: np.ndarray
    F_self: np.ndarray
    coupling: np.ndarray
    noise_cov: np.ndarray
    priority_weight: np.ndarray | None = None
    closed_loop: np.ndarray = field(init=False)   # A + B F_self
    error_pred2: np.ndarray = field(init=False)   # closed_loop squared
    noise_chol: np.ndarray = field(init=False)    # (N, n, n)

    def __post_init__(self):
        A, B, F, C, cov = (np.asarray(x, dtype=float) for x in (
            self.A, self.B, self.F_self, self.coupling, self.noise_cov))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ConfigError(f"B shape {B.shape} inconsistent with A")
        m = B.shape[1]
        if F.shape != (m, n):
            raise ConfigError(f"F_self shape {F.shape}, expected {(m, n)}")
        if cov.ndim != 3 or not len(cov) or cov.shape[1:] != (n, n):
            raise ConfigError(f"noise_cov shape {cov.shape}, expected "
                              f"(N, {n}, {n})")
        N = len(cov)
        if C.shape != (N * m, N * n):
            raise ConfigError(f"coupling shape {C.shape}, expected "
                              f"{(N * m, N * n)}")
        own = C.reshape(N, m, N, n)[np.arange(N), :, np.arange(N)]
        bad = np.flatnonzero(own.any(axis=(1, 2))) + 1
        if bad.size:
            raise ConfigError(f"coupling block ({bad[0]}, {bad[0]}) is "
                              "nonzero; an agent's own gain is F_self")
        W = np.eye(n) if self.priority_weight is None else np.asarray(
            self.priority_weight, dtype=float)
        if W.shape != (n, n):
            raise ConfigError(f"priority_weight shape {W.shape}, expected "
                              f"{(n, n)}")
        _psd_factor(W, "priority_weight")
        self.A, self.B, self.F_self, self.coupling = A, B, F, C
        self.noise_cov, self.priority_weight = cov, W
        self.noise_chol = np.array([_psd_factor(c, f"agent {i + 1} noise_cov")
                                    for i, c in enumerate(cov)])
        self.closed_loop = A + B @ F
        self.error_pred2 = self.closed_loop @ self.closed_loop

    def __len__(self) -> int:
        return len(self.noise_cov)


def noise_stream(seed: int, run: int, agent: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (run, agent, purpose) triple."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(run), int(agent), int(purpose)))
    return np.random.Generator(np.random.PCG64(ss))


def draw_noise_block(chol: np.ndarray, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """(rounds, n) block of i.i.d. draws.

    Row t is chol times the t-th group of n standard normals of rng;
    this block is what the simulation engine injects, so recorded noise is
    reproducible from (seed, run, agent) alone.
    """
    z = rng.standard_normal((rounds, chol.shape[0]))
    return z @ chol.T
