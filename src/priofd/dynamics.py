"""Agent plant model and noise streams.

Each agent advances as x(k+1) = A x(k) + B u(k) + v(k) with i.i.d. zero-mean
Gaussian process noise v ~ N(0, noise_cov). Noise is drawn from splittable
streams keyed by (seed, run, agent, purpose) so that scenario variations
never perturb unrelated draws and independent Monte Carlo runs can execute
in parallel with disjoint streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# purpose codes for noise_stream
PROCESS_NOISE = 0
DISTURBANCE_NOISE = 1


def _check_symmetric_psd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigError(f"{name} must be symmetric")
    eps = 1e-12 * max(1.0, float(np.trace(mat)))
    try:
        np.linalg.cholesky(mat + eps * np.eye(mat.shape[0]))
    except np.linalg.LinAlgError:
        raise ConfigError(f"{name} is not positive semidefinite") from None
    return mat


@dataclass
class AgentModel:
    """Linear agent: dynamics, feedback gains, noise and priority weight.

    id is 1-based (matching schedule records and config files). F_cross maps
    the other agents' ids to their coupling gains; entries may be omitted for
    uncoupled pairs.
    """

    id: int
    A: np.ndarray
    B: np.ndarray
    F_self: np.ndarray
    F_cross: dict[int, np.ndarray] = field(default_factory=dict)
    noise_cov: np.ndarray | None = None
    priority_weight: np.ndarray | None = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.F_self = np.asarray(self.F_self, dtype=float)
        n, m = self.n, self.m
        if self.A.shape != (n, n):
            raise ConfigError(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, m):
            raise ConfigError(f"B shape {self.B.shape} inconsistent with A")
        if self.F_self.shape != (m, n):
            raise ConfigError(
                f"F_self shape {self.F_self.shape}, expected {(m, n)}")
        self.F_cross = {int(j): np.asarray(f, dtype=float) for j, f in self.F_cross.items()}
        for j, f in self.F_cross.items():
            if f.shape[0] != m:
                raise ConfigError(f"F_cross[{j}] row count {f.shape[0]} != input dim {m}")
        if self.noise_cov is None:
            self.noise_cov = np.zeros((n, n))
        self.noise_cov = _check_symmetric_psd(self.noise_cov, f"agent {self.id} noise_cov")
        if self.noise_cov.shape != (n, n):
            raise ConfigError(f"noise_cov shape {self.noise_cov.shape}, expected {(n, n)}")
        if self.priority_weight is None:
            self.priority_weight = np.eye(n)
        self.priority_weight = _check_symmetric_psd(
            self.priority_weight, f"agent {self.id} priority_weight")
        # cached derived quantities
        self.closed_loop = self.A + self.B @ self.F_self
        self.error_pred2 = self.closed_loop @ self.closed_loop
        eps = 1e-12 * max(1.0, float(np.trace(self.noise_cov)))
        self.noise_chol = np.linalg.cholesky(self.noise_cov + eps * np.eye(n))
        if not self.noise_cov.any():
            self.noise_chol = np.zeros((n, n))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def noise_stream(seed: int, run: int, agent: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (run, agent, purpose) triple."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(run), int(agent), int(purpose)))
    return np.random.Generator(np.random.PCG64(ss))


def draw_noise_block(model: AgentModel, rng: np.random.Generator,
                     rounds: int) -> np.ndarray:
    """(rounds, n) block of i.i.d. draws.

    Row t is noise_chol times the t-th group of n standard normals of rng;
    this block is what the simulation engine injects, so recorded noise is
    reproducible from (seed, run, agent) alone.
    """
    z = rng.standard_normal((rounds, model.n))
    return z @ model.noise_chol.T
