"""Plant matrices and feedback-gain design for the default cart-pole fleet.

The shipped default is the classic cart-pole linearized about the upright
equilibrium (cart mass 0.57 kg, pole mass 0.23 kg, distance to the pole's
center of mass 0.64 m, g = 9.81 m/s^2), state ordered as

    x = [cart position (m), pole angle (rad), cart velocity (m/s),
         pole angular velocity (rad/s)]

discretized by zero-order hold at 10 Hz. The fleet is synchronized by a
single discrete LQR solved on the stacked system with a cost that penalizes
each agent's own state (Q1), pairwise state differences (Q2), and input
effort (R):

    J = sum_k  sum_i x_i'Q1x_i + (1/N) sum_{i<j} (x_i-x_j)'Q2(x_i-x_j)
             + sum_i u_i'Ru_i

which makes the stacked state cost I_N (x) Q1 + (L/N) (x) Q2 with L the
complete-graph Laplacian. For identical agents the resulting gain is block
symmetric; the self block and the (shared) cross block are extracted and
persisted in the config. All downstream code consumes only numeric gains.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, solve_discrete_are

CART_MASS = 0.57
POLE_MASS = 0.23
POLE_LENGTH = 0.64
GRAVITY = 9.81
ROUND_PERIOD = 0.1  # 10 Hz communication rounds


def cartpole_continuous() -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time (A, B) of the cart-pole linearized about upright."""
    mc, mp, ell, g = CART_MASS, POLE_MASS, POLE_LENGTH, GRAVITY
    a = np.zeros((4, 4))
    a[0, 2] = 1.0
    a[1, 3] = 1.0
    a[2, 1] = -mp * g / mc
    a[3, 1] = (mc + mp) * g / (mc * ell)
    b = np.zeros((4, 1))
    b[2, 0] = 1.0 / mc
    b[3, 0] = -1.0 / (mc * ell)
    return a, b


def discretize_zoh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold over one round: the [:n, :n] and [:n, n:] blocks of
    expm(ROUND_PERIOD * [[a, b], [0, 0]])."""
    n, m = b.shape
    em = np.block([[a, b], [np.zeros((m, n + m))]])
    ms = expm(ROUND_PERIOD * em)
    return ms[:n, :n], ms[:n, n:]


def sync_lqr_gains(a: np.ndarray, b: np.ndarray, n_agents: int,
                   q_self: np.ndarray, q_sync: np.ndarray,
                   r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (F_self, F_cross) for u_i = F_self x_i + sum_{l!=i} F_cross x_l.

    Solves one DARE on the stacked system of n_agents identical (a, b)
    plants. The stacked gain of the synchronization cost is block symmetric
    (identical diagonal blocks, identical off-diagonal blocks); this is
    asserted and the two canonical blocks are returned.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    n = a.shape[0]
    m = b.shape[1]
    eye = np.eye(n_agents)
    a_g = np.kron(eye, a)
    b_g = np.kron(eye, b)
    lap = n_agents * eye - np.ones((n_agents, n_agents))
    q_g = np.kron(eye, q_self) + np.kron(lap / n_agents, q_sync)
    r_g = np.kron(eye, r)
    p = solve_discrete_are(a_g, b_g, q_g, r_g)
    # u = F x with F = -(R + B'PB)^-1 B'PA
    f_g = -np.linalg.solve(r_g + b_g.T @ p @ b_g, b_g.T @ p @ a_g)
    f_self = f_g[:m, :n].copy()
    f_cross = f_g[:m, n:2 * n].copy() if n_agents > 1 else np.zeros((m, n))
    # Homogeneous agents on a complete graph must give a block-symmetric gain:
    # in the (N, m, N, n) view, block (i, j) is f_self if i == j, else f_cross
    diag = eye.astype(bool)[:, None, :, None]
    if not np.allclose(f_g.reshape(n_agents, m, n_agents, n),
                       np.where(diag, f_self[:, None], f_cross[:, None]),
                       rtol=1e-8, atol=1e-10):
        raise RuntimeError("stacked LQR gain lost its symmetric block structure")
    return f_self, f_cross


def closed_loop_spectral_radius(fleet) -> float:
    """Spectral radius of a dynamics.Fleet's stacked closed loop A + BF
    (estimates exact)."""
    eye = np.eye(len(fleet))
    acl = (np.kron(eye, fleet.closed_loop)
           + np.kron(eye, fleet.B) @ fleet.coupling)
    return float(np.max(np.abs(np.linalg.eigvals(acl))))
