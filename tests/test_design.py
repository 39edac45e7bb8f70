import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import cont2discrete

import priofd
from priofd import design
from priofd.dynamics import Fleet


def test_cartpole_open_loop_is_unstable():
    a, b = design.discretize_zoh(*design.cartpole_continuous())
    assert a.shape == (4, 4) and b.shape == (4, 1)
    assert np.max(np.abs(np.linalg.eigvals(a))) > 1.0


def test_zoh_matches_matrix_exponential():
    # scipy.signal's zero-order hold is the independent reference
    ac, bc = design.cartpole_continuous()
    ra, rb, *_ = cont2discrete((ac, bc, np.eye(4), np.zeros_like(bc)),
                               design.ROUND_PERIOD, method="zoh")
    a, b = design.discretize_zoh(ac, bc)
    assert np.array_equal(a, ra)
    assert np.array_equal(b, rb)


@pytest.mark.parametrize("n_agents", [1, 2, 6])
def test_sync_lqr_stabilizes(n_agents):
    a, b = design.discretize_zoh(*design.cartpole_continuous())
    q1 = np.diag([1.0, 1.0, 0.0, 0.0])
    q2 = np.diag([1000.0, 0.0, 0.0, 0.0])
    r = np.array([[0.1]])
    f_self, f_cross = design.sync_lqr_gains(a, b, n_agents, q1, q2, r)
    rho = design.closed_loop_spectral_radius(Fleet(
        a, b, f_self, np.kron(1 - np.eye(n_agents), f_cross),
        np.zeros((n_agents, 4, 4))))
    assert rho < 1.0
    # the stacked loop built block by block: A + B F_self on the diagonal,
    # B F_cross off it
    cross = b @ f_cross
    acl = (np.kron(np.eye(n_agents), a + b @ f_self - cross)
           + np.kron(np.ones((n_agents, n_agents)), cross))
    assert np.isclose(rho, np.abs(np.linalg.eigvals(acl)).max(), rtol=1e-12)
    # the per-agent extrapolation loop must be stable too, or silent-round
    # estimation errors diverge
    rho_self = np.max(np.abs(np.linalg.eigvals(a + b @ f_self)))
    assert rho_self < 1.0


def test_single_agent_has_no_coupling():
    a, b = design.discretize_zoh(*design.cartpole_continuous())
    _, f_cross = design.sync_lqr_gains(a, b, 1, np.eye(4), np.zeros((4, 4)),
                                       np.array([[0.1]]))
    assert np.array_equal(f_cross, np.zeros((1, 4)))


def test_cli_import_leaves_scipy_signal_unloaded():
    # a fresh interpreter: this test process may already hold scipy.signal
    src = str(Path(priofd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import priofd.cli, sys; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
