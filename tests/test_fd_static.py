import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from priofd.fd_static import StaticDetector, sfd_verdicts, window_sums

priority_seqs = st.lists(st.integers(0, 255), min_size=1, max_size=60)


def test_zero_priorities_never_alarm():
    det = StaticDetector(1, kappa=0.5, d=4)
    assert not any(det.update(0) for _ in range(50))


def test_saturated_priorities_alarm_after_warmup():
    det = StaticDetector(1, kappa=2549.0, d=10)
    verdicts = [det.update(255) for _ in range(15)]
    assert verdicts[:9] == [False] * 9      # warm-up: fewer than d samples
    assert all(verdicts[9:])                # sum 2550 > 2549 from then on


def test_strict_comparison():
    det = StaticDetector(1, kappa=510.0, d=2)
    det.update(255)
    assert not det.update(255)              # sum == kappa is NoFault
    det2 = StaticDetector(1, kappa=509.0, d=2)
    det2.update(255)
    assert det2.update(255)


def test_invalid_horizon():
    with pytest.raises(ValueError):
        StaticDetector(1, 1.0, 0)


@given(priority_seqs)
def test_verdict_depends_only_on_last_window(seq):
    d = 5
    kappa = 300.0
    det = StaticDetector(1, kappa, d)
    for g in [222, 0, 97] * 4 + seq:        # arbitrary prefix
        last = det.update(g)
    tail = ([222, 0, 97] * 4 + seq)[-d:]
    if len(tail) == d:
        assert last == (sum(tail) > kappa)


@given(priority_seqs, st.integers(0, 59))
def test_monotone_in_any_window_entry(seq, pos):
    d = 4
    kappa = 200.0
    bumped = list(seq)
    bumped[pos % len(seq)] = min(255, bumped[pos % len(seq)] + 40)
    base = sfd_verdicts(np.array(seq), kappa, d)
    more = sfd_verdicts(np.array(bumped), kappa, d)
    assert not np.any(base & ~more)         # raising never clears a Fault


@given(priority_seqs)
def test_offline_matches_online(seq):
    d = 3
    kappa = 111.0
    det = StaticDetector(1, kappa, d)
    online = np.array([det.update(g) for g in seq])
    offline = sfd_verdicts(np.array(seq), kappa, d)
    assert np.array_equal(online, offline)


@given(st.integers(0, 30), st.integers(1, 4), st.integers(1, 8),
       st.integers(0, 2**16))
@settings(deadline=None)
# T < d; T = d, one window per column; one column
@example(3, 2, 5, 0)
@example(6, 3, 6, 1)
@example(30, 1, 4, 2)
def test_run_equals_column_by_column(rounds, cols, d, seed):
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 256, size=(rounds, cols)).astype(np.int16)
    kappa = 128.0 * d
    got = sfd_verdicts(q, kappa, d)
    assert got.shape == q.shape and got.dtype == bool
    for c in range(cols):
        assert np.array_equal(got[:, c], sfd_verdicts(q[:, c], kappa, d))


def test_silent_and_saturated_columns():
    # a column whose priorities stay 0 never alarms; one at 255 alarms from
    # its first full window on
    d, rounds = 4, 20
    q = np.zeros((rounds, 2), dtype=np.int16)
    q[:, 1] = 255
    got = sfd_verdicts(q, 255.0 * d - 1, d)
    assert not got[:, 0].any()
    assert not got[:d - 1, 1].any() and got[d - 1:, 1].all()
    for c in range(2):
        assert np.array_equal(got[:, c], sfd_verdicts(q[:, c], 255.0 * d - 1, d))


def test_window_sums_against_naive(rng):
    q = rng.integers(0, 256, size=40)
    d = 7
    got = window_sums(q, d)
    naive = [q[k - d + 1:k + 1].sum() for k in range(d - 1, 40)]
    assert got.tolist() == naive
    assert window_sums(q[:3], d).size == 0


def test_constant_memory():
    det = StaticDetector(1, 10.0, d=8)
    for g in range(1000):
        det.update(g % 256)
    assert len(det.window) == 8
