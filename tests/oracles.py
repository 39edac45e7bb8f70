"""Independent reference implementations used as test oracles.

ref_control, ref_gains, ref_priority, ref_quantize and ref_round restate
one round of the protocol agent by agent with plain matrix products,
sharing no code with the batched round engine in priofd.simulate (they
read only the fleet's matrices, and recompute A + B F_self themselves);
ref_replay applies ref_round to every round of a recorded run. ref_senders
restates the selection rule (top M, ties to the lower id) as a plain sort.

brute_partition re-derives the detection-window partition by literal
scanning, sharing no code with the production partitioners;
brute_window_periods applies it to every window of a run.

The "toy" classes build a fully enumerable two-agent process (4-valued
priorities, one slot, highest priority sends, ties to agent 1) and compute,
in exact rational arithmetic, the distribution of period sums per
(T1, T2, a, H) signature, quantile-based thresholds, and the exact alarm
probability of the adaptive detector. Two routes are provided: factored
enumeration over schedule patterns (exact convolutions of per-round
conditional laws) and literal path-by-path enumeration; they must agree.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np


def ref_control(f_self, gains, x_self, xhat):
    """u_i = F_ii x_i + sum_l F_il xhat_l; gains[l] is agent i's gain on
    agent l+1 and xhat[l] the shared estimate of agent l+1."""
    u = f_self @ x_self
    for gain, est in zip(gains, xhat):
        u = u + gain @ est
    return u


def ref_gains(coupling, i, n_agents):
    """Agent i+1's gains on each agent's shared estimate: the N blocks of
    row block i of an (N*m, N*n) coupling matrix, by plain slicing."""
    m, n = coupling.shape[0] // n_agents, coupling.shape[1] // n_agents
    return [coupling[i * m:(i + 1) * m, j * n:(j + 1) * n]
            for j in range(n_agents)]


def ref_priority(a, b, f_self, weight, e):
    """Raw priority: the error after two silent rounds, e2 = Atilde (Atilde
    e) with Atilde = A + B F_ii, weighted as e2' W e2."""
    a_cl = a + b @ f_self
    e2 = a_cl @ (a_cl @ e)
    return float(e2 @ weight @ e2)


def ref_quantize(raw, scale):
    """min(255, floor(raw / scale)) in Python integers, 0 for raw <= 0."""
    if raw <= 0:
        return 0
    return min(255, math.floor(raw / scale))


def ref_round(fleet, xhat, e, senders, v, scale):
    """One round for plants that match the fleet's model. xhat, e and v are
    (N, n): shared estimates, estimation errors and process noise at round
    k, so the true states are x = xhat + e; senders holds the 1-based ids
    with gamma(k) = 1. Returns the quantized priorities, the shared
    estimates at k+1 and the true states at k+1."""
    a, b, f_self = fleet.A, fleet.B, fleet.F_self
    x = xhat + e
    q, xhat_next, x_next = [], [], []
    for i in range(len(xhat)):
        gains = ref_gains(fleet.coupling, i, len(xhat))
        q.append(ref_quantize(ref_priority(a, b, f_self,
                                           fleet.priority_weight, e[i]), scale))
        u = ref_control(f_self, gains, x[i], xhat)
        x_next.append(a @ x[i] + b @ u + v[i])
        # a sender's measurement replaces the old estimate, predicted one
        # step ahead with the controller run on the shared estimates
        base = x[i] if i + 1 in senders else xhat[i]
        u_hat = ref_control(f_self, gains, base, xhat)
        xhat_next.append(a @ base + b @ u_hat)
    return q, np.array(xhat_next), np.array(x_next)


def ref_senders(priorities, m):
    """Ids (1-based) of the min(m, N) agents with the highest priorities,
    highest first, ties to the lower id: a sort by (-priority, id)."""
    ids = sorted(range(1, len(priorities) + 1),
                 key=lambda i: (-priorities[i - 1], i))
    return tuple(ids[:m])


def ref_replay(fleet, trace, scale):
    """ref_round on every round k -> k+1 of a recorded run, started from its
    shared estimates (states - errors), its errors, its senders and its
    noise; yields (k, q, xhat_next, x_next) for k = 0..T-2."""
    xhat = trace.states - trace.errors
    for k in range(len(trace.gamma) - 1):
        senders = {int(i) + 1 for i in np.flatnonzero(trace.gamma[k])}
        yield (k, *ref_round(fleet, xhat[k], trace.errors[k], senders,
                             trace.noise[k], scale))


def brute_partition(bits, k, d, b):
    """Partition [k-d+1, k] of a full gamma record bits[0..]; returns dicts
    with start, end, T1, T2, last."""
    ws = k - d + 1
    assert ws >= 0
    spans = []
    cur = ws
    for r in range(ws, k + 1):
        if bits[r]:
            spans.append((cur, r))
            cur = r + 1
    if cur <= k:
        spans.append((cur, k))
    out = []
    for idx, (s, e) in enumerate(spans):
        t_prev = None
        r = s - 1
        while r >= 0 and r >= s - 1 - b:
            if bits[r]:
                t_prev = r
                break
            r -= 1
        t1 = (s - t_prev) if t_prev is not None else b + 1
        out.append({"start": s, "end": e, "T1": t1, "T2": t1 + (e - s),
                    "last": idx == len(spans) - 1})
    return out


def brute_window_periods(bits, q, d, b, start_k):
    """(k, T1, T2, H, a, sum) for every period of every window ending at
    k >= max(start_k, d-1), from brute_partition and literal sums."""
    rows = []
    for k in range(max(start_k, d - 1), len(bits)):
        periods = brute_partition(bits, k, d, b)
        for p in periods:
            rows.append((k, p["T1"], p["T2"], len(periods), int(p["last"]),
                         sum(int(v) for v in q[p["start"]:p["end"] + 1])))
    return rows


class ToyLaw:
    """Joint per-round law of (priority, sent) for the monitored agent.

    Both agents draw i.i.d. priorities from {0,1,2,3} with probabilities
    (1/2, 1/4, 1/8, 1/8); the single slot goes to the larger priority, ties
    to the monitored agent. Rounds are independent, so any trajectory
    probability factorizes.
    """

    def __init__(self):
        pg = {0: Fraction(1, 2), 1: Fraction(1, 4),
              2: Fraction(1, 8), 3: Fraction(1, 8)}
        cum = {}
        acc = Fraction(0)
        for v in sorted(pg):
            acc += pg[v]
            cum[v] = acc  # P[other <= v]
        self.joint = {}
        for v, p in pg.items():
            self.joint[(v, 1)] = p * cum[v]
            self.joint[(v, 0)] = p * (1 - cum[v])
        self.p_sent = sum(p for (v, s), p in self.joint.items() if s == 1)
        # conditional priority laws given the schedule bit
        self.cond = {0: {}, 1: {}}
        for (v, s), p in self.joint.items():
            if p:
                self.cond[s][v] = p / (self.p_sent if s else 1 - self.p_sent)

    def pattern_prob(self, bits) -> Fraction:
        p = Fraction(1)
        for bit in bits:
            p *= self.p_sent if bit else 1 - self.p_sent
        return p


def convolve(laws):
    """Exact distribution of a sum of independent integer variables."""
    acc = {0: Fraction(1)}
    for law in laws:
        nxt = defaultdict(Fraction)
        for s, ps in acc.items():
            for v, pv in law.items():
                nxt[s + v] += ps * pv
        acc = dict(nxt)
    return acc


class ExactToy:
    """Exact signature measures, thresholds, and alarm probability for a
    window ending at round length-1."""

    def __init__(self, length: int, d: int, b: int, law: ToyLaw | None = None):
        assert length >= d
        self.length, self.d, self.b = length, d, b
        self.law = law or ToyLaw()

    def _periods(self, bits):
        return brute_partition(bits, self.length - 1, self.d, self.b)

    def signature_measure(self):
        """measure[(T1, T2, a, H)] = exact sub-probability mass function of
        that signature's period sum, counting multiplicity."""
        measure = defaultdict(lambda: defaultdict(Fraction))
        for bits in itertools.product((0, 1), repeat=self.length):
            p_pat = self.law.pattern_prob(bits)
            periods = self._periods(bits)
            h_count = len(periods)
            for p in periods:
                if p["T2"] > self.b:
                    continue
                law = convolve([self.law.cond[bits[r]]
                                for r in range(p["start"], p["end"] + 1)])
                key = (p["T1"], p["T2"], int(p["last"]), h_count)
                for s, ps in law.items():
                    measure[key][s] += p_pat * ps
        return measure

    def thresholds(self, eta: Fraction):
        """Exact per-signature quantiles: the smallest support value c with
        P[sum > c | signature] <= eta / H (the exact-distribution analog of
        the nearest-rank estimator)."""
        table = {}
        for key, dist in self.signature_measure().items():
            _, _, _, h = key
            total = sum(dist.values())
            level = Fraction(eta) / h
            cdf = Fraction(0)
            for c in sorted(dist):
                cdf += dist[c]
                if total - cdf <= level * total:
                    table[key] = c
                    break
        return table

    def alarm_probability(self, table) -> Fraction:
        """Exact P[any period sum exceeds its threshold] at the window end."""
        total = Fraction(0)
        for bits in itertools.product((0, 1), repeat=self.length):
            p_pat = self.law.pattern_prob(bits)
            periods = self._periods(bits)
            h_count = len(periods)
            p_ok = Fraction(1)
            for p in periods:
                if p["T2"] > self.b:
                    continue  # threshold infinite, period never alarms
                kappa = table.get((p["T1"], p["T2"], int(p["last"]), h_count))
                if kappa is None:
                    continue
                law = convolve([self.law.cond[bits[r]]
                                for r in range(p["start"], p["end"] + 1)])
                p_ok *= sum(ps for s, ps in law.items() if s <= kappa)
            total += p_pat * (1 - p_ok)
        return total

    # -- literal route -----------------------------------------------------

    def _paths(self):
        per_round = list(self.law.joint.items())  # ((v, s), p)
        for combo in itertools.product(per_round, repeat=self.length):
            p = Fraction(1)
            for (_, prob) in combo:
                p *= prob
            if p:
                yield [vs for (vs, _) in combo], p

    def literal_signature_measure(self):
        measure = defaultdict(lambda: defaultdict(Fraction))
        for path, p_path in self._paths():
            bits = [s for (_, s) in path]
            vals = [v for (v, _) in path]
            periods = self._periods(bits)
            h_count = len(periods)
            for p in periods:
                if p["T2"] > self.b:
                    continue
                key = (p["T1"], p["T2"], int(p["last"]), h_count)
                measure[key][sum(vals[p["start"]:p["end"] + 1])] += p_path
        return measure

    def literal_alarm_probability(self, table) -> Fraction:
        total = Fraction(0)
        for path, p_path in self._paths():
            bits = [s for (_, s) in path]
            vals = [v for (v, _) in path]
            periods = self._periods(bits)
            h_count = len(periods)
            for p in periods:
                if p["T2"] > self.b:
                    continue
                kappa = table.get((p["T1"], p["T2"], int(p["last"]), h_count))
                if kappa is None:
                    continue
                if sum(vals[p["start"]:p["end"] + 1]) > kappa:
                    total += p_path
                    break
        return total
