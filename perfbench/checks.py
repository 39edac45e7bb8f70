"""Independent output checks.

Nothing here calls the code under test to produce an expected value: files
are parsed with their documented formats, percentiles and window sums use
this module's own cumulative sums, and the dFD recomputation partitions
windows with tests/oracles.brute_partition. Each check returns a bool and
a short note; run.py counts a False as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from oracles import brute_partition

QUANT_MAX = 255
PFDT_HEADER = struct.Struct("<4sI d II II d Q d QQ")


def read_pfdt(path: Path) -> dict:
    """Threshold artifact: little-endian header, then float32 entries
    [T1-1, T2-1, H-1, a] of shape (b, b, d, 2)."""
    blob = Path(path).read_bytes()
    (magic, version, eta, d, b, m, n, scale, seed, sfd_kappa, sfd_samples,
     dfd_samples) = PFDT_HEADER.unpack_from(blob)
    if magic != b"PFDT":
        raise ValueError(f"{path}: bad magic {magic!r}")
    entries = np.frombuffer(blob[PFDT_HEADER.size:], dtype="<f4")
    return {"eta": eta, "d": d, "b": b, "m": m, "n_agents": n, "scale": scale,
            "seed": seed, "sfd_kappa": sfd_kappa, "sfd_samples": sfd_samples,
            "dfd_samples": dfd_samples,
            "entries": entries.reshape(b, b, d, 2).astype(np.float64)}


def read_config(path: Path) -> dict:
    doc = json.loads(Path(path).read_text())
    mats = {k: np.array(v["data"], dtype=float).reshape(v["rows"], v["cols"])
            for k, v in doc["matrices"].items()}
    return {"doc": doc, **mats}


def stacked_spectral_radius(cfg: dict) -> float:
    """Spectral radius of the N-agent closed loop built from the written
    blocks: A + B F_self on the diagonal, B F_cross off it."""
    n_agents = cfg["doc"]["n_agents"]
    diag = cfg["A"] + cfg["B"] @ cfg["F_self"]
    cross = cfg["B"] @ cfg["F_cross"]
    ones = np.ones((n_agents, n_agents))
    acl = np.kron(np.eye(n_agents), diag - cross) + np.kron(ones, cross)
    return float(np.abs(np.linalg.eigvals(acl)).max())


def window_sums(q: np.ndarray, d: int) -> np.ndarray:
    """s[k] = q[k-d+1] + ... + q[k] for k = d-1 .. T-1."""
    c = np.zeros(q.shape[0] + 1, dtype=np.int64)
    np.cumsum(q, out=c[1:])
    return c[d:] - c[:-d]


def nearest_rank(sorted_values: np.ndarray, level: float):
    n = sorted_values.size
    rank = min(max(math.ceil(level * n), 1), n)
    return sorted_values[rank - 1]


def sfd_expected(q: np.ndarray, kappa: float, d: int) -> np.ndarray:
    out = np.zeros(q.shape[0], dtype=bool)
    out[d - 1:] = window_sums(q.astype(np.int64), d) > kappa
    return out


def dfd_expected(gamma: np.ndarray, q: np.ndarray, entries: np.ndarray,
                 d: int, b: int) -> np.ndarray:
    """dFD verdicts from the oracle partition and the table's entries: any
    period with T2 <= b whose sum exceeds kappa(T1, T2, H, last)."""
    bits = [bool(x) for x in gamma]
    c = np.zeros(q.shape[0] + 1, dtype=np.int64)
    np.cumsum(q, out=c[1:])
    out = np.zeros(q.shape[0], dtype=bool)
    for k in range(d - 1, q.shape[0]):
        periods = brute_partition(bits, k, d, b)
        h = len(periods)
        for p in periods:
            if p["T2"] > b:
                continue
            kappa = entries[p["T1"] - 1, p["T2"] - 1, h - 1, int(p["last"])]
            if c[p["end"] + 1] - c[p["start"]] > kappa:
                out[k] = True
                break
    return out


def verdicts_match(gamma, prios, sfd, dfd, table: dict) -> bool:
    """Per-agent verdict arrays equal the independent recomputation."""
    d, b = table["d"], table["b"]
    for i in range(gamma.shape[1]):
        q = prios[:, i].astype(np.int64)
        if not np.array_equal(sfd[:, i], sfd_expected(q, table["sfd_kappa"], d)):
            return False
        if not np.array_equal(dfd[:, i], dfd_expected(gamma[:, i], q,
                                                      table["entries"], d, b)):
            return False
    return True


def binned_periods(gamma: np.ndarray, start_k: int, d: int, b: int) -> int:
    """Periods with T2 <= b over windows ending at start_k..T-1, counted
    with the oracle partition."""
    bits = [bool(x) for x in gamma]
    return sum(1 for k in range(max(start_k, d - 1), len(bits))
               for p in brute_partition(bits, k, d, b) if p["T2"] <= b)


# ---------------------------------------------------------------------------
# CSV artifacts: ';' separated, '#' provenance lines, one header row


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines, delimiter=";"))
    return rows[0], rows[1:]


def read_run_csv(path: Path, n_agents: int) -> dict:
    header, rows = read_rows(path)
    if header[:6] != ["k", "agent", "gamma", "quantized_priority", "sfd", "dfd"]:
        raise ValueError(f"{path}: unexpected header {header}")
    table = np.array([[int(x) for x in r[:6]] for r in rows], dtype=np.int64)
    rounds = len(rows) // n_agents
    if len(rows) != rounds * n_agents:
        raise ValueError(f"{path}: {len(rows)} rows for {n_agents} agents")
    k, agent = table[:, 0], table[:, 1]
    if not (np.array_equal(k, np.repeat(np.arange(rounds), n_agents))
            and np.array_equal(agent, np.tile(np.arange(1, n_agents + 1), rounds))):
        raise ValueError(f"{path}: rows out of (k, agent) order")
    cols = table[:, 2:6].reshape(rounds, n_agents, 4)
    return {"gamma": cols[..., 0].astype(bool), "priorities": cols[..., 1],
            "sfd": cols[..., 2].astype(bool), "dfd": cols[..., 3].astype(bool)}


def schedule_ok(gamma: np.ndarray, prios: np.ndarray, m: int) -> bool:
    """From k=2 on exactly M agents send, and every sender's round-(k-2)
    priority is at least every non-sender's."""
    for k in range(2, gamma.shape[0]):
        send = gamma[k]
        if send.sum() != m:
            return False
        if prios[k - 2][send].min() < prios[k - 2][~send].max(initial=-1):
            return False
    return True
