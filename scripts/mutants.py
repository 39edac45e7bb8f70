#!/usr/bin/env python3
"""Mutation check: hand-made mutants of src/priofd/ against the quick loop.

    python scripts/mutants.py

MUTANTS lists (file, old, new, reason) edits. The script copies the parts
of the tree the tests read (src/, tests/, configs/, perfbench/ without its
out/, pyproject.toml) into a temporary directory once, checks that the
unmutated copy passes, and then for each mutant replaces the one
occurrence of `old` in `file` by `new`, runs

    python -m pytest -m "not acceptance" -x -q

in the copy with its src/ on PYTHONPATH, and restores the file. A failing
run kills the mutant. It prints one verdict per mutant and then the
survivors. Exit code 1: a mutant survived; 2: the unmutated copy fails,
or an `old` text is missing or not unique (the list has gone stale).
Each mutant costs up to one quick loop, about 20 s on one core.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-m", "not acceptance", "-x", "-q",
          "-p", "no:cacheprovider"]

SIM = "src/priofd/simulate.py"
HARNESS = "src/priofd/harness.py"
CAL = "src/priofd/calibration.py"
FD = "src/priofd/fd_dynamic.py"
NET = "src/priofd/network.py"
DYN = "src/priofd/dynamics.py"
SCN = "src/priofd/scenarios.py"

MUTANTS = [
    # the round engine
    (SIM, "            np.copyto(e_next, v, where=sent[..., None])\n", "",
     "no error reset after a received round"),
    (SIM, """            if schedule_only:
                E = e_next
""", """            if schedule_only:
                E = np.einsum("jk,rik->rij", P1, E) + v
""", "no error reset on the schedule-only path alone"),
    (SIM, "    if schedule_only and scenario.events:\n", "    if False:\n",
     "the schedule-only path accepts a scenario with events"),
    (SIM, "top_m(prio[:, k0 + lo:k0 + hi], ms[lo])",
     "top_m(raw[:, lo:hi], ms[lo])",
     "the engine ranks raw priorities although it has a scale"),
    (SIM, "split = [0, p] if ms[0] == ms[-1] else [0, 1, 2]",
     "split = [0, p]",
     "a pair elects both rounds with the first round's M"),
    (SIM, "        if np.isnan(raw).any():\n", "        if False:\n",
     "the NaN refusal is dropped"),
    (SIM, "cross = np.matmul(C, Xhat.reshape(R, N * n, 1))",
     "cross = np.matmul(C, X.reshape(R, N * n, 1))",
     "coupling on true states instead of shared estimates"),
    (SIM, 'e_pred = np.einsum("jk,rik->rij", P2,',
     'e_pred = np.einsum("jk,rik->rij", P1,',
     "one-step priority prediction"),
    (SIM, 'ubase = np.einsum("mn,rin->rim", Fself, base) + cross',
     'ubase = np.einsum("mn,rin->rim", Fself, Xhat) + cross',
     "estimate ignores the received control"),
    (SIM, "cross = np.matmul(C, Xhat.reshape(R, N * n, 1)).reshape(R, N, nb)",
     "cross = (Xhat.reshape(R, N * n) @ C.T).reshape(R, N, nb)",
     "single-gemm coupling across the runs of a chunk"),
    (SIM, "models.error_pred2, models.coupling\n",
     "models.error_pred2, models.coupling.reshape(\n"
     "        N, nb, N, n).transpose(2, 1, 0, 3).reshape(N * nb, N * n)\n",
     "coupling block (i, j) applied as block (j, i)"),
    (SIM, "                chol, noise_stream(seed, run, i + 1, PROCESS_NOISE)",
     "                models.noise_chol[0],"
     " noise_stream(seed, run, i + 1, PROCESS_NOISE)",
     "every agent's noise drawn with agent 1's covariance"),
    (SIM, """                          + np.einsum("mn,rin->rim", B, u)
                          * actuated[plant, None])""",
     """                          + np.einsum("mn,rin->rim", B, u))""",
     "a failed actuator still drives its plant"),
    (DYN, "        if bad.size:\n", "        if False:\n",
     "the fleet accepts a gain of an agent on its own estimate"),
    # retired: agent 1's matrices run for a fleet whose agents differ; a
    # Fleet holds one A, B, F_self and priority weight, so no fleet differs
    (NET, 'np.argsort(key, axis=-1, kind="stable")',
     'p.shape[-1] - 1 - np.argsort(key[..., ::-1], axis=-1, kind="stable")',
     "selection ties broken to the higher id"),
    # the batch period kernel
    (FD, "np.minimum(ws - prev, b + 1)", "np.minimum(ws - prev, b)",
     "kernel: first-period T1 capped at b"),
    (FD, "np.where(prev >= base,", "np.where(prev >= 0,",
     "kernel: first-period T1 ignores the column boundary"),
    (FD, "(j == h_count[w] - 1).astype(np.int64)", "(j == 0).astype(np.int64)",
     "kernel: flag a on the first period instead of the last"),
    (FD, "cq[end + 1] - cq[start])", "cq[end] - cq[start])",
     "kernel: period sums leave out their last round"),
    (FD, "h_count = n_comm + ~g[kf]", "h_count = n_comm + 1",
     "kernel: a trailing silent period after a communicating round"),
    (FD, "w = np.cumsum(a) - a", "w = np.cumsum(a)",
     "dFD replay files each window's verdict under the next window"),
    # the online path
    (NET, "bisect_right(comms, hi)]", "bisect_left(comms, hi)]",
     "history lookup leaves out a communication at hi"),
    (NET, "self._comms[0] < self._next_round - self.retention:",
     "self._comms[0] <= self._next_round - self.retention:",
     "history trims its oldest round while still within the retention"),
    (FD, "kappa(t1 - 1, t2 - 1, h, int(end == k))",
     "kappa(t1 - 1, t2 - 1, h, int(end != k))",
     "online: flag a inverted"),
    (FD, "t1 = ws - ends[before - 1] if before else b + 1",
     "t1 = ws - ends[before - 1] if before else b",
     "online: first-period T1 capped at b"),
    (FD, "cq[end - ws + 1] - cq[start - ws]", "cq[end - ws] - cq[start - ws]",
     "online: period sums leave out their last round"),
    # the sample bank
    (CAL, "        self.rows[self.row[cell]] += other.rows[other.row[cell]]",
     "        self.rows[self.row[cell]] = other.rows[other.row[cell]]",
     "merge overwrites a cell's row instead of adding to it"),
    (CAL, "            self.row[new] = np.arange(n, n + new.size)",
     "            self.row[new] = np.arange(new.size)",
     "new cells get rows numbered from 0 instead of after the used rows"),
    (CAL, "                grown[:n] = self.rows[:n]\n", "",
     "a bank's growth drops its rows so far"),
    (CAL, '"rows": self.rows[:self.row.max() + 1]}', '"rows": self.rows}',
     "a pickled bank carries its spare rows"),
    # aggregation, refusals and the CSV format
    (HARNESS, "    if seed == table.seed:", "    if False:",
     "no in-sample seed check"),
    (HARNESS, "if not 1 <= agent <= self.n_agents:",
     "if not 0 <= agent <= self.n_agents:",
     "interval_rates accepts agent 0"),
    (HARNESS, "p[k_event + d:].mean(axis=0)",
     "p[k_event + d - 1:].mean(axis=0)",
     "post-event interval starts one round early"),
    (HARNESS, "self.band_sq += band * band", "self.band_sq += band",
     "state band from the sum instead of the sum of squares"),
    (HARNESS, "    if record_runs < 0:", "    if False:",
     "run_batch accepts record_runs < 0"),
    (HARNESS, "if run < record_runs else None",
     "if run <= record_runs else None",
     "a chunk also records run number record_runs"),
    (CAL, '    if runs < 1:\n        raise ConfigError(f"runs must be >= 1, got {runs}")\n',
     "", "calibrate accepts runs < 1"),
    (HARNESS, """(np.repeat(np.arange(rounds), n_agents),
                 np.tile(np.arange(1, n_agents + 1), rounds),
                 *(arr.ravel() for arr in (rec.gamma, rec.priorities,
                                           rec.alarms[..., SFD],
                                           rec.alarms[..., DFD])),
                 *(rec.states[:, :, j].ravel() for j in range(n_sel))))""",
     """(np.tile(np.arange(rounds), n_agents),
                 np.repeat(np.arange(1, n_agents + 1), rounds),
                 *(arr.T.ravel() for arr in (rec.gamma, rec.priorities,
                                             rec.alarms[..., SFD],
                                             rec.alarms[..., DFD])),
                 *(rec.states[:, :, j].T.ravel() for j in range(n_sel))))""",
     "run record rows agent-major instead of k-major"),
    # the detector axis: one place that swaps sFD and dFD
    (HARNESS, """        alarms[..., SFD] = fd_static.sfd_verdicts(q, table.sfd_kappa, table.d)
        alarms[..., DFD] = fd_dynamic.dfd_verdicts(g, q, table)""",
     """        alarms[..., DFD] = fd_static.sfd_verdicts(q, table.sfd_kappa, table.d)
        alarms[..., SFD] = fd_dynamic.dfd_verdicts(g, q, table)""",
     "the worker files sFD verdicts under dFD and dFD under sFD"),
    (HARNESS, """row = SEP.join(["%s"] * len(names))""",
     """row = SEP.join(["%r"] * len(names))""",
     "a CSV row formats its cells with repr, quoting strings"),
    (HARNESS, "alarms[..., (SFD, DFD)] = flags[..., 2:]",
     "alarms[..., (DFD, SFD)] = flags[..., 2:]",
     "a parsed run record swaps its sfd and dfd columns"),
    (SCN, """            if ev.kind == "add_disturbance":
                _psd_factor(""", """            if False:
                _psd_factor(""",
     "a scenario accepts a covariance that is not symmetric PSD"),
    # the package surface perfbench/child.py relies on
    (HARNESS, "from .simulate import run_single  # noqa: F401\n", "",
     "perfbench surface: harness.run_single gone"),
    (CAL, "                bank: SampleBank) -> np.ndarray:",
     "                bank: SampleBank, levels: int) -> np.ndarray:",
     "perfbench surface: an extra dfd_entries parameter"),
    (CAL, "def calibrate(cfg: SystemConfig, runs: int,",
     "def calibrate(cfg: SystemConfig, n_runs: int,",
     "perfbench surface: calibrate's runs renamed"),
    (FD, "    def save(self, path: str | Path) -> None:",
     "    def write(self, path: str | Path) -> None:",
     "perfbench surface: ThresholdTable.save renamed"),
    (CAL, "def calibrate(cfg: SystemConfig, runs: int, seed: int,\n",
     "def calibrate(cfg: SystemConfig, runs: int, seed: int, /,\n",
     "perfbench surface: calibrate's runs positional-only"),
]


def quick_loop(tree: Path) -> bool:
    """True if the quick loop passes in `tree`."""
    # no bytecode caches: a mutant and the restored file can share a size
    # and a second of mtime, and a stale .pyc would hide the restore
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(PYTEST, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="priofd-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy2(src, tree / name)
        for file, old, _, reason in MUTANTS:
            count = (tree / file).read_text().count(old)
            if count != 1:
                print(f"stale mutant ({reason}): its text occurs {count} "
                      f"times in {file}", file=sys.stderr)
                return 2
        if not quick_loop(tree):
            print("the unmutated tree fails the quick loop", file=sys.stderr)
            return 2
        survivors = []
        for j, (file, old, new, reason) in enumerate(MUTANTS, start=1):
            path = tree / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            t0 = time.perf_counter()
            try:
                killed = not quick_loop(tree)
            finally:
                path.write_text(original)
            print(f"{j:2d}/{len(MUTANTS)} {'killed  ' if killed else 'SURVIVED'} "
                  f"{time.perf_counter() - t0:5.1f} s  {file}: {reason}",
                  flush=True)
            if not killed:
                survivors.append(f"{file}: {reason}")
        print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
        for line in survivors:
            print(f"survivor: {line}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
