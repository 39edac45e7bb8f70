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

MUTANTS = [
    # the round engine
    (SIM, "        e_next[sent] = v[sent]\n", "",
     "no error reset after a received round"),
    (SIM, "coupling = np.matmul(BigF, Xhat.reshape(R, N * n, 1))",
     "coupling = np.matmul(BigF, X.reshape(R, N * n, 1))",
     "coupling on true states instead of shared estimates"),
    (SIM, 'e_pred = np.einsum("jk,rik->rij", P2, E)',
     'e_pred = np.einsum("jk,rik->rij", P1, E)',
     "one-step priority prediction"),
    (SIM, "ubase = np.where(sent[..., None], U, Uhat)", "ubase = Uhat",
     "estimate ignores the received control"),
    (SIM, "coupling = np.matmul(BigF, Xhat.reshape(R, N * n, 1)).reshape(R, N, nb)",
     "coupling = (Xhat.reshape(R, N * n) @ BigF.T).reshape(R, N, nb)",
     "single-gemm coupling across the runs of a chunk"),
    (SIM, "    if any(not np.array_equal(getattr(mod, f), getattr(one, f))",
     "    if False and any(not np.array_equal(getattr(mod, f), getattr(one, f))",
     "agent 1's matrices run for a fleet whose agents differ"),
    (NET, 'np.argsort(-p, axis=-1, kind="stable")',
     'p.shape[-1] - 1 - np.argsort(-p[..., ::-1], axis=-1, kind="stable")',
     "selection ties broken to the higher id"),
    # the batch period kernel
    (FD, "np.minimum(ws - pad[lo - 1], b + 1)", "np.minimum(ws - pad[lo - 1], b)",
     "kernel: first-period T1 capped at b"),
    (FD, "(j == h_count[w] - 1).astype(np.int64)", "(j == 0).astype(np.int64)",
     "kernel: flag a on the first period instead of the last"),
    (FD, "cq[end + 1] - cq[start])", "cq[end] - cq[start])",
     "kernel: period sums leave out their last round"),
    (FD, "h_count = n_comm + ~g[ks]", "h_count = n_comm + 1",
     "kernel: a trailing silent period after a communicating round"),
    # aggregation, refusals and the CSV format
    (HARNESS, "    if seed == table.seed:", "    if False:",
     "no in-sample seed check"),
    (HARNESS, "post = p[min(k_event + d, rounds):]",
     "post = p[min(k_event + d - 1, rounds):]",
     "post-event interval starts one round early"),
    (HARNESS, "self.band_sq += comp * comp", "self.band_sq += comp",
     "state band from the sum instead of the sum of squares"),
    (HARNESS, "    if record_runs < 0:", "    if False:",
     "run_batch accepts record_runs < 0"),
    (CAL, '    if runs < 1:\n        raise ConfigError(f"runs must be >= 1, got {runs}")\n',
     "", "calibrate accepts runs < 1"),
    (HARNESS, 'map(repr if col.dtype.kind == "f" else str, col.tolist())',
     "map(str, col.tolist())",
     "float cells by str instead of repr (equivalent, so it survives: "
     "str and repr of a Python float agree since Python 3.2)"),
    (HARNESS, """(np.repeat(np.arange(rounds), n_agents),
                 np.tile(np.arange(1, n_agents + 1), rounds),
                 *(arr.ravel() for arr in (rec.gamma, rec.priorities,
                                           rec.sfd, rec.dfd)),
                 *(rec.states[:, :, j].ravel() for j in range(n_sel))))""",
     """(np.tile(np.arange(rounds), n_agents),
                 np.repeat(np.arange(1, n_agents + 1), rounds),
                 *(arr.T.ravel() for arr in (rec.gamma, rec.priorities,
                                             rec.sfd, rec.dfd)),
                 *(rec.states[:, :, j].T.ravel() for j in range(n_sel))))""",
     "run record rows agent-major instead of k-major"),
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
    (CAL, "              seed: int) -> tuple[ThresholdTable, SampleBank]:",
     "              seed: int, /) -> tuple[ThresholdTable, SampleBank]:",
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
