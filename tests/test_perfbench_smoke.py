"""The benchmark still runs against this tree: every CLI command and, with
--trace 1, every function perfbench wraps, with all of its checks passing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("workload", ["make_config", "calibrate", "evaluate",
                                      "online"])
def test_one_traced_round_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
