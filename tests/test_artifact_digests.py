"""Artifact bytes pinned across changes to the program.

A desk calibration of 40 runs and an actuator-failure run of 25 runs on
its table (3 recorded runs) must write exactly the bytes they wrote when
these digests were taken. A refactor of the batch layer that claims
byte-identical artifacts is checked here in the quick loop; a change that
means to alter an artifact updates the digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

from priofd.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cartpole_desk.json"

TABLE_SHA256 = "5707958787a85401de862ef2545aeb16adf294f007be3131df39f5ec173fd8eb"
CSV_SET_SHA256 = "81b289c7ecf2081a65723c8d367f8808be5afc33dc6dd76575ada8f23a2b8dd1"


def csv_set_digest(outdir: Path) -> str:
    """One sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def desk_table(tmp_path_factory):
    table = tmp_path_factory.mktemp("digest") / "thresholds.pfdt"
    assert main(["calibrate", "--config", str(CONFIG), "--runs", "40",
                 "--seed", "2", "-o", str(table)]) == 0
    return table


def test_calibrate_table_bytes(desk_table):
    assert hashlib.sha256(desk_table.read_bytes()).hexdigest() == TABLE_SHA256


def test_run_csv_bytes(desk_table, tmp_path):
    out = tmp_path / "exp"
    assert main(["run", "--config", str(CONFIG), "--table", str(desk_table),
                 "--scenario", "actuator-failure", "--runs", "25",
                 "--seed", "3", "--record-runs", "3", "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 4 + 3
    assert csv_set_digest(out) == CSV_SET_SHA256
