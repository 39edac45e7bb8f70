"""The package surface perfbench/child.py relies on, checked in well under a
second: the attributes its tracer wraps exist and are looked up where it
wraps them, and its direct calls still bind to the current signatures.
The acceptance-marked smoke runs in test_perfbench_smoke.py run the
benchmark itself."""

import ast
import inspect
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import priofd.cli
from priofd import calibration, harness
from priofd.calibration import CalibrationConfig, SampleBank
from priofd.config import SystemConfig
from priofd.fd_dynamic import (ThresholdTable, dfd_evaluate,
                               partition_window)
from priofd.fd_static import StaticDetector
from priofd.network import ScheduleHistory
from priofd.scenarios import Scenario, fault_free

import oracles

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
DESK_CONFIG = ROOT / "configs" / "cartpole_desk.json"

_ = None   # placeholder argument: bind() checks shapes, not values


def child_install_tracing():
    """child.py's install_tracing, compiled from its source together with
    its priofd and __future__ imports; child.py itself is not imported,
    since importing it starts the speed probe."""
    tree = ast.parse(CHILD.read_text())
    keep = [node for node in tree.body
            if (isinstance(node, ast.Import)
                and all(a.name.startswith("priofd") for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith(("priofd", "__future__")))
            or (isinstance(node, ast.FunctionDef)
                and node.name == "install_tracing")]
    namespace: dict = {}
    exec(compile(ast.Module(body=keep, type_ignores=[]), str(CHILD), "exec"),
         namespace)
    return namespace["install_tracing"]


class Recorder:
    def __init__(self):
        self.wrapped = []

    def install(self, module, attr, name):
        assert callable(getattr(module, attr, None)), \
            f"perfbench wraps {module.__name__}.{attr}, which is gone"
        self.wrapped.append((module, attr))


def test_every_traced_attribute_exists():
    rec = Recorder()
    child_install_tracing()(rec)
    assert rec.wrapped


def test_direct_calls_bind():
    bind = [
        (priofd.cli.main, (_,), {}),
        (priofd.cli.build_preset, ("desk",), {"seed": _, "fit_scale": False}),
        (priofd.cli.run_batch, (_, _, _),
         {"runs": _, "seed": _, "record_runs": _}),
        (priofd.cli.emit_csv, (_, _, _, _, _, _), {}),
        (calibration.fit_quantization_scale, (_, _),
         {"runs": _, "run_length": _, "seed": _, "warmup_discard": _}),
        (SampleBank, (_, _), {}),
        (SampleBank.add_trace, (_, _, _, _), {}),
        (calibration.dfd_entries, (_, _), {}),
        (CalibrationConfig, (_, _, _), {"runs": _, "run_length": _,
                                        "seed": _, "warmup_discard": _}),
        (harness.sfd_verdicts, (_, _, _), {}),
        (harness.dfd_verdicts, (_, _, _), {}),
        (ThresholdTable.load, (_,), {}),
        (ThresholdTable.save, (_, _), {}),
        (dfd_evaluate, (_, _, _, _), {}),
        (partition_window, (_, _, _, _), {}),
        (StaticDetector, (_, _, _), {}),
        (StaticDetector.update, (_, _), {}),
        (ScheduleHistory, (_, _), {}),
        (ScheduleHistory.append, (_, _), {}),
        (Scenario.load, (_,), {}),
        (fault_free, (), {}),
        (SystemConfig.load, (_,), {}),
        (SystemConfig.models, (_,), {}),
        (SystemConfig.require_scale, (_,), {}),
        (oracles.brute_partition, (_, _, _, _), {}),
    ]
    for module in (calibration, harness):
        bind.append((module.run_single, (_, _, _, _),
                     {"seed": _, "run": _, "scenario": _}))
        # layer figures read models and rounds positionally
        assert list(inspect.signature(module.run_single).parameters)[:4] \
            == ["models", "m", "scale", "rounds"]
    for fn, args, kwargs in bind:
        inspect.signature(fn).bind(*args, **kwargs)


def test_build_preset_passes_fit_runs_by_keyword(monkeypatch):
    seen = []

    def fake_fit(*args, **kwargs):
        seen.append(kwargs)
        return 1.0

    monkeypatch.setattr(calibration, "fit_quantization_scale", fake_fit)
    cfg = priofd.cli.build_preset("desk", seed=3, scale_fit_runs=7)
    assert cfg.quant_scale == 1.0
    assert seen and seen[0]["runs"] == 7


def test_calibrate_looks_up_traced_layers_in_its_module(monkeypatch):
    calls = {}

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(calibration, "run_lockstep",
                        count("run_lockstep", calibration.run_lockstep))
    monkeypatch.setattr(SampleBank, "add_trace",
                        count("add_trace", SampleBank.add_trace))
    monkeypatch.setattr(calibration, "dfd_entries",
                        count("dfd_entries", calibration.dfd_entries))
    cfg = replace(SystemConfig.load(DESK_CONFIG), eta=0.5, rounds=60)
    table, _ = calibration.calibrate(cfg, runs=4, seed=1)
    # the 4 runs are one lockstep chunk, binned run by run
    assert calls == {"run_lockstep": 1, "add_trace": 4, "dfd_entries": 1}
    assert np.isfinite(table.sfd_kappa)


def test_dfd_entries_reads_only_eta_from_its_config():
    bank = SampleBank(3, 4)
    bank.add_trace(np.ones((20, 1), dtype=bool),
                   np.ones((20, 1), dtype=np.int64), 5)
    cal = CalibrationConfig(0.1, 3, 4, runs=1, run_length=20, seed=0,
                            warmup_discard=5)
    got = calibration.dfd_entries(cal, bank)
    assert np.array_equal(got, calibration.dfd_entries(
        SimpleNamespace(eta=0.1), bank), equal_nan=True)
