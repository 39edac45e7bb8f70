#!/usr/bin/env python3
"""End-to-end experiment driver: calibrate once, then run the fault-free
baseline and both fault scenarios, writing all CSV artifacts per arm.

Desk scale (default) took 16 s on one core of a 2-core Intel Xeon VM
with one BLAS thread:

    python scripts/run_experiments.py --outdir results/desk

The full-scale study (20 agents, 10000 runs per arm) took 2 min 48 s on
the same VM with two workers: calibration 41 s, then 42, 43 and 41 s for
the three arms.

    python scripts/run_experiments.py --scale full --workers 2 --outdir results/full
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from priofd.calibration import calibrate, write_calibration_report
from priofd.config import SystemConfig, build_preset
from priofd.harness import DETECTORS, emit_csv, run_batch
from priofd.scenarios import actuator_failure, bandwidth_loss, fault_free

SCALES = {
    # (config file, calibration runs, evaluation runs, faulty agents)
    "desk": ("cartpole_desk.json", 2000, 2000, (2,)),
    "full": ("cartpole_full.json", 10000, 10000, (2, 3, 4, 5)),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="desk")
    ap.add_argument("--runs", type=int, default=None,
                    help="override evaluation runs per arm (smoke: 500)")
    ap.add_argument("--cal-runs", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    cfg_name, cal_runs, eval_runs, faulty = SCALES[args.scale]
    cal_runs = args.cal_runs or cal_runs
    eval_runs = args.runs or eval_runs
    cfg_path = REPO / "configs" / cfg_name
    if cfg_path.exists():
        cfg = SystemConfig.load(cfg_path)
    else:
        cfg = build_preset(args.scale, seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    table, bank = calibrate(cfg, runs=cal_runs, seed=args.seed + 1,
                            workers=args.workers)
    table.save(outdir / "thresholds.pfdt")
    write_calibration_report(bank, outdir / "calibration_coverage.csv")
    print(f"[{time.time() - t0:7.1f}s] calibrated on {cal_runs} runs: "
          f"sfd kappa={table.sfd_kappa:g}")

    arms = [
        ("fault_free", fault_free(), 1),
        ("actuator_failure", actuator_failure(faulty, 100), faulty[0]),
        ("bandwidth_loss", bandwidth_loss(1, 100), 1),
    ]
    for idx, (name, scenario, monitored) in enumerate(arms):
        report, records = run_batch(
            cfg, scenario, table, runs=eval_runs,
            seed=args.seed + 100 * (idx + 1), monitored=monitored,
            record_runs=3, workers=args.workers)
        emit_csv(report, records, outdir / name, cfg,
                 args.seed + 100 * (idx + 1), scenario.name)
        rates = "  ".join("{} {:.4f}->{:.4f}".format(
            det, *report.interval_rates(det, monitored)) for det in DETECTORS)
        print(f"[{time.time() - t0:7.1f}s] {name}: agent {monitored} {rates}")
    print(f"artifacts under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
