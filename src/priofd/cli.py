"""Command line entry point.

Subcommands: make-config, calibrate, run, inspect-table. Any refused
precondition (bad config, incompatible table, too few samples) exits
nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .calibration import calibrate, write_calibration_report
from .config import PRESET_SIZES, SystemConfig, build_preset
from .errors import CalibrationError, ConfigError
from .fd_dynamic import ThresholdTable
from .harness import DETECTORS, emit_csv, run_batch
from .scenarios import resolve_scenario


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="priofd")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("make-config", help="build a preset config "
                       "(matrices, LQR gains, fitted quantization scale)")
    p.add_argument("--preset", choices=sorted(PRESET_SIZES), default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta", type=float, default=SystemConfig.eta)
    p.add_argument("--d", type=int, default=SystemConfig.d)
    p.add_argument("--b", type=int, default=SystemConfig.b)
    p.add_argument("--rounds", type=int, default=SystemConfig.rounds)
    p.add_argument("--scale-fit-runs", type=int, default=200)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("calibrate", help="Monte Carlo threshold calibration")
    _add_common(p)
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("-o", "--output", required=True, help="threshold table file")
    p.add_argument("--report", help="optional cell-coverage CSV")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("run", help="Monte Carlo experiment batch")
    _add_common(p)
    p.add_argument("--table", required=True)
    p.add_argument("--scenario", default="none",
                   help="preset name or scenario JSON path")
    p.add_argument("--runs", type=int, default=500,
                   help="desk-scale smoke default; the reference experiment "
                        "uses 10000")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--monitored", type=int, default=None)
    p.add_argument("--band-agent", type=int, default=None)
    p.add_argument("--band-component", type=int, default=3)
    p.add_argument("--record-runs", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("inspect-table", help="print threshold table header "
                       "and coverage")
    p.add_argument("--table", required=True)
    return ap


def cmd_make_config(args) -> None:
    cfg = build_preset(args.preset, seed=args.seed, eta=args.eta, d=args.d,
                       b=args.b, rounds=args.rounds,
                       scale_fit_runs=args.scale_fit_runs)
    cfg.save(args.output)
    print(f"wrote {args.output} (N={cfg.n_agents}, M={cfg.bandwidth}, "
          f"scale={cfg.quant_scale:.6g}, hash={cfg.hash()})")


def cmd_calibrate(args) -> None:
    cfg = SystemConfig.load(args.config)
    table, bank = calibrate(cfg, runs=args.runs, seed=args.seed,
                            workers=args.workers)
    table.save(args.output)
    if args.report:
        write_calibration_report(bank, args.report)
    finite = int(np.isfinite(table.entries).sum())
    print(f"wrote {args.output}: sfd kappa={table.sfd_kappa:g} "
          f"({table.sfd_samples} sums), {finite} finite dFD entries from "
          f"{table.dfd_samples} period sums")


def cmd_run(args) -> None:
    cfg = SystemConfig.load(args.config)
    table = ThresholdTable.load(args.table)
    scenario = resolve_scenario(args.scenario)
    report, records = run_batch(cfg, scenario, table, runs=args.runs,
                                seed=args.seed, monitored=args.monitored,
                                band_agent=args.band_agent,
                                band_component=args.band_component,
                                record_runs=args.record_runs,
                                workers=args.workers)
    files = emit_csv(report, records, args.out, cfg, args.seed, scenario.name)
    mon = report.monitored
    print(f"{args.runs} runs of '{scenario.name}', monitored agent {mon}")
    for det in DETECTORS:
        pre, post = report.interval_rates(det, mon)
        print(f"  {det} rate pre={pre:.4f} post={post:.4f}")
    print(f"  wrote {len(files)} files under {args.out}")


def cmd_inspect_table(args) -> None:
    table = ThresholdTable.load(args.table)
    print(f"eta={table.eta} d={table.d} b={table.b} M={table.m} "
          f"N={table.n_agents} scale={table.scale:.6g} seed={table.seed}")
    print(f"sfd kappa={table.sfd_kappa:g} from {table.sfd_samples} window sums")
    print(f"dFD period sums: {table.dfd_samples}")
    finite = np.isfinite(table.entries)
    valid = ~np.isnan(table.entries)
    print(f"finite entries: {int(finite.sum())} / {int(valid.sum())} valid "
          f"cells (T1 <= T2)")
    for h in range(table.d):
        n_fin = int(finite[:, :, h, :].sum())
        if n_fin:
            print(f"  H={h + 1:2d}: {n_fin:5d} finite "
                  f"(max kappa {np.nanmax(np.where(finite[:, :, h, :], table.entries[:, :, h, :], np.nan)):g})")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        {
            "make-config": cmd_make_config,
            "calibrate": cmd_calibrate,
            "run": cmd_run,
            "inspect-table": cmd_inspect_table,
        }[args.cmd](args)
    except (ConfigError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
