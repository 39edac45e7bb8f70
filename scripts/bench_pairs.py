#!/usr/bin/env python3
"""Paired benchmark of two source trees: run perfbench alternately in a
parent tree and a change tree and summarise the end-to-end metrics.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 \\
        --seeds 501 -o BENCH_x.json

Each tree is a whole checkout (for instance one made with `git archive`).
Pair j runs `python3 perfbench/run.py --workload W --seed S+j --seconds T
--trace 0` from the root of each tree, for every workload W that
BENCHMARK.json lists; even pairs run the parent first, odd pairs the
change first. T, the workloads and the metric names, units and directions
come from the change tree's BENCHMARK.json.

The output's `end_to_end` has one entry per workload: whether every run
was correct, the failed and attempted check counts summed over the runs,
and for every metric each side's median and quartiles, the parent's
interquartile range, the change/parent ratio of the medians and the number
of pairs the change won (ties count for neither side). `values` keeps
every run's figure, in pair order.

A run that fails leaves its artifacts under that tree's perfbench/out/,
where perfbench keeps them; this script deletes nothing there, and prints
the exit code and the tail of child.log of every child perfbench reports
dead. It only reads perfbench and changes nothing in it.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

DEAD_CHILD = re.compile(r"child in (\S+) exited (-?\d+); see (\S+)")
LOG_TAIL_LINES = 20


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last-line JSON, or a failed result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    for out, rc, log in DEAD_CHILD.findall(proc.stderr):
        path = tree / log
        tail = (path.read_text(errors="replace").splitlines()[-LOG_TAIL_LINES:]
                if path.is_file() else ["(no child.log)"])
        print(f"  {tree} {workload} seed {seed}: child in {out} exited {rc}",
              *(f"    | {line}" for line in tail), sep="\n", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        print(f"  {tree} {workload} seed {seed}: exit {proc.returncode}, "
              f"correct {result['correct']}, failed {result['failed']}; "
              f"artifacts kept under {tree / 'perfbench' / 'out'}",
              *(f"    | {line}" for line in proc.stderr.splitlines()[-10:]),
              sep="\n", file=sys.stderr)
        result["correct"] = False
    return result


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """BENCH_*.json's end_to_end entry for one workload."""
    sides = ("parent", "change")
    entry = {
        "pairs": len(runs["parent"]),
        "correct": {s: all(r["correct"] for r in runs[s]) for s in sides},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in sides},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
    }
    values = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        got = {s: [r["metrics"].get(name, {}).get("value", float("nan"))
                   for r in runs[s]] for s in sides}
        med = {s: float(np.median(got[s])) for s in sides}
        quart = {s: [round(float(q), 4)
                     for q in np.percentile(got[s], [25, 75])] for s in sides}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(got["parent"], got["change"]))
        entry[name] = {
            "unit": metric["unit"],
            "parent": round(med["parent"], 4),
            "change": round(med["change"], 4),
            "ratio": round(med["change"] / med["parent"], 3),
            "parent_quartiles": quart["parent"],
            "change_quartiles": quart["change"],
            "parent_iqr": round(quart["parent"][1] - quart["parent"][0], 4),
            "wins": int(wins),
        }
        values[name] = {s: [round(v, 4) for v in got[s]] for s in sides}
    entry["values"] = values
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="parent source tree")
    ap.add_argument("change", type=Path, help="change source tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=501,
                    help="seed of the first pair; pair j uses seeds + j")
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for j in range(args.pairs):
        seed = args.seeds + j
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                res = run_once(trees[side], w, seed, seconds)
                runs[w][side].append(res)
                value = res["metrics"].get("mc_runs_per_s", {}).get("value")
                print(f"pair {j} seed {seed} {w:12s} {side:6s} correct "
                      f"{res['correct']} mc_runs_per_s {value}", flush=True)

    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "method": f"{args.pairs} pairs per workload, seeds {args.seeds}-"
                  f"{args.seeds + args.pairs - 1}, each side run from its own "
                  "tree; even pairs run the parent first, odd pairs the "
                  "change first. Figures are medians over the pairs; "
                  "quartiles are over each side's runs; wins counts pairs "
                  "where the change is better.",
        "end_to_end": {w: summarise(runs[w], bench["end_to_end"])
                       for w in workloads},
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    bad = [w for w, entry in doc["end_to_end"].items()
           if not all(entry["correct"].values())]
    if bad:
        print("runs not correct on: " + ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
