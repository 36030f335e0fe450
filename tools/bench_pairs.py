#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against this one.

    python3 tools/bench_pairs.py --parent DIR --out BENCH_name.json \\
        desk_sim@211:10 full_sim@223:5 long_detect@227:5

Each ``WORKLOAD@SEED:PAIRS`` set runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0`` PAIRS (at least 2) times in each
checkout, one side after the other, with the parent first in odd pairs and
the change first in even ones, so drift of the machine falls on both sides
alike. DIR is a checkout of the parent commit, e.g. made by ``git worktree
add DIR <commit>`` or ``git archive <commit> | tar -x -C DIR``; ``--change``
defaults to the checkout this script lives in. Every result line is kept.
For each end-to-end metric of ``BENCHMARK.json`` the output gives both sides'
median, quartiles (``statistics.quantiles(n=4)``) and runs, the pairs the
change won, the relative change of the median, whether it is worse by more
than the metric's bound, and whether it meets the gain rule: better in at
least 90% of the pairs, and in the median by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def workload_set(spec: str) -> tuple[str, int, int]:
    """``WORKLOAD@SEED:PAIRS`` as its three parts. The quartiles need two runs
    a side, so a set of fewer than 2 pairs is refused before anything runs."""
    workload, rest = spec.split("@")
    seed, pairs = (int(v) for v in rest.split(":"))
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"{spec!r} has {pairs} pairs; a set needs at least 2")
    return workload, seed, pairs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """One set's summary, from its runs in pair order."""
    side = {s: [r["result"] for r in runs if r["side"] == s] for s in ("parent", "change")}
    out = {
        "pairs": len(side["change"]),
        "all_correct": all(r["correct"] for r in side["parent"] + side["change"]),
        "failed": sum(r["failed"] for r in side["parent"] + side["change"]),
    }
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        vals = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in side.items()}
        parent, change = spread(vals["parent"]), spread(vals["change"])
        rel = (change["median"] - parent["median"]) / parent["median"]
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        gain = sign * (parent["median"] - change["median"])
        out[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "change_vs_parent": rel,
            "worse_by_more_than_bound": sign * rel > metric["bound"],
            "gain_rule_met": wins >= 0.9 * len(vals["change"]) and gain > parent["q3"] - parent["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=workload_set, help="WORKLOAD@SEED:PAIRS, PAIRS >= 2")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": "parent and change run from separate checkouts, one after the other in each "
                    "pair (parent first in odd pairs); one result line per run; q1/q3 from "
                    "statistics.quantiles(n=4); change_wins counts pairs where the change reads "
                    "better; made by tools/bench_pairs.py",
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "thread_variables": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "summary": {},
        "runs": [],
    }
    for workload, seed, pairs in args.sets:
        runs = []
        for pair in range(1, pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), workload, seed, args.seconds)
                runs.append({"side": side, "pair": pair, "workload": workload, "seed": seed,
                             "result": result})
                print(f"{workload}@{seed} pair {pair} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.3f} correct {result['correct']}",
                      file=sys.stderr, flush=True)
        doc["summary"][f"{workload}@{seed}"] = summarize(runs, metrics)
        doc["runs"] += runs
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
