"""Paired A/B runs of the benchmark: a git ref against the working tree.

    python3 perfbench/ab.py --ref HEAD~1 [--pairs 10] [--workloads retailer-churn,...]

The ref is extracted with ``git archive`` into a temporary directory and the
working tree's ``perfbench/`` and ``BENCHMARK.json`` are copied over it, so
both sides run identical benchmark code and settings.  Each pair runs both
sides on the same seed, alternating which side goes first.  For every
workload and end-to-end metric it prints both sides' median and quartiles
and the share of pairs the working tree won (ties count for neither), and a
verdict (none below ten pairs):

- ``gain``: the tree won at least 9 pairs in 10 and the medians differ by
  more than the ref's own quartile spread;
- ``regression``: the tree's median is worse than the ref's by more than the
  metric's bound;
- ``unresolved``: the ref's spread (quartile distance over median) is wider
  than the bound, and the tree did not win every pair;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
#: Fewer pairs than this give no verdict: run-to-run noise decides them.
MIN_PAIRS = 10


def run_once(root: Path, workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed its checks:\n{completed.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def pairs_won(metric: dict, base: List[float], tree: List[float]) -> int:
    """Pairs in which the working tree did better; ties count for neither side."""
    lower = metric["better"] == "lower"
    return sum((t < b) if lower else (t > b) for b, t in zip(base, tree))


def verdict(metric: dict, base: List[float], tree: List[float]) -> str:
    if len(base) < MIN_PAIRS:
        return f"too few pairs (need {MIN_PAIRS})"
    lower = metric["better"] == "lower"
    wins = pairs_won(metric, base, tree)
    base_low, base_median, base_high = quartiles(base)
    tree_median = statistics.median(tree)
    spread = (base_high - base_low) / base_median if base_median else 0.0
    worse = (tree_median - base_median) if lower else (base_median - tree_median)
    if wins >= 0.9 * len(base) and abs(tree_median - base_median) > base_high - base_low:
        return "gain"
    if worse > metric["bound"] * base_median:
        return "regression"
    if spread > metric["bound"] and wins < len(base):
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired A/B benchmark runs against a git ref")
    parser.add_argument("--ref", required=True, help="git ref to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=HERE,
                               capture_output=True, text=True, check=True).stdout.strip())
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    try:
        base_root = workdir / "ref"
        base_root.mkdir()
        archive = subprocess.run(["git", "archive", args.ref], cwd=repo,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_root)], input=archive, check=True)
        for path in spec["paths"]:
            shutil.rmtree(base_root / path, ignore_errors=True)
            shutil.copytree(repo / path, base_root / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(repo / "BENCHMARK.json", base_root / "BENCHMARK.json")

        for workload in names:
            results = {"ref": [], "tree": []}
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = [("ref", base_root), ("tree", repo)]
                if pair % 2:
                    order.reverse()
                for side, root in order:
                    results[side].append(run_once(root, workload, seed, spec["run_seconds"]))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            print(f"\n{workload} ({args.pairs} pairs, ref {args.ref} vs working tree)")
            print(f"{'metric':28s} {'ref q1/median/q3':>34s} {'tree q1/median/q3':>34s} {'won':>5s}  verdict")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                base = [run[name] for run in results["ref"]]
                tree = [run[name] for run in results["tree"]]
                wins = pairs_won(metric, base, tree)
                cells = ["/".join(f"{value:.4g}" for value in quartiles(side)) for side in (base, tree)]
                print(f"{name:28s} {cells[0]:>34s} {cells[1]:>34s} {wins / len(base):5.0%}  "
                      f"{verdict(metric, base, tree)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
