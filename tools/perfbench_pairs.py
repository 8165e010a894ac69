"""Run perfbench in a parent and a changed checkout, alternating, and compare.

Usage:

    python3 tools/perfbench_pairs.py --parent PARENT --change CHANGE --workload edit-batch --seeds 1-10

Pair i takes the i-th seed S of the range and runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, from that checkout's root: the parent first on even i, the
change first on odd i, one process at a time. T is `run_seconds` in the
change's `BENCHMARK.json`, which also gives every end-to-end metric its
direction (`better`) and `bound`.

Per metric the report gives the parent's median and quartiles, the
change's median, the relative change of the medians, and how many pairs
the change won; a tie counts for neither side. A metric is `unresolved`
when the parent's interquartile range over its median exceeds the
metric's bound: its runs spread too widely to tell a change within the
bound. A run that exits non-zero or ends without a result line is listed
under `failed_runs`, not dropped. The last line of output is one JSON
object, which also holds every run's metrics under `runs`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_range(text: str) -> list:
    """'A-B' as the seeds A..B inclusive; 'A' as [A]."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: {"metrics": {name: value}} or {"error": why}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv + ["--seconds", str(seconds), "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exit {proc.returncode}: {last}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return {"metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"error": "no result line"}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Compare the runs of `pairs`, a list of (parent, change) metric dicts
    (None for a failed run), per metric of `end_to_end` (BENCHMARK.json's
    list of {"name", "better", "bound", ...})."""
    report = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p[name] for p, _ in pairs if p is not None and name in p]
        change = [c[name] for _, c in pairs if c is not None and name in c]
        if not parent or not change:
            continue
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
        change_median = statistics.median(change)
        relative = (change_median - median) / abs(median) if median else None
        both = [(p[name], c[name]) for p, c in pairs if p is not None and c is not None and name in p and name in c]
        wins = sum(c < p if lower else c > p for p, c in both)
        report[name] = {
            "parent_median": median,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": change_median,
            "relative_change": relative,
            "change_wins": wins,
            "pairs": len(both),
            "unresolved": q3 - q1 > spec["bound"] * abs(median),
        }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="seed range A-B, inclusive: one pair per seed")
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, failed = [], []
    for i, seed in enumerate(seed_range(args.seeds)):
        sides = [("parent", args.parent), ("change", args.change)]
        pair = {"pair": i, "seed": seed}
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            start = time.perf_counter()
            run = run_once(checkout.resolve(), args.workload, seed, seconds)
            print(f"pair {i} seed {seed} {side}: {run.get('error', 'ok')} ({time.perf_counter() - start:.1f} s)", flush=True)
            if "error" in run:
                failed.append({"pair": i, "seed": seed, "side": side, "error": run["error"]})
            pair[side] = run.get("metrics")
        runs.append(pair)

    report = summarize([(pair["parent"], pair["change"]) for pair in runs], bench["end_to_end"])
    for name, row in report.items():
        relative = "n/a" if row["relative_change"] is None else f"{row['relative_change']:+.1%}"
        flag = " unresolved" if row["unresolved"] else ""
        print(
            f"  {name:14s} parent {row['parent_median']:.6g} [{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]"
            f"  change {row['change_median']:.6g}  {relative}  won {row['change_wins']}/{row['pairs']}{flag}"
        )
    summary = {"workload": args.workload, "seconds": seconds, "metrics": report, "failed_runs": failed, "runs": runs}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
