"""Print every end-to-end metric of every workload, or compare two sets of runs.

    python3 tdbench/report.py run --seed 1 --seconds 30
    python3 tdbench/report.py compare BASE_DIR NEW_DIR

`run` starts tdbench/run.py once per workload (untraced) and prints each
metric with its unit, the tail percentile, failed_frac and the metadata.
`compare` reads the result files run.py wrote (copy .bench_out/ aside per
commit), takes per-metric medians for each workload and trace mode, and
flags pairs whose kernel, CPU count, Python or numpy differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MATCH = ("kernel", "nproc", "python", "numpy")


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for name in sorted(workloads.WORKLOADS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: run failed\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-2]:
            print(line)
        meta = json.loads(lines[-2])["meta"]
        print(f"{name:15} " + " ".join(f"{key}={meta[key]}" for key in MATCH + ("commit",)))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def load(directory: Path) -> dict:
    """(workload, trace) -> list of result files' contents."""
    groups: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        meta = result["meta"]
        groups.setdefault((meta["workload"], meta["trace"]), []).append(result)
    return groups


def compare(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    flagged = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for field in MATCH:
            seen_base = {r["meta"][field] for r in base[key]}
            seen_new = {r["meta"][field] for r in new[key]}
            if seen_base != seen_new:
                flagged = True
                print(f"WARNING {workload} trace={trace}: {field} differs "
                      f"({sorted(map(str, seen_base))} vs {sorted(map(str, seen_new))}); "
                      f"timings are not comparable")
        print(f"{workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        for metric, info in base[key][0]["metrics"].items():
            b = statistics.median(r["metrics"][metric]["value"] for r in base[key])
            n = statistics.median(r["metrics"][metric]["value"] for r in new[key]
                                  if metric in r["metrics"])
            ratio = f"{n / b:8.3f}x" if b else "       -"
            print(f"  {metric:28} {b:14.6f} {n:14.6f} {ratio} {info['unit']}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args.seed, args.seconds)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
