"""Run every workload over several seeds and record each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/steadiness.py --runs 10 --baseline perfbench/baseline.json

The bounds in BENCHMARK.json were set from this file's output: a metric's
bound must exceed its spread, which the acceptance rule compares with it.
With ``--baseline`` each median is also compared with the one recorded
there, and a median worse by more than the metric's bound fails the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import stamps  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", default=None)
    ap.add_argument("--baseline", default=None, help="steadiness table to compare medians with")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text())["workloads"] if args.baseline else {}
    table = {"stamps": stamps(), "seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "unit": results[0]["metrics"][name]["unit"], "values": values}
            steady = spread < bounds[name] / 3
            ok &= spread <= bounds[name]
            line = (f"{workload:12s} {name:16s} median={median:<10.5g} spread={spread:.4f} "
                    f"bound={bounds[name]} {'steady' if steady else 'WIDE'}")
            before = baseline.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = median / before["median"] - 1
                worse = change if lower_is_better[name] else -change
                ok &= worse <= bounds[name]
                line += f" vs-baseline={change:+.4f} {'REGRESSED' if worse > bounds[name] else 'ok'}"
            print(line)
        table["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": results[0]["attempted"],
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
        }
        ok &= table["workloads"][workload]["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
