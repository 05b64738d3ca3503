"""matchgraph benchmark: two CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-n7-r3 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke        # self-test of the harness, ~20 s

Workloads (BENCHMARK.json says why each was chosen):

* ``scan-n7-r3``  ``cmd_scan(max_n=7, r=3)``: all 996 connected graphs on at
  most 7 vertices.  Fixed input.
* ``analyze-r2``  ``cmd_analyze(path, r=2, ordering="euler")`` on 100 fixed
  random connected hosts with 12-17 vertices and 16-30 edges, in an order
  set by the seed.

Each run starts the workload in a fresh worker process (``worker.py``) that
imports matchgraph from ``src/``, so nothing is built or installed.  The
worker runs closed-loop passes over the instances, one thread, no process
pool.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced
window.  Every metric is also printed above it with its unit and sample
count, together with the correctness gate's outcome and the Python
version, CPU count and commit.  Full results go to ``perfbench/out/``.

Every time metric is in reference seconds (``speed.py``): the measured time
scaled by how fast a fixed Python loop ran over the same interval, so that
the drift in speed of a shared host cancels out.  The raw times are printed
on the ``raw`` line and kept in the result file.

Set-up time is the median over ``SETUP_SAMPLES`` process starts (import of
the package plus input generation), measured from the spawn and scaled by
the speed probe that ticks in the worker while it sets up.  Half of the extra
starts come before the measured window and half after it, so that the
median does not rest on a few seconds of one machine state.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170.0

# The workloads run on one thread.  numpy, which smallgraphs imports but
# never uses for linear algebra, would otherwise start an OpenBLAS thread
# pool at import, which costs about 0.05 s of the 0.3 s set-up on 2 CPUs.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = ("wall_s", "instance_s.p50", "instance_s.p90", "certified_frac", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def commit_id() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamps() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }


def spawn_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON summary line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.monotonic()), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.terminate()  # lets the worker remove its scratch files
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"worker printed no summary: {lines[-1][:200]!r}") from None


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    extra_starts = 0 if trace else SETUP_SAMPLES - 1

    def setup_only() -> dict:
        return spawn_worker(common + ["--seconds", "0", "--setup-only"], deadline)

    setup = [setup_only() for _ in range(extra_starts // 2)]
    summary = spawn_worker(common + ["--seconds", repr(seconds), "--trace", str(trace)], deadline)
    setup.append(summary)
    setup += [setup_only() for _ in range(extra_starts - extra_starts // 2)]
    if not trace:
        ref = [s["setup_ref_s"] for s in setup]
        summary["metrics"]["setup_s"] = (statistics.median(ref), "s", len(ref))
        summary["setup_samples"] = ref
        summary["setup_raw_samples"] = [s["setup_s"] for s in setup]
    summary["stamps"] = stamps()
    summary["args"] = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    return summary


def report(summary: dict, trace: int) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    s = summary
    print(f"# {json.dumps(s['args'])} {json.dumps(s['stamps'])}")
    attempted = s["attempted"]
    print(f"gate: attempted={attempted} failed={s['failed']} "
          f"failed_frac={s['failed'] / attempted:.4f} findings={s['findings']}")
    for line in s["failures"]:
        print(f"gate: FAILED {line}")
    if not trace:
        print(f"raw: wall_s={statistics.median(s['pass_walls']):.6g} "
              f"setup_s={statistics.median(s['setup_raw_samples']):.6g} (seconds on this machine)")
    chosen = s["metrics"] if trace else {k: s["metrics"][k] for k in END_TO_END}
    for name, (value, unit, samples) in chosen.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    OUT.mkdir(exist_ok=True)
    a = s["args"]
    with open(OUT / f"result-{a['workload']}-seed{a['seed']}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(s, fh, indent=1)
    return {
        "correct": s["failed"] == 0,
        "attempted": attempted,
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in chosen.items()},
    }


def smoke() -> int:
    """Small-size self-test: every workload traced and untraced, every metric
    named in BENCHMARK.json printed, and a wrong reference caught."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = report(run(workload, seed=1, seconds=0, trace=trace, smoke=True), trace)
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload}: metrics {got} differ from BENCHMARK.json {expected}")
            if not result["correct"]:
                problems.append(f"{workload}: gate failed at smoke size")
    problems += wrong_reference_is_caught()
    for p in problems:
        print(f"smoke: FAILED {p}")
    print("smoke: PASS" if not problems else "smoke: FAIL")
    return 0 if not problems else 1


def wrong_reference_is_caught() -> list[str]:
    """Corrupt one scan reference value; the gate must count it as exactly
    one failed answer."""
    import copy

    from worker import import_program, run_pass
    from workloads import ScanWorkload

    cli = import_program()
    problems = []
    scan = ScanWorkload(max_n=6)
    instances = scan.make_inputs(1, HERE / ".work")
    outcomes = run_pass(cli, instances)["outcomes"]
    wrong = copy.deepcopy(scan.reference)
    key = next(k for k, (chi, _) in wrong["graphs"].items() if chi > 0)
    chi, ex = wrong["graphs"][key]
    wrong["graphs"][key] = (chi + 1, ex)
    failed = [a.label for a in scan.gate(instances, outcomes, reference=wrong) if a.failed]
    if failed != [key]:
        problems.append(f"wrong scan reference for {key} gave failures {failed}")
    print(f"smoke: wrong reference counted as failed: {key}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the harness self-test")
    args = ap.parse_args(argv)
    # SIGTERM runs the finally blocks that stop children and remove scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "matchgraph" / "__init__.py").is_file():
        print(f"error: no matchgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = report(run(args.workload, args.seed, args.seconds, args.trace), args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
