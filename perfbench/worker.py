"""One workload in one fresh process; started by ``perfbench/run.py``.

The process imports matchgraph from the checkout's ``src/``, makes the
workload's inputs from the seed, reports its set-up time, then runs passes
over the instances in a closed loop (one caller, the next instance only
after the previous one returned) until the next pass would end after
``--seconds``; at least one pass always runs.  Set-up and the untraced
passes run under the speed probe (``speed.py``), and their times are
reported in reference seconds.  With ``--trace 1`` the same window instead
runs every instance twice, untraced and then under the span tracer, without
the probe.  The correctness gate runs last, outside every timed region.
The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SETUP_TICK_S, TICK_S, SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Outcome, make_workload  # noqa: E402


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import matchgraph.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"matchgraph was imported from {cli.__file__}, not from {src}")
    return cli


def timed_call(cli, inst, probe: SpeedProbe | None = None) -> Outcome:
    """One call; the time the probe ran during it is taken out."""
    def seconds():
        return time.perf_counter() - start - (probe.paused - paused if probe else 0.0)

    paused = probe.paused if probe else 0.0
    start = time.perf_counter()
    try:
        report = getattr(cli, inst.entry)(*inst.args, **inst.kwargs)
    except Exception as exc:  # one failed instance must not end the run
        return Outcome(seconds(), error=exc)
    return Outcome(seconds(), report=report)


def run_pass(cli, instances, probe: SpeedProbe | None = None) -> dict:
    """One pass over the instances; ``elapsed`` is its raw time and ``spans``
    the (start, end) of each call, for ``scale_to_reference``."""
    if probe:
        probe.sample()  # a short pass may end before the first tick
    start = time.perf_counter()
    outcomes, spans = [], []
    for inst in instances:
        t0 = time.perf_counter()
        outcomes.append(timed_call(cli, inst, probe))
        spans.append((t0, time.perf_counter()))
    return {"elapsed": time.perf_counter() - start,
            "wall": sum(out.seconds for out in outcomes), "spans": spans, "outcomes": outcomes}


def scale_to_reference(passes, probe: SpeedProbe) -> None:
    """Each call's time in reference seconds, scaled by the probe runs around
    it; called once the probe has also run after the last call."""
    for p in passes:
        p["ref"] = [out.seconds * probe.scale(*span)
                    for out, span in zip(p["outcomes"], p["spans"])]


def run_paired_pass(cli, instances, first_id: int) -> dict:
    """Each instance untraced and then traced, back to back, so that drift in
    the machine's speed hits both runs alike and the overhead ratio holds."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for k, inst in enumerate(instances):
        plain.append(timed_call(cli, inst))
        tracer.instance = first_id + k
        tracer.install()
        try:
            traced.append(timed_call(cli, inst))
        finally:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "wall": elapsed, "outcomes": traced, "plain": plain,
            "tracer": tracer}


def run_window(next_pass, seconds: float) -> list[dict]:
    """Passes until the next one would end after ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(next_pass(len(passes)))
        if time.perf_counter() - start + passes[-1]["elapsed"] > seconds:
            return passes


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, answers_per_pass) -> dict:
    """Wall time is the median pass; an instance's time is its median over
    the passes, so that one slow stretch of a few seconds moves neither.
    Both are in reference seconds."""
    walls = [sum(p["ref"]) for p in passes]
    window = sum(walls)
    bad = {a.instance for answers in answers_per_pass for a in answers if a.failed}
    # A failed instance counts as beyond any latency limit; the window length
    # stands in for infinity in the JSON output.
    latencies = [
        window if k in bad else statistics.median(p["ref"][k] for p in passes)
        for k in range(len(passes[0]["outcomes"]))
    ]
    timings = len(latencies) * len(passes)
    answers = [a for per_pass in answers_per_pass for a in per_pass]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "instance_s.p50": (nearest_rank(latencies, 0.5), "s", timings),
        "instance_s.p90": (nearest_rank(latencies, 0.9), "s", timings),
        "certified_frac": (sum(a.certified for a in answers) / len(answers), "frac", len(answers)),
    }


def layer_metrics(tracer: Tracer, answers) -> dict:
    spans = tracer.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    fn_calls: dict[str, int] = {}
    fn_self: dict[str, float] = {}
    for name, (calls, self_s) in spans.items():
        function = name.split("@")[0]
        layer = function.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        fn_calls[function] = fn_calls.get(function, 0) + calls
        fn_self[function] = fn_self.get(function, 0.0) + self_s
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    turan_calls = fn_calls.get("turan.turan_matchings", 0)
    binding = [a.binding for a in answers if a.certified and a.binding is not None]
    out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    out.update({
        "smallgraphs.canonical_form.calls": (fn_calls.get("smallgraphs.canonical_form", 0), "count"),
        "matching.r_matching.calls": (fn_calls.get("matching.edge_subset_has_r_matching", 0), "count"),
        "matching.r_matching.self_s": (fn_self.get("matching.edge_subset_has_r_matching", 0.0), "s"),
        "matching.tutte_berge.self_s": (fn_self.get("matching.tutte_berge", 0.0), "s"),
        "matching.enumerate.self_s": (fn_self.get("matching.enumerate_matchings", 0.0), "s"),
        "turan.calls": (turan_calls, "count"),
        "turan.branch_bound_frac": (ratio(c.get("turan_branch_bound", 0), turan_calls), "frac"),
        "alternation.calls": (
            fn_calls.get("alternation.ex_alt_sigma", 0) + fn_calls.get("alternation.ex_salt_sigma", 0),
            "count",
        ),
        "alternation.binding_frac": (ratio(sum(binding), len(binding)), "frac"),
        "hypergraphs.kg_builds": (fn_calls.get("hypergraphs.general_kneser", 0), "count"),
        "hypergraphs.kg_vertices": (c.get("kg_vertices", 0), "count"),
        "hypergraphs.kg_edges": (c.get("kg_edges", 0), "count"),
        "coloring.search_nodes": (c.get("search_nodes", 0), "count"),
        "coloring.zero_search_frac": (ratio(c.get("zero_search", 0), c.get("chromatic_calls", 0)), "frac"),
        "coloring.budget_hits": (c.get("budget_hits", 0), "count"),
    })
    return out


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.sample()
    probe.start(SETUP_TICK_S)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # SIGTERM runs the finally blocks that stop children and remove scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work_dir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = import_program()
        workload = make_workload(args.workload, smoke=args.smoke)
        instances = workload.make_inputs(args.seed, work_dir)
        probe.stop()
        setup_s = time.monotonic() - args.spawned_at - probe.paused
        setup = {"setup_s": setup_s, "setup_ref_s": setup_s * probe.scale()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        if args.trace:
            passes = run_window(
                lambda i: run_paired_pass(cli, instances, i * len(instances)), args.seconds)
        else:
            probe.start(TICK_S)
            try:
                passes = run_window(lambda i: run_pass(cli, instances, probe), args.seconds)
                probe.sample()
            finally:
                probe.stop()
            scale_to_reference(passes, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

        outcome_lists = [p["outcomes"] for p in passes] + [p["plain"] for p in passes if "plain" in p]
        answer_lists = [workload.gate(instances, outcomes) for outcomes in outcome_lists]
        answers_per_pass = answer_lists[: len(passes)]
        all_answers = [a for answers in answer_lists for a in answers]
        for outcomes in outcome_lists:
            for out in outcomes:
                if out.error is not None:
                    sys.stderr.write("".join(traceback.format_exception(out.error)))

        if args.trace:
            per_pass = [layer_metrics(p["tracer"], a) for p, a in zip(passes, answers_per_pass)]
            metrics = {
                name: (statistics.median(m[name][0] for m in per_pass), unit, len(per_pass))
                for name, (_, unit) in per_pass[0].items()
            }
            traced_s = sum(out.seconds for p in passes for out in p["outcomes"])
            plain_s = sum(out.seconds for p in passes for out in p["plain"])
            metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac", len(passes))
            passes[-1]["tracer"].write(HERE / "out" / f"trace-{args.workload}")
        else:
            metrics = end_to_end(passes, answers_per_pass)
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)

        summary = {
            **setup,
            "metrics": metrics,
            "attempted": sum(len(a) for a in answer_lists),
            "failed": sum(a.failed for a in all_answers),
            "findings": sum(a.finding for a in answers_per_pass[-1]),
            "failures": [f"{a.label}: {a.reason}" for a in all_answers if a.failed][:20],
            "pass_walls": [p["wall"] for p in passes],
            "instance_seconds": {
                inst.label: [p["outcomes"][k].seconds for p in passes]
                for k, inst in enumerate(instances)
            },
        }
        print(json.dumps(summary))
        return 0
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another worker still uses it


if __name__ == "__main__":
    sys.exit(main())
