"""The benchmark's workloads: inputs made from a seed, and the correctness gate.

Every instance is one call of a public CLI entry point
(``matchgraph.cli.cmd_scan``, ``cmd_analyze``), looked up on the module at
call time so that the tracer's wrappers are seen.  The gate runs after
timing and checks each answer with code of its own, not with the package's
solvers.

An *answer* is one host-graph question: one graph record of a scan or one
analyzed graph file.  ``certified_frac`` and the failure counts are taken
over answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "scan-n7-r3.json"

# One solver node budget for every analyze instance, so that the harder
# random hosts end as budget-bound intervals in under a second instead of
# minutes.  A budget of 10_000 certifies the same 93 of the 100 hosts but
# spends 9 s more per pass on the other 7.
MAX_NODES = 2_000


@dataclass
class Instance:
    label: str
    entry: str                 # name of the matchgraph.cli function to call
    args: tuple
    kwargs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    report: dict | None = None
    error: BaseException | None = None


@dataclass
class Answer:
    label: str
    instance: int = 0             # index of the instance that gave the answer
    certified: bool = False
    failed: bool = False
    binding: bool | None = None   # chi equals the alternation lower bound
    finding: bool = False         # chi != |E| - ex on a connected host
    reason: str = ""


# ---------------------------------------------------------------------------
# Independent checks.
# ---------------------------------------------------------------------------

def r_matchings(edges, r: int) -> list[tuple[int, ...]]:
    """r-matchings of an edge list as index tuples, in lexicographic order."""
    out = []
    for subset in combinations(range(len(edges)), r):
        seen = set()
        for e in subset:
            seen.update(edges[e])
        if len(seen) == 2 * r:
            out.append(subset)
    return out


def proper_on_matching_graph(edges, r: int, coloring) -> bool:
    hyperedges = [frozenset(h) for h in r_matchings(edges, r)]
    if len(coloring) != len(hyperedges):
        return False
    return all(
        coloring[i] != coloring[j]
        for i, j in combinations(range(len(hyperedges)), 2)
        if not hyperedges[i] & hyperedges[j]
    )


def _all_certified(report: dict) -> bool:
    return all(flag == "certified" for flag in report["exactness"].values())


def graph_key(n: int, edges) -> str:
    return f"{n}|" + ",".join(f"{u}-{v}" for u, v in edges)


# The full scan's known shape: connected graphs per vertex count (OEIS A001349)
# and the number of graphs with chi(KG(G, 3K2)) != |E| - ex(G, 3K2).
SCAN_N7_COUNTS = {"1": 1, "2": 1, "3": 2, "4": 6, "5": 21, "6": 112, "7": 853}
SCAN_N7_FINDINGS = 27


def load_reference(max_n: int) -> dict:
    """The reference (chi, ex) table restricted to graphs on at most max_n
    vertices, with the per-size counts and equality findings it implies."""
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    graphs, counts, findings = {}, {}, 0
    for key, (chi, ex) in ref["graphs"].items():
        n, edges = key.split("|")
        if int(n) <= max_n:
            graphs[key] = (chi, ex)
            counts[n] = counts.get(n, 0) + 1
            findings += chi != len(edges.split(",") if edges else ()) - ex
    if ref["max_n"] == max_n == 7 and (counts, findings) != (SCAN_N7_COUNTS, SCAN_N7_FINDINGS):
        raise ValueError(f"{REFERENCE} does not have the scan's known counts and findings")
    return {"r": ref["r"], "graphs": graphs, "counts": counts, "findings": findings}


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class ScanWorkload:
    """``matchgraph scan --max-n 7 --r 3``: fixed input, the seed is unused."""

    name = "scan-n7-r3"

    def __init__(self, max_n: int = 7):
        self.max_n = max_n
        self.reference = load_reference(max_n)

    def make_inputs(self, seed: int, work_dir: Path) -> list[Instance]:
        r = self.reference["r"]
        return [Instance(f"scan max_n={self.max_n} r={r}", "cmd_scan", (self.max_n, r))]

    def gate(self, instances, outcomes, reference=None) -> list[Answer]:
        ref = reference or self.reference
        answers: list[Answer] = []
        for k, out in enumerate(outcomes):
            if out.report is None:
                answers.extend(
                    Answer(key, k, failed=True, reason=f"scan raised {out.error!r}")
                    for key in ref["graphs"]
                )
                continue
            answers.extend(self._check_report(out.report, ref, k))
        return answers

    def _check_report(self, report: dict, ref: dict, k: int) -> list[Answer]:
        res = report["results"]
        r = ref["r"]
        header_problems = []
        if res["graphs_by_vertex_count"] != ref["counts"]:
            header_problems.append(f"per-size counts {res['graphs_by_vertex_count']}")
        if len(res["violations"]) != ref["findings"]:
            header_problems.append(f"{len(res['violations'])} equality findings")
        if res["capacity_failures"]:
            header_problems.append(f"{len(res['capacity_failures'])} capacity failures")
        answers = []
        seen = set()
        for rec in res["records"]:
            edges = [tuple(e) for e in rec["edges"]]
            key = graph_key(rec["n"], edges)
            seen.add(key)
            ans = Answer(key, k, certified=bool(rec["certified"]))
            expected = ref["graphs"].get(key)
            problems = list(header_problems)
            if expected is None:
                problems.append("graph not in reference")
            elif (rec["chi"], rec["ex"]) != tuple(expected):
                problems.append(f"(chi, ex)=({rec['chi']}, {rec['ex']}) expected {tuple(expected)}")
            certs = rec["certificates"]
            if rec["chi"] is not None:
                coloring = certs["coloring"]
                if not proper_on_matching_graph(edges, r, coloring):
                    problems.append("coloring not proper on the matching graph")
                if coloring and len(set(coloring)) != rec["chi"]:
                    problems.append("coloring does not use chi colors")
                ans.binding = rec["alternation_chi_lower"] == rec["chi"]
                ans.finding = rec["chi"] != len(edges) - rec["ex"]
            extremal = certs["extremal_edges"]
            if len(extremal) != rec["ex"]:
                problems.append("extremal set size differs from ex")
            if r_matchings([edges[e] for e in extremal], r):
                problems.append("extremal set contains an r-matching")
            ans.failed = bool(problems)
            ans.certified = ans.certified and not ans.failed
            ans.reason = "; ".join(problems)
            answers.append(ans)
        answers.extend(
            Answer(key, k, failed=True, reason="graph missing from scan")
            for key in ref["graphs"]
            if key not in seen
        )
        return answers


class AnalyzeWorkload:
    """``matchgraph analyze G --r 2 --ordering euler`` on 100 random hosts.

    The hosts are fixed: random connected graphs drawn once from
    ``HOSTS_SEED``, with vertex and edge counts stratified over the slots
    (n cycles through 12..17, m through 16..30).  ``--seed`` sets the order
    in which they are analyzed.  Fresh random structures per seed, or even
    relabeled copies of the same hosts, shift the per-instance times enough
    to move p50 by about 20% between seeds, more than its bound allows.
    """

    name = "analyze-r2"
    HOSTS_SEED = 0
    VERTICES = range(12, 18)
    EDGE_COUNTS = range(16, 31)

    def __init__(self, count: int = 100):
        self.count = count

    def hosts(self) -> list[tuple[int, list[tuple[int, int]]]]:
        rng = random.Random(self.HOSTS_SEED)
        out = []
        for i in range(self.count):
            n = self.VERTICES[i % len(self.VERTICES)]
            m = self.EDGE_COUNTS[(i // len(self.VERTICES)) % len(self.EDGE_COUNTS)]
            order = list(range(n))
            rng.shuffle(order)
            edges = set()
            for k in range(1, n):
                u, v = order[k], order[rng.randrange(k)]
                edges.add((min(u, v), max(u, v)))
            while len(edges) < m:
                u, v = sorted(rng.sample(range(n), 2))
                edges.add((u, v))
            out.append((n, sorted(edges)))
        return out

    def make_inputs(self, seed: int, work_dir: Path) -> list[Instance]:
        work_dir.mkdir(parents=True, exist_ok=True)
        out = []
        for i, (n, edges) in enumerate(self.hosts()):
            path = work_dir / f"host{i:03d}.txt"
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(f"{n} {len(edges)}\n")
                fh.writelines(f"{u} {v}\n" for u, v in edges)
            out.append(Instance(f"analyze host{i:03d} n={n} m={len(edges)}", "cmd_analyze",
                                (str(path), 2), {"ordering": "euler", "node_budget": MAX_NODES}))
        random.Random(seed).shuffle(out)
        return out

    def gate(self, instances, outcomes) -> list[Answer]:
        answers = []
        for k, (inst, out) in enumerate(zip(instances, outcomes)):
            ans = Answer(inst.label, k)
            if out.report is None:
                ans.failed, ans.reason = True, repr(out.error)
                answers.append(ans)
                continue
            res = out.report["results"]
            problems = [name for name, ok in res["audits"].items() if ok is not True]
            ans.certified = _all_certified(out.report)
            if res.get("chi") is not None:
                ans.binding = res["alternation_chi_lower"] == res["chi"]
            else:
                lb, ub = res["chi_interval"]
                if not lb <= ub:
                    problems.append(f"interval [{lb}, {ub}]")
            ans.failed = bool(problems)
            ans.certified = ans.certified and not ans.failed
            ans.reason = "audits failed: " + ", ".join(problems) if problems else ""
            answers.append(ans)
        return answers


def make_workload(name: str, smoke: bool = False):
    if name == "scan-n7-r3":
        return ScanWorkload(max_n=6 if smoke else 7)
    if name == "analyze-r2":
        return AnalyzeWorkload(count=4) if smoke else AnalyzeWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan-n7-r3", "analyze-r2")
