"""Command line surface: reproduction tables, one-stop analysis reports,
and the small-graph conjecture scanner.

Reports are versioned JSON with an exactness flag on every numeric claim
and a determinism hash over everything except timing.  Exit codes:
0 = all values certified, 2 = some values are sound intervals,
3 = a conjecture violation was found, 1 = usage or input errors, or a
budget refusal that leaves no sound interval to report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import hypergraphs
from .alternation import EdgeOrdering, alternation_chi_lower, ex_alt_salt
from .coloring import DSATUR_BUDGET, chromatic_number, coloring_from_extremal, export_dimacs
from .errors import CapacityError
from .graphs import (
    Graph,
    format_graph,
    make_complete_bipartite,
    make_cycle,
    read_graph,
)
from .matching import tutte_berge
from .orderings import euler_ordering, star_formula_conditions
from .smallgraphs import connected_graphs_up_to
from .turan import turan_matchings

SCHEMA = "matchgraph-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERVAL = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _graph_sha(g: Graph) -> str:
    return hashlib.sha256(format_graph(g).encode("ascii")).hexdigest()


# One C encoder for every report hash: its text is json.dumps(value, sort_keys=True).
_ENCODE = json.JSONEncoder(sort_keys=True).encode
# A list with more items than this is hashed one item at a time.
_LONG_LIST = 64


def _holds_long_list(value) -> bool:
    """Is value a long list, or a dict that holds one at some depth of dicts?
    Exact type tests keep this walk cheap; it only decides where to cut."""
    stack = [value]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is dict:
            stack.extend(value.values())
        elif (kind is list or kind is tuple) and len(value) > _LONG_LIST:
            return True
    return False


def _json_pieces(value):
    """Pieces whose concatenation is _ENCODE(value).  Only long lists and the
    dicts that hold them are cut, so a report without one is a single piece
    and a scan's JSON text is never held whole."""
    if isinstance(value, dict) and _holds_long_list(value):
        sep, run = "{", {}
        for key, item in sorted(value.items()):
            if _holds_long_list(item):
                if run:
                    yield sep + _ENCODE(run)[1:-1]
                    sep, run = ", ", {}
                yield sep + _ENCODE(key) + ": "
                yield from _json_pieces(item)
                sep = ", "
            else:
                run[key] = item
        if run:
            yield sep + _ENCODE(run)[1:-1]
        yield "}"
    elif isinstance(value, (list, tuple)) and len(value) > _LONG_LIST:
        sep = "["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = ", "
        yield "]"
    else:
        yield _ENCODE(value)


def _finish_report(report: dict, started: float) -> dict:
    body = {k: v for k, v in report.items() if k != "timing"}
    digest = hashlib.sha256()
    for piece in _json_pieces(body):
        digest.update(piece.encode("utf-8"))
    report["determinism_sha256"] = digest.hexdigest()
    report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report


def _exit_code(report: dict) -> int:
    flags = report.get("exactness", {})
    if report.get("results", {}).get("violations"):
        return EXIT_VIOLATION
    if any(flag != "certified" for flag in flags.values()):
        return EXIT_INTERVAL
    return EXIT_OK


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    payload = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if fmt == "json":
        print(payload)
    else:
        _print_table(report)


def _print_table(report: dict) -> None:
    print(f"command: {report['command']}")
    for key, value in sorted(report.get("inputs", {}).items()):
        print(f"  {key}: {_jsonable(value)}")
    print("results:")
    for key, value in report.get("results", {}).items():
        if key in ("records", "scan_records"):
            continue
        print(f"  {key}: {_jsonable(value)}")
    print("exactness:")
    for key, value in sorted(report.get("exactness", {}).items()):
        print(f"  {key}: {value}")


# ---------------------------------------------------------------------------
# Shared analysis pipeline.
# ---------------------------------------------------------------------------

def _resolve_ordering(g: Graph, choice: str) -> EdgeOrdering:
    if choice == "euler":
        return euler_ordering(g)
    if choice == "identity":
        return EdgeOrdering.identity(g.m)
    if choice.startswith("file:"):
        with open(choice[5:], "r", encoding="ascii") as fh:
            sigma = EdgeOrdering.from_line(fh.read())
        if len(sigma) != g.m:
            raise ValueError(f"ordering has {len(sigma)} entries, the graph has {g.m} edges")
        return sigma
    raise ValueError(f"unknown ordering choice {choice!r}")


def _solve(g: Graph, r: int, orderings: dict[str, EdgeOrdering], node_budget: int):
    """ex(g, rK2), KG(g, rK2), its chromatic certificate and the alternation
    bounds along each ordering, from one structure enumeration.  A truncated
    enumeration raises CapacityError before the Kneser graph is built."""
    ex_cert = turan_matchings(g, r)
    if ex_cert.ex_value == g.m:
        # No r-matching: KG(g, rK2) is empty, and nothing is enumerated.
        kg = hypergraphs.general_kneser(hypergraphs.Hypergraph(g.m, ()))
        return ex_cert, kg, chromatic_number(kg), 0, {}
    kg = hypergraphs.matching_graph(g, r)
    bounds = {}
    for name, sigma in orderings.items():
        ea, es = ex_alt_salt(g, sigma, ex_cert.masks)
        bounds[name] = {
            "ex_alt": ea, "ex_salt": es, "chi_lower": alternation_chi_lower(g.m, ea, es),
        }
    lb = max(detail["chi_lower"] for detail in bounds.values())
    cert = chromatic_number(
        kg,
        node_budget=node_budget,
        known_lower=lb,
        initial_coloring=coloring_from_extremal(kg.source, ex_cert.extremal_edges),
    )
    return ex_cert, kg, cert, lb, bounds


def _chi_fields(cert) -> tuple[dict, str]:
    if cert.exact:
        witness_kind, payload = cert.lower_witness
        return (
            {
                "chi": cert.chi,
                "lower_witness": {"kind": witness_kind, "value": _jsonable(payload)},
                "search_nodes": cert.nodes,
            },
            "certified",
        )
    return (
        {
            "chi": None,
            "chi_interval": list(cert.bounds),
            "search_nodes": cert.nodes,
        },
        "interval",
    )


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _family_report(
    command: str, inputs: dict, g: Graph, r: int, formula: int,
    node_budget: int, started: float, extra: dict | None = None,
) -> dict:
    """chi(KG(g, rK2)) under the Euler ordering versus a closed formula."""
    ex_cert, kg, cert, lb, bounds = _solve(g, r, {"euler": euler_ordering(g)}, node_budget)
    chi_fields, chi_flag = _chi_fields(cert)
    report = {
        "schema": SCHEMA,
        "command": command,
        "inputs": {**inputs, "graph_sha256": _graph_sha(g)},
        "results": {
            **chi_fields,
            "formula_value": formula,
            "agrees_with_formula": cert.exact and cert.chi == formula,
            **(extra or {}),
            "matching_graph_vertices": kg.n,
            "ex": ex_cert.ex_value,
            "euler_ordering_lower_bound": lb,
            "bounds_by_ordering": bounds,
        },
        "exactness": {"chi": chi_flag, "ex": "certified"},
    }
    return _finish_report(report, started)


def cmd_schrijver(n: int, r: int, node_budget: int = DSATUR_BUDGET) -> dict:
    """chi(KG(C_n, rK2)) versus the closed formula n - 2r + 2."""
    started = time.perf_counter()
    if n < 2 * r + 1:
        raise ValueError(f"need n >= 2r+1, got n={n}, r={r}")
    return _family_report(
        "schrijver", {"n": n, "r": r}, make_cycle(n), r, n - 2 * r + 2,
        node_budget, started,
    )


def cmd_permutation(m: int, n: int, r: int, node_budget: int = DSATUR_BUDGET) -> dict:
    """chi(KG(K_{m,n}, rK2)) versus the closed formula m(n - r + 1)."""
    started = time.perf_counter()
    if not (m >= n >= r >= 1):
        raise ValueError(f"need m >= n >= r >= 1, got ({m},{n},{r})")
    g = make_complete_bipartite(m, n)
    m_is_even = m % 2 == 0
    extra = {
        "m_is_even": m_is_even,
        "even_side_formula_certified": m_is_even and star_formula_conditions(g, r).applicable,
    }
    return _family_report(
        "permutation", {"m": m, "n": n, "r": r}, g, r, m * (n - r + 1),
        node_budget, started, extra,
    )


def cmd_analyze(
    path: str,
    r: int,
    ordering: str = "euler",
    node_budget: int = DSATUR_BUDGET,
) -> dict:
    """One-stop report for a graph file: matchings, Turan, chi, alternation."""
    started = time.perf_counter()
    g = read_graph(path)
    results: dict = {"n": g.n, "m": g.m}
    exactness: dict = {}

    witness = tutte_berge(g)
    results["nu"] = witness.nu
    results["tutte_berge"] = {
        "s": sorted(witness.s),
        "deficiency": witness.deficiency,
    }
    exactness["nu"] = "certified"

    sigma = _resolve_ordering(g, ordering)
    ex_cert, kg, cert, lb, bounds = _solve(g, r, {ordering: sigma}, node_budget)
    results["ex"] = ex_cert.ex_value
    results["extremal_edges"] = sorted(ex_cert.extremal_edges)
    results["ex_method"] = ex_cert.method
    exactness["ex"] = "certified"

    conditions = star_formula_conditions(g, r)
    connected = conditions.connected
    results["connected"] = connected
    if not connected:
        results["conjecture_applicable"] = False
        results["disconnected_note"] = (
            "the equality chi = |E| - ex can fail on disconnected graphs;"
            " |E| - 2 ex is also reported for comparison"
        )
        results["edges_minus_2ex"] = g.m - 2 * ex_cert.ex_value
    else:
        results["conjecture_applicable"] = True

    results["star_formula"] = {
        "applicable": conditions.applicable,
        "formula_value": conditions.formula_value,
        "odd_girth": _jsonable(conditions.odd_girth),
        "prefix_search": conditions.prefix_search,
    }

    results["ordering"] = {"choice": ordering, "perm": list(sigma.perm)}
    results["matching_graph_vertices"] = kg.n
    results["alternation_bounds"] = bounds
    results["alternation_chi_lower"] = lb
    chi_fields, chi_flag = _chi_fields(cert)
    results.update(chi_fields)
    exactness["chi"] = chi_flag

    audits = {}
    detail = bounds.get(ordering, {})
    if detail:
        audits["sandwich_ex_le_ex_alt_le_2ex"] = (
            ex_cert.ex_value <= detail["ex_alt"] <= 2 * ex_cert.ex_value
        )
    if cert.exact:
        audits["chi_le_edges_minus_ex"] = cert.chi <= g.m - ex_cert.ex_value
        audits["lower_le_chi"] = lb <= cert.chi
        audits["conjecture_equality"] = cert.chi == g.m - ex_cert.ex_value
        if connected and not audits["conjecture_equality"]:
            results["violations"] = [{"chi": cert.chi, "ex": ex_cert.ex_value, "m": g.m}]
    results["audits"] = audits

    report = {
        "schema": SCHEMA,
        "command": "analyze",
        "inputs": {"r": r, "graph_sha256": _graph_sha(g)},
        "results": results,
        "exactness": exactness,
    }
    return _finish_report(report, started)


# ---------------------------------------------------------------------------
# The conjecture scanner.
# ---------------------------------------------------------------------------

def _shared_key_dicts():
    """A maker of plain dicts that share one key table on CPython.

    Each dict is the attribute dict of a fresh object of a class of its own,
    and CPython keeps one key table for the attribute dicts of a class, so
    an eleven-key scan record takes about 160 bytes instead of 464.  Keys
    are set one at a time: dict.update would give the dict a table of its
    own.  Elsewhere the dicts are ordinary dicts.
    """
    class Holder:
        pass

    def make(**fields) -> dict:
        out = vars(Holder())
        for key, value in fields.items():
            out[key] = value
        return out

    return make


# A scan report holds one record per graph (996 at n <= 7).
_scan_record = _shared_key_dicts()
_scan_certificates = _shared_key_dicts()


def _scan_one(task) -> dict:
    n, edges, r, node_budget = task
    g = Graph(n, edges)
    orderings = {"euler": euler_ordering(g), "identity": EdgeOrdering.identity(g.m)}
    ex_cert, kg, cert, lb, _ = _solve(g, r, orderings, node_budget)
    # The graph's own edge pairs and one shared extremal list keep the report small.
    extremal = sorted(ex_cert.extremal_edges)
    record = _scan_record(
        n=n,
        edges=g.edges,
        r=r,
        ex=ex_cert.ex_value,
        extremal_edges=extremal,
        matching_graph_vertices=kg.n,
        alternation_chi_lower=lb,
        certified=cert.exact,
    )
    if cert.exact:
        record["chi"] = cert.chi
        record["equality"] = cert.chi == g.m - ex_cert.ex_value
        kind, payload = cert.lower_witness
        witness = {"kind": kind, "value": _jsonable(payload)}
    else:
        record["chi"] = None
        record["chi_interval"] = list(cert.bounds)
        record["equality"] = None
        witness = {"kind": "interval", "value": list(cert.bounds)}
    record["certificates"] = _scan_certificates(
        coloring=list(cert.coloring), extremal_edges=extremal, lower_witness=witness)
    return record


def cmd_scan(
    max_n: int,
    r: int,
    out_path: str | None = None,
    node_budget: int = DSATUR_BUDGET,
    jobs: int = 1,
) -> dict:
    """Scan all connected graphs on up to max_n vertices: does
    chi(KG(G, rK2)) equal |E(G)| - ex(G, rK2) on every one of them?"""
    started = time.perf_counter()
    if not 1 <= max_n <= 7:
        raise ValueError(f"scan needs 1 <= max_n <= 7, got {max_n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (g.n, g.edges, r, node_budget) for g in connected_graphs_up_to(max_n)
    ]
    if jobs > 1:
        # Imported here: a one-process scan or analyze never pays for it.
        from multiprocessing import Pool

        with Pool(min(jobs, os.cpu_count() or 1)) as pool:
            records = pool.map(_scan_one, tasks)
    else:
        records = [_scan_one(t) for t in tasks]

    # Many graphs share a coloring, a lower-bound witness or an extremal set;
    # each distinct one is kept once, since the report holds every record.
    distinct: dict[str, object] = {}
    for rec in records:
        certs = rec["certificates"]
        for key in ("coloring", "lower_witness", "extremal_edges"):
            certs[key] = distinct.setdefault(repr(certs[key]), certs[key])
        rec["extremal_edges"] = certs["extremal_edges"]

    violations = [rec for rec in records if rec["equality"] is False]
    capacity_failures = [rec for rec in records if not rec["certified"]]
    per_size: dict[int, int] = {}
    for rec in records:
        per_size[rec["n"]] = per_size.get(rec["n"], 0) + 1

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")

    report = {
        "schema": SCHEMA,
        "command": "scan",
        "inputs": {"max_n": max_n, "r": r},
        "results": {
            "graphs_scanned": len(records),
            "graphs_by_vertex_count": {str(k): v for k, v in sorted(per_size.items())},
            "violations": [
                {"n": rec["n"], "edges": rec["edges"], "chi": rec["chi"], "ex": rec["ex"]}
                for rec in violations
            ],
            "capacity_failures": [
                {"n": rec["n"], "edges": rec["edges"], "chi_interval": rec.get("chi_interval")}
                for rec in capacity_failures
            ],
            "records": records if not out_path else f"written to {out_path}",
        },
        "exactness": {
            "scan": "certified" if not capacity_failures else "interval",
        },
    }
    return _finish_report(report, started)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgraph",
        description="Chromatic numbers of matching graphs, with certificates.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table"], default="json")
    common.add_argument("--out", default=None, metavar="PATH")
    common.add_argument("--max-nodes", type=int, default=DSATUR_BUDGET)

    p = sub.add_parser("schrijver", parents=[common], help="chi of KG(C_n, rK2) vs n-2r+2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("permutation", parents=[common],
                       help="chi of KG(K_{m,n}, rK2) vs m(n-r+1)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("scan", parents=[common],
                       help="conjecture scan over small connected graphs")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("analyze", parents=[common], help="full report for a graph file")
    p.add_argument("path", metavar="GRAPHFILE")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ordering", default="euler",
                   help="euler | identity | file:PATH")

    p = sub.add_parser("dimacs", help="export a graph file as DIMACS .col")
    p.add_argument("path", metavar="GRAPHFILE")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_nodes", 0) < 0:
            raise ValueError(f"--max-nodes must be at least 0, got {args.max_nodes}")
        if args.cmd == "schrijver":
            report = cmd_schrijver(args.n, args.r, node_budget=args.max_nodes)
        elif args.cmd == "permutation":
            report = cmd_permutation(args.m, args.n, args.r, node_budget=args.max_nodes)
        elif args.cmd == "scan":
            report = cmd_scan(
                args.max_n, args.r, out_path=args.out,
                node_budget=args.max_nodes, jobs=args.jobs,
            )
        elif args.cmd == "analyze":
            report = cmd_analyze(
                args.path, args.r, ordering=args.ordering, node_budget=args.max_nodes
            )
        elif args.cmd == "dimacs":
            print(export_dimacs(read_graph(args.path)), end="")
            return EXIT_OK
        else:  # pragma: no cover
            parser.error("unknown command")
        # scan has already written its records to --out, one JSON line each.
        _emit(report, args.format, None if args.cmd == "scan" else args.out)
    except (ValueError, OSError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
