import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
import traceback

import pytest

import matchgraph.cli
from matchgraph import (
    Graph,
    chromatic_number,
    format_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    make_path,
)
from matchgraph.cli import (
    EXIT_INTERVAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    cmd_analyze,
    cmd_permutation,
    cmd_schrijver,
    cmd_scan,
    main,
)


def test_cmd_schrijver_values():
    report = cmd_schrijver(5, 2)
    assert report["results"]["chi"] == 3
    assert report["results"]["formula_value"] == 3
    assert report["results"]["agrees_with_formula"]
    assert report["exactness"]["chi"] == "certified"

    report = cmd_schrijver(7, 3)
    assert report["results"]["chi"] == 3
    assert report["results"]["matching_graph_vertices"] == 7


def test_family_reports_pinned():
    # determinism hashes of the Schrijver and permutation reports as first published
    assert cmd_schrijver(7, 2)["determinism_sha256"] == (
        "5a9ee8f34d00d194cc19ca129bf6f81d00d51c2e49746f1b89fb938aab2753bb"
    )
    assert cmd_permutation(4, 3, 2)["determinism_sha256"] == (
        "11a8523db314cc1d1482533057553f912dcf894384f6b774e7a83395fd59535e"
    )


def test_cmd_schrijver_precondition():
    with pytest.raises(ValueError):
        cmd_schrijver(4, 2)


def test_cmd_permutation_values():
    report = cmd_permutation(2, 2, 2)
    assert report["results"]["chi"] == 2

    report = cmd_permutation(4, 2, 2)
    assert report["results"]["chi"] == 4
    assert report["results"]["m_is_even"]
    assert report["results"]["even_side_formula_certified"]

    with pytest.raises(ValueError):
        cmd_permutation(2, 3, 2)


def test_determinism_hash_stable():
    a = cmd_schrijver(6, 2)
    b = cmd_schrijver(6, 2)
    assert a["determinism_sha256"] == b["determinism_sha256"]
    assert a["results"] == b["results"]


def _plain_sha(report: dict) -> str:
    body = {k: v for k, v in report.items() if k not in ("timing", "determinism_sha256")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def test_determinism_hash_is_sha_of_sorted_json(tmp_path):
    # the hash is the sha256 of json.dumps(body, sort_keys=True), however the
    # encoder cuts its text; cmd_scan(6, 2) holds a list long enough to cut
    path = tmp_path / "k43.txt"
    path.write_text(format_graph(make_complete_bipartite(4, 3)), encoding="ascii")
    reports = [cmd_scan(5, 2), cmd_scan(6, 2), cmd_analyze(str(path), 2), cmd_schrijver(9, 3)]
    for report in reports:
        assert report["determinism_sha256"] == _plain_sha(report)
    records = reports[1]["results"]["records"]
    assert len(records) > matchgraph.cli._LONG_LIST >= len(reports[0]["results"]["records"])


def test_json_pieces_cut_only_around_long_lists():
    long = matchgraph.cli._LONG_LIST + 1
    value = {
        "b": {"deep": [{"x": (i, "\u00e9")} for i in range(long)], "a": [1.5, None]},
        "a": list(range(long)),
        "c": {"k": [True] * 3},
        "d": float("inf"),
    }
    pieces = list(matchgraph.cli._json_pieces(value))
    text = "".join(pieces)
    assert text == json.dumps(value, sort_keys=True)
    assert max(map(len, pieces)) < len(text) / 20  # no piece holds a long list whole
    short = {"a": list(range(long - 1)), "b": {"c": (1, 2)}}
    assert list(matchgraph.cli._json_pieces(short)) == [json.dumps(short, sort_keys=True)]


def test_cmd_scan_small():
    report = cmd_scan(4, 2)
    results = report["results"]
    assert results["graphs_scanned"] == 10
    assert results["graphs_by_vertex_count"] == {"1": 1, "2": 1, "3": 2, "4": 6}
    assert results["violations"] == []
    assert results["capacity_failures"] == []
    # ScanRecord invariants
    for rec in results["records"]:
        assert rec["certified"]
        assert rec["equality"] == (rec["chi"] == len(rec["edges"]) - rec["ex"])
        assert rec["certificates"]["lower_witness"]["kind"] in (
            "clique", "external", "exhausted", "empty",
        )


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="key-sharing dicts are a CPython layout")
def test_cmd_scan_records_share_key_tables():
    keys = ["n", "edges", "r", "ex", "extremal_edges", "matching_graph_vertices",
            "alternation_chi_lower", "certified", "chi", "equality", "certificates"]
    for rec in cmd_scan(5, 2)["results"]["records"]:
        assert type(rec) is dict and list(rec) == keys
        assert sys.getsizeof(rec) < sys.getsizeof(dict(rec.items()))
        certs = rec["certificates"]
        assert list(certs) == ["coloring", "extremal_edges", "lower_witness"]
        assert sys.getsizeof(certs) < sys.getsizeof(dict(certs.items()))


def test_cmd_scan_n7_r3_pinned():
    # 27 connected 7-vertex graphs where chi = |E| - ex - 1 at r = 3
    report = cmd_scan(7, 3)
    results = report["results"]
    assert report["determinism_sha256"] == (
        "d4510285579f7a67a0d76322b43e87017e9191fb2999b4b34d0b8280785dac3c"
    )
    assert list(results["graphs_by_vertex_count"].values()) == [1, 1, 2, 6, 21, 112, 853]
    assert len(results["violations"]) == 27
    assert all(v["n"] == 7 for v in results["violations"])
    assert results["capacity_failures"] == []


def test_cli_import_leaves_numpy_out():
    # in a fresh interpreter: the test process itself has numpy via networkx
    code = "import sys, matchgraph.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(matchgraph.cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_multiprocessing_out():
    # in a fresh interpreter: cmd_scan imports it only for jobs > 1
    code = "import sys, matchgraph.cli; print('multiprocessing' in sys.modules)"
    src = os.path.dirname(os.path.dirname(matchgraph.cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_cmd_scan_pool_bounded_by_cpu_count(monkeypatch):
    requested = []

    class RecordingPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    report = cmd_scan(3, 2, jobs=10_000)
    assert requested == [min(10_000, os.cpu_count() or 1)]
    assert report["results"]["graphs_scanned"] == 4


def test_cmd_scan_rejects_nonpositive_jobs(capsys):
    with pytest.raises(ValueError):
        cmd_scan(3, 2, jobs=0)
    assert main(["scan", "--max-n", "3", "--jobs", "0"]) == EXIT_USAGE
    assert "jobs" in capsys.readouterr().err


def test_cmd_scan_rejects_max_n_below_one(capsys):
    for max_n in (0, -1):
        with pytest.raises(ValueError):
            cmd_scan(max_n, 2)
        assert main(["scan", "--max-n", str(max_n), "--r", "2"]) == EXIT_USAGE
        assert "max_n" in capsys.readouterr().err


def test_negative_max_nodes_rejected(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text(format_graph(make_cycle(5)), encoding="ascii")
    for argv in (
        ["schrijver", "--n", "5", "--r", "2"],
        ["permutation", "--m", "2", "--n", "2", "--r", "2"],
        ["scan", "--max-n", "3"],
        ["analyze", str(path), "--r", "2"],
    ):
        assert main(argv + ["--max-nodes", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--max-nodes" in captured.err and captured.out == ""
        # a zero budget still runs and reports
        assert main(argv + ["--max-nodes", "0"]) in (EXIT_OK, EXIT_INTERVAL)
        capsys.readouterr()


def test_cmd_scan_writes_jsonl(tmp_path):
    out = tmp_path / "records.jsonl"
    report = cmd_scan(3, 2, out_path=str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == report["results"]["graphs_scanned"] == 4
    parsed = [json.loads(line) for line in lines]
    assert all("chi" in rec and "ex" in rec for rec in parsed)


def test_cmd_scan_rejects_large_n():
    with pytest.raises(ValueError):
        cmd_scan(9, 2)


def test_cmd_analyze_full_pipeline(tmp_path):
    path = tmp_path / "k43.txt"
    path.write_text(format_graph(make_complete_bipartite(4, 3)), encoding="ascii")
    report = cmd_analyze(str(path), 2, ordering="euler")
    res = report["results"]
    assert res["nu"] == 3
    assert res["ex"] == 4
    assert res["chi"] == 8
    assert res["alternation_chi_lower"] == 8
    assert res["audits"]["conjecture_equality"]
    assert res["audits"]["sandwich_ex_le_ex_alt_le_2ex"]
    assert report["exactness"]["chi"] == "certified"


def test_cmd_analyze_certifies_nu_above_20_vertices(tmp_path):
    path = tmp_path / "c25.txt"
    path.write_text(format_graph(make_cycle(25)), encoding="ascii")
    report = cmd_analyze(str(path), 2)
    assert report["results"]["nu"] == 12
    assert report["results"]["tutte_berge"] == {"s": [], "deficiency": 1}
    assert report["exactness"]["nu"] == "certified"


def test_main_capacity_error_exits_cleanly(tmp_path, capsys, monkeypatch):
    # five nodes cannot enumerate the Turan structures of K_7 at r = 3, and
    # the pipeline refuses a truncated enumeration before building KG(G, rK2)
    import matchgraph.hypergraphs as hypergraphs

    monkeypatch.setattr(matchgraph.turan, "NODE_BUDGET", 5)
    built = []
    monkeypatch.setattr(hypergraphs, "general_kneser", built.append)
    path = tmp_path / "k7.txt"
    path.write_text(format_graph(make_complete(7)), encoding="ascii")
    assert main(["analyze", str(path), "--r", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "node budget" in captured.err
    assert built == []


def test_main_unwritable_out_exits_cleanly(tmp_path, capsys):
    # --out names a directory, so writing the report fails after the solve
    path = tmp_path / "c5.txt"
    path.write_text(format_graph(make_cycle(5)), encoding="ascii")
    for argv in (
        ["schrijver", "--n", "5", "--r", "2"],
        ["permutation", "--m", "3", "--n", "3", "--r", "2"],
        ["analyze", str(path), "--r", "1"],
        ["scan", "--max-n", "3", "--r", "1"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), argv


def test_cmd_analyze_beyond_thirty_edges(tmp_path):
    # K_{8,4}: 32 edges, Eulerian; chi = m(n - r + 1) = 24
    path = tmp_path / "k84.txt"
    path.write_text(format_graph(make_complete_bipartite(8, 4)), encoding="ascii")
    report = cmd_analyze(str(path), 2, node_budget=2000)
    res = report["results"]
    assert res["m"] == 32
    assert res["ex"] == 8 and res["ex_method"] == "structure"
    assert res["chi"] == 24
    assert report["exactness"] == {"nu": "certified", "ex": "certified", "chi": "certified"}
    assert res["audits"] and all(res["audits"].values())


def test_spider_finding_pinned(tmp_path):
    # the spider S(2,2,2) at r = 3: chi = 1 while |E| - ex = 2
    path = tmp_path / "spider.txt"
    path.write_text("7 6\n0 3\n0 6\n1 3\n1 5\n2 3\n2 4\n", encoding="ascii")
    report = cmd_analyze(str(path), 3)
    res = report["results"]
    assert (res["chi"], res["ex"]) == (1, 4)
    assert report["exactness"]["chi"] == report["exactness"]["ex"] == "certified"
    assert res["violations"] == [{"chi": 1, "ex": 4, "m": 6}]
    assert main(["analyze", str(path), "--r", "3"]) == EXIT_VIOLATION


def test_cmd_analyze_identity_ordering(tmp_path):
    path = tmp_path / "c5.txt"
    from matchgraph import make_cycle

    path.write_text(format_graph(make_cycle(5)), encoding="ascii")
    report = cmd_analyze(str(path), 2, ordering="identity")
    assert report["results"]["chi"] == 3


def test_cmd_analyze_disconnected_flag(tmp_path):
    path = tmp_path / "m4.txt"
    path.write_text(format_graph(make_disjoint_matching(4)), encoding="ascii")
    report = cmd_analyze(str(path), 2)
    res = report["results"]
    assert res["connected"] is False
    assert res["conjecture_applicable"] is False
    assert res["edges_minus_2ex"] == 2
    assert res["chi"] == 2  # the known equality chi = |E| - 2 ex for nK2


def test_cmd_analyze_star_prefix_search_is_budgeted(tmp_path):
    # 20K2 has no independent 21-vertex prefix; the unbudgeted tied-class
    # search took about 14 s to refute one, the budgeted one gives up and
    # says so, apart from a prefix found (C7) or refuted (C5 has no three
    # independent vertices)
    path = tmp_path / "m20.txt"
    path.write_text(format_graph(make_disjoint_matching(20)), encoding="ascii")
    started = time.perf_counter()
    report = cmd_analyze(str(path), 22)
    assert time.perf_counter() - started < 2
    star = report["results"]["star_formula"]
    assert (star["applicable"], star["prefix_search"]) == (False, "budget")
    assert report["exactness"]["chi"] == "certified"
    for g, r, outcome in ((make_cycle(7), 3, "found"), (make_cycle(5), 4, "none")):
        path.write_text(format_graph(g), encoding="ascii")
        assert cmd_analyze(str(path), r)["results"]["star_formula"]["prefix_search"] == outcome


def test_cmd_analyze_empty_matching_graph(tmp_path):
    # K_{1,4} has no 2-matching: KG(G, 2K2) has no vertex, chi = 0
    path = tmp_path / "k14.txt"
    path.write_text(format_graph(make_complete_bipartite(1, 4)), encoding="ascii")
    res = cmd_analyze(str(path), 2)["results"]
    assert (res["chi"], res["lower_witness"]["kind"], res["alternation_chi_lower"]) == (
        0, "empty", 0,
    )


def test_cmd_analyze_euler_with_isolated_vertex_and_odd_degrees(tmp_path, capsys):
    # an isolated vertex, a claw (three odd-degree leaves and an odd center)
    # and a triangle: the Euler ordering tours each component on its own
    path = tmp_path / "mixed.txt"
    path.write_text("8 6\n1 2\n1 3\n1 4\n5 6\n5 7\n6 7\n", encoding="ascii")
    res = cmd_analyze(str(path), 2, ordering="euler")["results"]
    assert res["connected"] is False
    assert res["ordering"] == {"choice": "euler", "perm": [0, 1, 2, 4, 3, 5]}
    assert (res["ex"], res["chi"], res["alternation_chi_lower"]) == (3, 3, 3)
    assert main(["analyze", str(path), "--r", "3", "--ordering", "euler"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["chi"] == 0


def test_one_kneser_build_per_instance(tmp_path, monkeypatch):
    # one Kneser build and one structure enumeration per graph; the package
    # reaches the enumeration only through turan's module binding
    import matchgraph.hypergraphs as hypergraphs
    import matchgraph.turan as turan

    built, enumerated = [], []
    real = hypergraphs.general_kneser
    monkeypatch.setattr(hypergraphs, "general_kneser", lambda h: built.append(h) or real(h))
    real_masks = turan.maximal_free_masks
    monkeypatch.setattr(turan, "maximal_free_masks",
                        lambda g, *args: enumerated.append(g) or real_masks(g, *args))
    path = tmp_path / "k43.txt"
    path.write_text(format_graph(make_complete_bipartite(4, 3)), encoding="ascii")
    assert cmd_analyze(str(path), 2)["results"]["chi"] == 8
    assert len(built) == len(enumerated) == 1
    built.clear()
    enumerated.clear()
    report = cmd_scan(5, 2)
    assert len(built) == len(enumerated) == report["results"]["graphs_scanned"] == 31


def test_cli_never_builds_kneser_edge_view(tmp_path, monkeypatch):
    # no edge pairs and no Graph of Kneser vertices may be built on a CLI
    # path; the neighbour masks are built only for the clique and DSATUR
    # searches, so not when the alternation bound meets the start coloring
    import matchgraph.hypergraphs as hypergraphs

    built, edge_graphs, searched = [], [], []
    real = hypergraphs.general_kneser
    monkeypatch.setattr(hypergraphs, "general_kneser",
                        lambda h: built.append(real(h)) or built[-1])
    monkeypatch.setattr(hypergraphs, "Graph", lambda *args: edge_graphs.append(args))
    real_chi = matchgraph.cli.chromatic_number

    def recording_chi(kg, *args, **kwargs):
        cert = real_chi(kg, *args, **kwargs)
        if cert.nodes:
            searched.append(kg)
        return cert

    monkeypatch.setattr(matchgraph.cli, "chromatic_number", recording_chi)
    path = tmp_path / "k43.txt"
    path.write_text(format_graph(make_complete_bipartite(4, 3)), encoding="ascii")
    assert cmd_analyze(str(path), 2)["results"]["chi"] == 8
    assert "adj_masks" not in vars(built[-1])
    # N = 12,397: its adjacency would take about 19 MB
    assert cmd_schrijver(28, 4)["results"]["matching_graph_vertices"] == 12397
    assert "adj_masks" not in vars(built[-1])
    assert cmd_scan(5, 2)["results"]["graphs_scanned"] == 31
    assert len(built) == 33
    assert searched and all("adj_masks" in vars(kg) for kg in searched)
    assert edge_graphs == []
    assert not any("graph" in vars(kg) for kg in built)


def test_certifying_by_the_bound_leaves_recursion_limit_alone(monkeypatch):
    # nothing touches the interpreter's recursion limit, a process-wide
    # setting; SG(9, 3) certifies from the alternation bound with no search,
    # and DSATUR walks an explicit stack, so a search 300 vertices deep runs
    # with 100 frames of headroom
    real_limit, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    report = cmd_schrijver(9, 3)
    assert (report["results"]["chi"], report["results"]["search_nodes"]) == (5, 0)
    set_limit(len(traceback.extract_stack()) + 100)
    try:
        cert = chromatic_number(make_path(300))
    finally:
        set_limit(real_limit)
    assert (cert.chi, cert.lower_witness[0], cert.nodes) == (2, "clique", 301)
    assert calls == []


@pytest.mark.parametrize(
    "host, r, code",
    [
        (make_path(3000), 1000, EXIT_USAGE),
        (make_cycle(1200), 550, EXIT_USAGE),
        # the chord (0, 2) makes P_2001 non-bipartite, so odd_girth runs its
        # per-root search; the plain path is answered by one BFS
        (Graph(2001, ((0, 2),) + make_path(2001).edges), 1001, EXIT_OK),
        (make_path(2001), 1001, EXIT_OK),
    ],
    ids=["path3000-r1000", "cycle1200-r550", "chorded-path2001-r1001", "path2001-r1001"],
)
def test_cmd_analyze_deep_inputs_exit_cleanly(tmp_path, capsys, host, r, code):
    # these once ended in a RecursionError: the first two in the structure
    # part search, now refused up front since the vertex sets S of at most
    # r - 1 vertices alone outnumber its budget; the third in the r-matching
    # enumeration, now skipped since ex = |E| leaves KG(G, rK2) empty
    path = tmp_path / "host.txt"
    path.write_text(format_graph(host), encoding="ascii")
    assert main(["analyze", str(path), "--r", str(r)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == EXIT_OK:
        res = json.loads(out)["results"]
        assert (res["chi"], res["lower_witness"]["kind"], res["matching_graph_vertices"]) == (
            0, "empty", 0,
        )
    else:
        assert err == (
            f"error: structure enumeration for ex(G, {r}K2) exceeded its node budget"
            f" of {matchgraph.turan.NODE_BUDGET}\n"
        )


def test_cmd_analyze_long_independent_prefix_exits_cleanly(tmp_path, capsys):
    # the top-degree prefix of an edgeless host with 1200 vertices at
    # r = 1100 places 1099 tied vertices, deeper than Python's recursion limit
    path = tmp_path / "empty1200.txt"
    path.write_text(format_graph(Graph(1200, ())), encoding="ascii")
    assert main(["analyze", str(path), "--r", "1100"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["star_formula"]["prefix_search"] == "found"
    assert (res["chi"], res["lower_witness"]["kind"]) == (0, "empty")


def test_cmd_analyze_hash_ignores_path_spelling(tmp_path, monkeypatch):
    # the graph_sha256 input identifies the graph; the path that named it is not hashed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.txt").write_text(format_graph(make_cycle(7)), encoding="ascii")
    relative = cmd_analyze("./x.txt", 2)
    absolute = cmd_analyze(str(tmp_path / "x.txt"), 2)
    assert relative["determinism_sha256"] == absolute["determinism_sha256"]


def test_cmd_analyze_search_path_pinned(tmp_path):
    # host030 of the analyze-r2 benchmark: KG(G, 2K2) has 150 vertices and
    # DSATUR stops at its node budget with the interval [15, 16].
    path = tmp_path / "host030.txt"
    path.write_text(
        "12 21\n0 1\n0 3\n0 6\n0 11\n1 7\n2 6\n2 8\n2 10\n3 7\n3 8\n4 5\n"
        "4 6\n4 8\n5 6\n5 10\n5 11\n7 8\n7 10\n7 11\n9 11\n10 11\n",
        encoding="ascii",
    )
    report = cmd_analyze(str(path), 2, ordering="euler", node_budget=2000)
    res = report["results"]
    assert (res["n"], res["m"], res["matching_graph_vertices"]) == (12, 21, 150)
    assert res["chi_interval"] == [15, 16] and res["search_nodes"] == 2001
    assert report["determinism_sha256"] == (
        "b8af91c6a157a35f4c005c6c6dccb3bc626df03f7c7f0182e7cff6a0d9074b5e"
    )


def test_cmd_analyze_random_hosts_pinned(tmp_path):
    # Twelve seeded random connected hosts shaped like the analyze-r2
    # benchmark's (12-17 vertices, 16-30 edges, node budget 2000); one sha
    # over their determinism hashes.
    rng = random.Random(2024)
    hashes = []
    for i in range(12):
        n = rng.randint(12, 17)
        m = rng.randint(16, 30)
        order = list(range(n))
        rng.shuffle(order)
        edges = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, n)}
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        path = tmp_path / f"host{i:02d}.txt"
        path.write_text(
            f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)), encoding="ascii"
        )
        report = cmd_analyze(str(path), 2, ordering="euler", node_budget=2000)
        hashes.append(report["determinism_sha256"])
    assert hashlib.sha256("".join(hashes).encode()).hexdigest() == (
        "7b2264a5636797756c2de7a83088797c38f7819f972835ee564f563246d8df0d"
    )


def test_main_exit_codes(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    from matchgraph import make_cycle

    path.write_text(format_graph(make_cycle(5)), encoding="ascii")
    assert main(["analyze", str(path), "--r", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["chi"] == 3

    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n3 x\n", encoding="ascii")
    assert main(["analyze", str(bad), "--r", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err

    assert main(["schrijver", "--n", "4", "--r", "2"]) == EXIT_USAGE


def test_main_table_format(capsys):
    assert main(["schrijver", "--n", "5", "--r", "2", "--format", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "formula_value: 3" in out


def test_main_dimacs(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    from matchgraph import make_cycle

    path.write_text(format_graph(make_cycle(3)), encoding="ascii")
    assert main(["dimacs", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_cmd_scan_worker_pool_matches_sequential():
    sequential = cmd_scan(4, 2)
    pooled = cmd_scan(4, 2, jobs=2)
    assert pooled["results"]["records"] == sequential["results"]["records"]


def test_interval_exit_code(tmp_path, capsys):
    # K6 with a 1-node budget: the alternation bound (9) leaves a gap to
    # chi = 10, so the solver must report an interval; exit code 2
    from matchgraph import make_complete

    path = tmp_path / "k6.txt"
    path.write_text(format_graph(make_complete(6)), encoding="ascii")
    code = main(["analyze", str(path), "--r", "2", "--max-nodes", "1"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["exactness"]["chi"] == "interval"
    lo, hi = out["results"]["chi_interval"]
    assert lo <= 10 <= hi


def test_ordering_from_file(tmp_path):
    from matchgraph import make_cycle

    gpath = tmp_path / "c5.txt"
    gpath.write_text(format_graph(make_cycle(5)), encoding="ascii")
    opath = tmp_path / "ordering.txt"
    opath.write_text("4 0 1 2 3\n", encoding="ascii")
    report = cmd_analyze(str(gpath), 2, ordering=f"file:{opath}")
    assert report["results"]["ordering"]["perm"] == [4, 0, 1, 2, 3]
    assert report["results"]["chi"] == 3


def test_ordering_file_of_wrong_length_is_rejected(tmp_path, capsys):
    # P3 at r = 2 has an empty matching graph, so no later stage would see
    # the ordering's length
    gpath = tmp_path / "p3.txt"
    gpath.write_text("3 2\n0 1\n1 2\n", encoding="ascii")
    opath = tmp_path / "ordering.txt"
    opath.write_text("0 1 2\n", encoding="ascii")
    code = main(["analyze", str(gpath), "--r", "2", "--ordering", f"file:{opath}"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 entries" in err


def _fuzz_graph_text(rng: random.Random) -> bytes:
    """A small graph file: well formed, or broken in one of several ways."""
    kind = rng.choice(("random", "random", "edgeless", "path", "broken", "bytes"))
    if kind == "edgeless":
        return f"{rng.randint(0, 12)} 0\n".encode()
    if kind == "path":
        return format_graph(make_path(rng.randint(1, 30))).encode()
    n = rng.randint(1, 8)
    edges = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 12))}
                   if n > 1 else ())
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    if kind == "broken":
        at = rng.randrange(len(lines) + 1)
        lines.insert(at, rng.choice((
            "1 2 3", "a b", "0 0", "-1 2", "5", "", "# note", "1\t2", "2 1", " 3 4",
            "0 99", "1.5 2", "99999999999999999999 1",
        )))
    text = "\n".join(lines) + rng.choice(("\n", "", "\r\n"))
    data = text.encode()
    if kind == "bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice((b"\xe9", b"\xff\xfe", "\u00e9".encode(), b"\x00")) + data[at:]
    return data


def test_cli_fuzz_never_raises(tmp_path, capsys):
    # seeded random graph files and flags through main: every run ends in a
    # documented exit code, and no exception escapes
    rng = random.Random(5)
    path = tmp_path / "fuzz.txt"
    codes = []
    for _ in range(400):
        data = _fuzz_graph_text(rng)
        path.write_bytes(data)
        first = data.split(b"\n", 1)[0].split(b" ")
        n = int(first[0]) if first[0].isdigit() and len(first[0]) < 4 else 8
        args = ["analyze", str(path), "--r", str(rng.randint(0, n + 2))]
        if rng.random() < 0.7:
            args += ["--max-nodes", str(rng.choice((0, 1, 5, 50)))]
        if rng.random() < 0.3:
            args += ["--ordering", "identity"]
        if rng.random() < 0.3:
            args += ["--format", "table"]
        if rng.random() < 0.1:
            args = ["dimacs", str(path)]
        code = main(args)
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INTERVAL, EXIT_VIOLATION), args
        assert "Traceback" not in err
        assert (code == EXIT_USAGE) == err.startswith("error: "), (args, err)
        codes.append(code)
    assert {EXIT_OK, EXIT_USAGE, EXIT_INTERVAL} <= set(codes)
