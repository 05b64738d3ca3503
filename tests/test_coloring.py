import random

import pytest

from matchgraph import (
    CertificateError,
    Graph,
    Hypergraph,
    chromatic_number,
    coloring,
    coloring_from_extremal,
    export_dimacs,
    format_graph,
    general_kneser,
    greedy_clique,
    is_proper,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    matching_graph,
    matching_hypergraph,
    turan_matchings,
)
from matchgraph.cli import cmd_analyze

from tests.oracles import (
    chromatic_by_backtracking,
    greedy_clique_by_scan,
    greedy_dsatur,
    proper_by_edges,
    random_connected_graph,
    random_graph,
    random_hypergraph,
)


def test_chromatic_examples():
    assert chromatic_number(make_cycle(5)).chi == 3
    assert chromatic_number(matching_graph(make_cycle(7), 2)).chi == 5
    assert chromatic_number(matching_graph(make_disjoint_matching(4), 2)).chi == 2
    assert chromatic_number(Graph(0, ())).chi == 0
    assert chromatic_number(Graph(3, ())).chi == 1


def test_contradicted_known_lower_is_rejected():
    c5 = make_cycle(5)
    with pytest.raises(CertificateError):  # greedy 3-coloring
        chromatic_number(c5, known_lower=4)
    with pytest.raises(CertificateError):  # supplied 3-coloring
        chromatic_number(c5, known_lower=4, initial_coloring=(0, 1, 0, 1, 2))
    with pytest.raises(CertificateError):  # 5-coloring supplied, search finds 3
        chromatic_number(c5, known_lower=4, initial_coloring=tuple(range(5)))
    assert chromatic_number(c5, known_lower=3).chi == 3


def test_certificate_contents():
    cert = chromatic_number(make_complete(4))
    assert cert.chi == 4 and cert.exact
    assert cert.lower_witness[0] == "clique" and len(cert.lower_witness[1]) == 4
    assert is_proper(make_complete(4), cert.coloring)
    # colors are canonical: first occurrences are 0, 1, 2, ...
    seen = []
    for c in cert.coloring:
        if c not in seen:
            seen.append(c)
    assert seen == sorted(seen)


def test_solver_agrees_with_backtracking_oracle():
    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        cert = chromatic_number(g)
        assert cert.exact
        assert cert.chi == chromatic_by_backtracking(g)
        assert is_proper(g, cert.coloring)
        assert len(set(cert.coloring)) == cert.chi


def test_solver_budget_interval_is_sound():
    g = matching_graph(make_complete(6), 2).graph
    cert = chromatic_number(g, node_budget=3)
    assert not cert.exact and cert.chi is None
    full = chromatic_number(g)
    assert full.exact
    assert cert.bounds[0] <= full.chi <= cert.bounds[1]


def test_solver_value_deterministic():
    g = matching_graph(make_complete_bipartite(3, 3), 2).graph
    a = chromatic_number(g)
    b = chromatic_number(g)
    assert a.chi == b.chi == chromatic_by_backtracking(g)


def test_search_starts_with_greedy_dsatur():
    # the search's first descent is the greedy DSATUR colouring, and a budget
    # of n + 1 nodes (one per vertex and the leaf) allows no other
    rng = random.Random(67)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        cert = chromatic_number(g, node_budget=g.n + 1)
        assert cert.bounds[1] == len(set(greedy_dsatur(g)))
        assert is_proper(g, cert.coloring) and len(set(cert.coloring)) == cert.bounds[1]


def test_known_lower_short_circuits():
    k64 = make_complete_bipartite(6, 4)
    g = matching_graph(k64, 2)
    star = {i for i, edge in enumerate(k64.edges) if 6 in edge}  # the 6 edges at vertex 6
    init = coloring_from_extremal(g.source, star)
    cert = chromatic_number(g, known_lower=18, initial_coloring=init)
    assert cert.chi == 18 and cert.exact and cert.nodes == 0
    assert cert.lower_witness == ("external", "alternation bound")


def test_is_proper():
    assert is_proper(make_cycle(4), (0, 1, 0, 1))
    assert not is_proper(make_complete(3), (0, 1, 0))
    assert is_proper(Graph(3, ()), (0, 0, 0))
    with pytest.raises(ValueError):
        is_proper(make_cycle(4), (0, 1, 0))


def test_greedy_clique_is_clique():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        clique = greedy_clique(g, g.n)
        assert all(
            (u, v) in g.edge_index for i, u in enumerate(clique) for v in clique[i + 1:]
        )


def test_greedy_clique_matches_scan_oracle():
    rng = random.Random(31)
    graphs = [Graph(0, ()), Graph(1, ()), Graph(4, ())]
    graphs += [random_graph(rng, rng.randint(1, 24), rng.random()) for _ in range(200)]
    hosts = [make_cycle(7), make_complete(6), make_complete_bipartite(4, 3)]
    hosts += [random_graph(rng, rng.randint(4, 8), 0.5) for _ in range(30)]
    for host in hosts:
        for r in (1, 2, 3):
            kg = matching_graph(host, r)
            graphs.append(kg.graph)
            assert greedy_clique(kg, kg.n) == greedy_clique_by_scan(kg.graph)
    for g in graphs:
        assert greedy_clique(g, g.n) == greedy_clique_by_scan(g)


def test_capped_greedy_clique_matches_scan_oracle():
    # caps: the packing bound |E| // r and the colour count of the proper
    # colouring built from an extremal rK2-free edge set
    rng = random.Random(47)
    compared = 0
    for _ in range(40):
        host = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.8))
        for r in (1, 2, 3):
            kg = matching_graph(host, r)
            if kg.n == 0:
                continue
            coloring = coloring_from_extremal(kg.source, turan_matchings(host, r).extremal_edges)
            assert proper_by_edges(kg.graph, coloring)
            expected = greedy_clique_by_scan(kg.graph)
            for cap in (host.m // r, len(set(coloring))):
                assert len(expected) <= cap
                assert greedy_clique(kg, cap) == expected
            compared += 1
    assert compared >= 90


def test_is_proper_matches_edge_definition():
    rng = random.Random(37)
    seen = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        if rng.random() < 0.5:
            coloring = chromatic_number(g).coloring
            if rng.random() < 0.5 and g.m:  # merge the colours of one edge's ends
                u, v = g.edges[rng.randrange(g.m)]
                coloring = tuple(coloring[u] if c == coloring[v] else c for c in coloring)
        else:
            coloring = tuple(rng.randrange(rng.randint(1, g.n)) for _ in range(g.n))
        expected = proper_by_edges(g, coloring)
        seen.add(expected)
        assert is_proper(g, coloring) == expected
    assert seen == {True, False}

    # On a general Kneser graph is_proper reads the hyperedges, never the
    # adjacency; each answer is checked against the Kneser edges afterwards.
    def check(h, coloring):
        kg = general_kneser(h)
        answer = is_proper(kg, coloring)
        assert "adj_masks" not in vars(kg)
        assert answer == proper_by_edges(kg.graph, coloring)
        return answer

    # (0, 1), (1, 2) and (0, 2) pairwise meet with no element in common
    h = Hypergraph(4, ((0, 1), (1, 2), (0, 2), (2, 3), (3,)))
    assert check(h, (0, 0, 0, 1, 1))      # that triangle, and a star at 3
    assert check(h, (0, 1, 1, 1, 2))      # a star at 2
    assert not check(h, (0, 0, 0, 0, 1))  # (0, 1) and (2, 3) are disjoint
    assert not check(h, (0, 1, 1, 1, 0))  # (0, 1) and (3,) are disjoint
    kg = matching_graph(make_complete_bipartite(4, 3), 2)
    assert check(kg.source, chromatic_number(kg).coloring)
    k43 = turan_matchings(make_complete_bipartite(4, 3), 2)
    assert check(kg.source, coloring_from_extremal(kg.source, k43.extremal_edges))
    seen.clear()
    for _ in range(300):
        if rng.random() < 0.5:
            h = random_hypergraph(rng, 7, 12)
        else:
            h = matching_hypergraph(random_graph(rng, rng.randint(2, 7), 0.6), rng.randint(1, 3))
        if not h.k:
            continue
        pick = rng.random()
        if pick < 0.3:  # one class per smallest element: every class is a star
            coloring = tuple(e[0] for e in h.hyperedges)
        elif pick < 0.6:
            coloring = chromatic_number(general_kneser(h)).coloring
        else:
            coloring = tuple(rng.randrange(rng.randint(1, h.k)) for _ in range(h.k))
        seen.add(check(h, coloring))
    assert seen == {True, False}


def test_coloring_from_extremal_cycle():
    kg = matching_graph(make_cycle(5), 2)
    col = coloring_from_extremal(kg.source, {0, 1})
    assert is_proper(kg.graph, col)
    assert len(set(col)) <= 5 - 2


def test_coloring_from_extremal_bipartite_star():
    k43 = make_complete_bipartite(4, 3)
    star = {i for i, edge in enumerate(k43.edges) if 4 in edge}  # the 4 edges at vertex 4
    kg = matching_graph(k43, 2)
    col = coloring_from_extremal(kg.source, star)
    assert is_proper(kg.graph, col)
    assert len(set(col)) == 8


def test_coloring_from_extremal_rejections():
    c5 = make_cycle(5)
    kg2, kg1 = matching_graph(c5, 2), matching_graph(c5, 1)
    with pytest.raises(CertificateError):
        coloring_from_extremal(kg2.source, {0, 2})  # contains a 2-matching
    with pytest.raises(CertificateError):
        coloring_from_extremal(kg1.source, {0})  # a single edge is a 1-matching
    with pytest.raises(ValueError):
        coloring_from_extremal(kg2.source, {0, 5})
    with pytest.raises(ValueError):
        coloring_from_extremal(kg2.source, {-1})
    # the empty set is the only 1K2-free set; it colors KG(G, K2) injectively
    col = coloring_from_extremal(kg1.source, set())
    assert is_proper(kg1.graph, col)
    assert len(set(col)) == 5


def test_coloring_from_extremal_general_hypergraphs():
    rng = random.Random(59)
    checked = rejected = 0
    for _ in range(200):
        h = random_hypergraph(rng, 8, 12)
        free = set(rng.sample(range(h.ground_n), rng.randint(0, h.ground_n)))
        if any(set(e) <= free for e in h.hyperedges):
            with pytest.raises(CertificateError):
                coloring_from_extremal(h, free)
            rejected += 1
            continue
        col = coloring_from_extremal(h, free)
        assert is_proper(general_kneser(h).graph, col)
        assert len(set(col)) <= h.ground_n - len(free)
        checked += 1
    assert checked > 50 and rejected > 20
    h = Hypergraph(4, ((0, 1), (2, 3), (1, 2)))
    assert coloring_from_extremal(h, {1}) == (0, 1, 1)
    with pytest.raises(ValueError):
        coloring_from_extremal(h, {4})
    with pytest.raises(CertificateError):
        coloring_from_extremal(h, {2, 3})


def test_chi_at_most_edges_minus_ex():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), 0.6)
        if g.m == 0:
            continue
        r = rng.randint(1, 2)
        ex = turan_matchings(g, r)
        kg = matching_graph(g, r)
        chi = chromatic_number(kg).chi
        assert chi <= g.m - ex.ex_value
        col = coloring_from_extremal(kg.source, ex.extremal_edges)
        assert is_proper(kg.graph, col)


def test_export_dimacs():
    text = export_dimacs(make_cycle(3))
    assert text == "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def _analyze_with_clique_spy(monkeypatch, tmp_path, g):
    calls = []
    real = coloring.greedy_clique

    def spy(kg, cap=None):
        calls.append(cap)
        return real(kg, cap)

    monkeypatch.setattr(coloring, "greedy_clique", spy)
    path = tmp_path / "host.txt"
    path.write_text(format_graph(g), encoding="ascii")
    return cmd_analyze(str(path), 2, node_budget=20_000)["results"], calls


def test_clique_seed_skipped_below_the_alternation_bound(monkeypatch, tmp_path):
    # an analyze-r2-shaped host: a clique of KG(G, 2K2) has at most m // 2
    # vertices, fewer than the alternation bound, so it cannot be the witness
    g = random_connected_graph(random.Random(1), 13, 0.15)
    res, calls = _analyze_with_clique_spy(monkeypatch, tmp_path, g)
    assert res["alternation_chi_lower"] > g.m // 2
    assert calls == []
    assert res["lower_witness"] == {"kind": "external", "value": "alternation bound"}
    assert res["chi"] == res["alternation_chi_lower"]


def test_clique_seed_kept_where_it_is_the_witness(monkeypatch, tmp_path):
    # KG(K_4, 2K2) is a triangle; the Euler ordering's bound is 2
    res, calls = _analyze_with_clique_spy(monkeypatch, tmp_path, make_complete(4))
    assert res["alternation_chi_lower"] == 2
    assert calls == [3]
    assert res["lower_witness"] == {"kind": "clique", "value": [0, 1, 2]}
    assert res["chi"] == 3
