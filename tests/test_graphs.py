import math
import random
import time

import networkx as nx
import pytest

from matchgraph import (
    Graph,
    GraphParseError,
    NotEulerianError,
    eulerian_tour,
    format_graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    make_path,
    odd_components,
    odd_girth,
    parse_graph,
)
from matchgraph import graphs
from matchgraph.graphs import component_masks, is_connected

from tests.oracles import (
    odd_girth_by_cycle_enumeration,
    odd_girth_by_root_bfs,
    random_graph,
    to_networkx,
    tour_is_valid,
)

PETERSEN = Graph(
    10,
    (
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (5, 8), (6, 8), (6, 9),
    ),
)


def test_generators_canonical():
    c5 = make_cycle(5)
    assert c5.n == 5 and c5.m == 5
    assert all(d == 2 for d in c5.degrees)
    assert c5.edges[0] == (0, 1) and c5.edges[4] == (0, 4)

    k43 = make_complete_bipartite(4, 3)
    assert k43.m == 12
    # lexicographic by (left, right): edge i*n + j joins i and m+j
    assert k43.edges[0] == (0, 4) and k43.edges[5] == (1, 6)

    m4 = make_disjoint_matching(4)
    assert m4.n == 8 and m4.m == 4
    assert m4.edges[2] == (4, 5)

    k4 = make_complete(4)
    assert k4.m == 6 and k4.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_generator_minimums():
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        make_disjoint_matching(0)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_graph_rejects_non_int_labels():
    for edge in ((0, 1.7), (0.0, 1), ("0", "2"), (False, True), (0, True)):
        with pytest.raises(ValueError):
            Graph(3, (edge,))
    # lists of int pairs are accepted; int tuple pairs are shared, not copied
    assert Graph(3, [[0, 1], [1, 2]]).edges == ((0, 1), (1, 2))
    pairs = ((0, 1), (1, 2))
    g = Graph(3, pairs)
    assert all(a is b for a, b in zip(g.edges, pairs))


def test_odd_components_examples():
    assert odd_components(make_path(3), [1]) == 2
    assert odd_components(make_cycle(6), ()) == 0
    assert odd_components(make_complete_bipartite(1, 3), [0]) == 3


def test_odd_components_parity_matches_vertex_count():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert odd_components(g, ()) % 2 == g.n % 2


def test_odd_girth_examples():
    assert odd_girth(make_cycle(5)) == 5
    assert odd_girth(make_complete_bipartite(3, 3)) == math.inf
    assert odd_girth(PETERSEN) == 5


def test_odd_girth_edgeless_host_is_linear():
    # each BFS level checks only its own vertices for an inner edge
    started = time.perf_counter()
    assert odd_girth(Graph(20000, ())) == math.inf
    assert time.perf_counter() - started < 2


def test_odd_girth_against_cycle_enumeration():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 8), rng.random())
        assert odd_girth(g) == odd_girth_by_cycle_enumeration(g)


def test_odd_girth_against_root_bfs():
    # bipartite hosts are answered by the per-component BFS, the others by
    # the per-root search; both must agree with a BFS from every root
    rng = random.Random(47)
    answers = set()
    for _ in range(300):
        n = rng.randint(0, 14)
        if rng.random() < 0.4:  # bipartite, possibly disconnected
            side = [rng.random() < 0.5 for _ in range(n)]
            g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)
                               if side[u] != side[v] and rng.random() < 0.4))
        else:
            g = random_graph(rng, n, rng.random() * 0.6)
        got = odd_girth(g)
        assert got == odd_girth_by_root_bfs(g)
        answers.add(got)
    assert math.inf in answers and {3, 5} <= answers


def test_odd_girth_of_bipartite_host_runs_one_bfs_per_component(monkeypatch):
    calls = []
    walk = graphs._bfs_levels

    def counted(*args):
        calls.append(args[1])
        return walk(*args)

    monkeypatch.setattr(graphs, "_bfs_levels", counted)
    assert odd_girth(make_path(2001)) == math.inf
    assert len(calls) == 1
    calls.clear()
    two_paths = Graph(8, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)))
    assert odd_girth(two_paths) == math.inf
    assert calls == [1, 1 << 4]


def test_odd_girth_infinite_iff_bipartite():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        assert (odd_girth(g) == math.inf) == nx.is_bipartite(to_networkx(g))


def edge_map(g):
    return dict(enumerate(g.edges))


def test_eulerian_tour_cycle():
    tour = eulerian_tour(edge_map(make_cycle(4)), 0)
    assert tour == [0, 1, 2, 3]


def test_eulerian_tour_k5_valid_and_deterministic():
    k5 = edge_map(make_complete(5))
    tour = eulerian_tour(k5, 0)
    assert len(tour) == 10
    assert tour_is_valid(k5, tour, 0)
    assert tour == eulerian_tour(k5, 0)


def test_eulerian_tour_rejects_odd_degree():
    with pytest.raises(NotEulerianError) as exc:
        eulerian_tour(edge_map(make_complete_bipartite(1, 2)), 0)
    assert exc.value.vertex == 1  # the lowest odd vertex is named


def test_eulerian_tour_rejects_disconnected():
    two_triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    with pytest.raises(NotEulerianError) as exc:
        eulerian_tour(edge_map(two_triangles), 0)
    assert exc.value.vertex == 3
    with pytest.raises(NotEulerianError) as exc:
        eulerian_tour(edge_map(two_triangles), 6)  # start meets no edge
    assert exc.value.vertex == 6


def test_eulerian_tour_edge_subset():
    k5 = make_complete(5)
    triangle = {k5.edge_index[p]: p for p in ((0, 1), (0, 2), (1, 2))}
    tour = eulerian_tour(triangle, 0)
    assert tour_is_valid(triangle, tour, 0)
    assert eulerian_tour({}, 3) == []


def test_eulerian_tour_random_even_graphs():
    rng = random.Random(31)
    found = 0
    while found < 25:
        g = random_graph(rng, rng.randint(3, 8), 0.6)
        if g.m == 0 or any(d % 2 for d in g.degrees) or not is_connected(g):
            continue
        tour = eulerian_tour(edge_map(g), 0)
        assert tour_is_valid(edge_map(g), tour, 0)
        found += 1


def test_eulerian_tour_ignores_isolated_vertices():
    g = Graph(5, ((0, 1), (0, 2), (1, 2)))  # triangle plus two isolated vertices
    tour = eulerian_tour(edge_map(g), 0)
    assert tour_is_valid(edge_map(g), tour, 0)


def test_eulerian_tour_doubled_path():
    # both edges of P3 doubled: every vertex becomes even
    doubled = {0: (0, 1), 1: (1, 2), 2: (0, 1), 3: (1, 2)}
    tour = eulerian_tour(doubled, 0)
    assert tour_is_valid(doubled, tour, 0)
    assert tour == [0, 1, 3, 2]


def test_eulerian_tour_labels_are_not_indices():
    assert eulerian_tour({0: (0, 10**9), 1: (0, 10**9)}, 0) == [0, 1]


def test_component_masks():
    g = Graph(5, ((0, 1), (2, 3)))
    comps = sorted(mask.bit_count() for mask in component_masks(g))
    assert comps == [1, 2, 2]
    assert odd_components(g, [0]) == 2  # {1} and {4}


def test_text_format_round_trip():
    g = make_complete_bipartite(3, 2)
    text = format_graph(g)
    assert text.splitlines()[0] == "5 6"
    assert parse_graph(text) == g


def test_text_format_skips_blank_lines():
    g = parse_graph("3 2\n0 1\n\n1 2\n  \n")
    assert g == Graph(3, ((0, 1), (1, 2)))
    assert g.edge_index[(1, 2)] == 1


def test_text_format_comments_and_errors():
    assert parse_graph("# comment\n2 1\n0 1\n") == Graph(2, ((0, 1),))
    with pytest.raises(GraphParseError) as exc:
        parse_graph("2 1\n3 x\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        parse_graph("2 2\n0 1\n")
    with pytest.raises(GraphParseError):
        parse_graph("")
