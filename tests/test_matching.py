import random

import pytest

from matchgraph import (
    CertificateError,
    Graph,
    Matching,
    edge_subset_has_r_matching,
    enumerate_matchings,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    matching,
    odd_components,
    tutte_berge,
)
from matchgraph.graphs import _bits

from tests.oracles import (
    brute_has_r_matching,
    brute_matchings,
    exhaustive_tutte_berge,
    gallai_edmonds_s_by_deletion,
    line_graph_independent_count,
    nx_matching_size,
    random_graph,
)
from tests.test_graphs import PETERSEN


def test_matching_type_invariants():
    c4 = make_cycle(4)
    m = Matching(c4, (2, 0))
    assert m.edges == (0, 2)
    with pytest.raises(ValueError):
        Matching(c4, (0, 1))  # share vertex 1
    with pytest.raises(ValueError):
        Matching(c4, (7,))


def test_max_matching_examples():
    # the maximum matching that the Tutte-Berge witness carries
    assert len(tutte_berge(make_cycle(5)).matching) == 2
    assert len(tutte_berge(make_complete_bipartite(4, 3)).matching) == 3
    assert len(tutte_berge(PETERSEN).matching) == 5
    assert len(tutte_berge(Graph(3, ())).matching) == 0


def test_max_matching_is_a_matching_and_optimal_vs_networkx():
    rng = random.Random(97)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        w = tutte_berge(g)
        mine = w.matching
        Matching(g, mine.edges)  # revalidates disjointness
        assert len(mine) == w.nu == nx_matching_size(g)


def test_tutte_berge_examples():
    w = tutte_berge(make_complete_bipartite(1, 3))
    assert w.s == frozenset({0}) and w.nu == 1
    w = tutte_berge(make_cycle(6))
    assert w.s == frozenset() and w.nu == 3
    w = tutte_berge(make_complete(3))
    assert w.s == frozenset() and w.nu == 1 and w.deficiency == 1


def test_tutte_berge_equality_random():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        w = tutte_berge(g)
        assert len(w.matching) == w.nu == nx_matching_size(g)
        assert 2 * w.nu == exhaustive_tutte_berge(g)[0]
        # the witness value really is what the formula says
        o = odd_components(g, w.s)
        assert g.n - o + len(w.s) == 2 * w.nu
        assert w.deficiency == o - len(w.s)


def test_tutte_berge_beyond_exhaustive_range():
    # n > 20, where minimizing over all 2^n sets is out of reach
    for g, s in [
        (make_cycle(25), frozenset()),
        (make_cycle(31), frozenset()),
        (make_complete_bipartite(11, 11), frozenset()),
        (make_complete_bipartite(13, 11), frozenset(range(13, 24))),
    ]:
        w = tutte_berge(g)
        assert len(w.matching) == w.nu == nx_matching_size(g)
        assert w.s == s
        assert g.n - odd_components(g, w.s) + len(w.s) == 2 * w.nu


def test_tutte_berge_runs_the_matcher_once(monkeypatch):
    # one matcher run, then one failed search from each exposed vertex that
    # has a neighbour: on one 2-edge path and 37 isolated vertices the
    # matcher's own search from vertex 2 and the witness's search from it
    calls = []
    roots = []
    real_matcher = matching._augmenting_matcher
    real_search = matching._blossom_search

    def spy_matcher(n, adj, enough=None):
        calls.append(enough)
        return real_matcher(n, adj, enough)

    def spy_search(adj, match, root):
        roots.append(root)
        return real_search(adj, match, root)

    monkeypatch.setattr(matching, "_augmenting_matcher", spy_matcher)
    monkeypatch.setattr(matching, "_blossom_search", spy_search)
    w = tutte_berge(Graph(40, ((0, 1), (1, 2))))
    assert (w.s, w.nu, w.deficiency) == (frozenset({1}), 1, 38)
    assert calls == [None]
    assert roots == [2, 2]


def test_tutte_berge_rejects_a_matching_that_is_not_maximum(monkeypatch):
    # a matcher that stops at its greedy seed leaves the augmenting path 0-1-2-3
    monkeypatch.setattr(matching, "_augmenting_matcher", lambda n, adj: ([-1, 2, 1, -1], 1))
    with pytest.raises(CertificateError):
        tutte_berge(Graph(4, ((0, 1), (1, 2), (2, 3))))


def _blossom_hosts():
    yield from (make_cycle(k) for k in range(5, 10))
    yield make_complete(5)
    yield make_complete(7)
    yield PETERSEN
    # two triangles joined by a path of length 3
    yield Graph(8, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)))
    # C_7 with a pendant edge at three of its vertices
    yield Graph(10, make_cycle(7).edges + ((0, 7), (2, 8), (4, 9)))
    # C_5 with two pendant edges at one vertex
    yield Graph(7, make_cycle(5).edges + ((0, 5), (0, 6)))


def test_gallai_edmonds_set_matches_deletion_definition():
    for g in _blossom_hosts():
        assert tutte_berge(g).s == gallai_edmonds_s_by_deletion(g), g.edges
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert tutte_berge(g).s == gallai_edmonds_s_by_deletion(g), g.edges


def test_tutte_berge_on_a_sparse_host():
    # one 2-edge path and 3997 isolated vertices
    w = tutte_berge(Graph(4000, ((0, 1), (1, 2))))
    assert (w.s, w.nu, w.deficiency) == (frozenset({1}), 1, 3998)


def test_neighbour_lists_match_bit_scan():
    rng = random.Random(43)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 30), rng.random())
        lists = matching._neighbour_lists(g)
        assert [list(a) for a in lists] == [
            [w for w in range(g.n) if mask >> w & 1] for mask in g.adj_masks
        ]


def test_enumerate_matchings_examples():
    assert len(enumerate_matchings(make_cycle(5), 2)) == 5
    assert len(enumerate_matchings(make_cycle(7), 3)) == 7
    assert enumerate_matchings(Graph(2, ((0, 1),)), 2) == []
    with pytest.raises(ValueError):
        enumerate_matchings(make_cycle(5), 0)


def test_enumerate_matchings_lex_and_complete():
    # edge-index masks whose sorted tuples are exactly the r-matchings, in
    # lexicographic order, from r = 1 up past the matching number
    rng = random.Random(41)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        r = rng.randint(1, 5)
        masks = enumerate_matchings(g, r)
        mine = [_bits(mask) for mask in masks]
        assert mine == sorted(mine)
        assert mine == brute_matchings(g, r)
        assert all(mask.bit_count() == r for mask in masks)


def test_enumeration_count_equals_line_graph_independent_sets():
    for g, r in [(make_cycle(6), 2), (make_complete(5), 2), (make_complete_bipartite(3, 3), 3)]:
        assert len(enumerate_matchings(g, r)) == line_graph_independent_count(g, r)


def _has_r_matching(g, r):
    return edge_subset_has_r_matching(g, range(g.m), r)


def test_has_r_matching_examples():
    p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))  # C4 minus an edge
    assert _has_r_matching(p4, 2)
    assert not _has_r_matching(make_complete_bipartite(1, 5), 2)
    assert _has_r_matching(make_cycle(9), 4)
    assert not _has_r_matching(make_cycle(9), 5)
    assert _has_r_matching(make_cycle(9), 0)


def test_has_r_matching_agrees_with_max_matching():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        nu = nx_matching_size(g)
        for r in range(0, nu + 2):
            assert _has_r_matching(g, r) == (nu >= r)


def test_edge_subset_has_r_matching():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if g.m == 0:
            continue
        ids = rng.sample(range(g.m), rng.randint(0, g.m))
        for r in (1, 2, 3):
            assert edge_subset_has_r_matching(g, ids, r) == brute_has_r_matching(g, ids, r)
