import random
import time

import pytest

from matchgraph import (
    CapacityError,
    Graph,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    turan_matchings,
)

from matchgraph import turan
from matchgraph.turan import maximal_free_masks
from tests.oracles import (
    brute_has_r_matching,
    brute_turan,
    brute_turan_witness,
    maximal_free_masks_pairwise,
    odd_parts_by_recursion,
    random_graph,
)


def test_turan_examples():
    cert = turan_matchings(make_cycle(5), 2)
    assert cert.ex_value == 2
    assert turan_matchings(make_complete_bipartite(4, 3), 2).ex_value == 4
    assert turan_matchings(make_disjoint_matching(4), 2).ex_value == 1


def test_turan_whole_graph_free():
    # K_{1,5} has matching number 1: everything is 2K2-free
    cert = turan_matchings(make_complete_bipartite(1, 5), 2)
    assert cert.ex_value == 5 and cert.extremal_edges == frozenset(range(5))


def test_turan_cycles_formula():
    for n in range(5, 13):
        for r in range(2, 6):
            if n >= 2 * r + 1:
                cert = turan_matchings(make_cycle(n), r)
                assert cert.ex_value == 2 * r - 2, (n, r)
                assert cert.method == "structure"
                assert not brute_has_r_matching(make_cycle(n), cert.extremal_edges, r)


def test_turan_matches_brute_force():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        if g.m == 0:
            continue
        for r in (1, 2, 3):
            assert turan_matchings(g, r).ex_value == brute_turan(g, r), (g.edges, r)


def test_turan_witness_matches_brute_force():
    rng = random.Random(31)
    graphs = [Graph(4, ()), make_complete_bipartite(1, 5), make_complete(5)]
    while len(graphs) < 120:
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        if g.m <= 12:
            graphs.append(g)
    for g in graphs:
        for r in range(1, 6):
            cert = turan_matchings(g, r)
            assert cert.method == "structure"
            value, witness = brute_turan_witness(g, r)
            found = (cert.ex_value, tuple(sorted(cert.extremal_edges)))
            assert found == (value, witness), (g.edges, r)


def test_turan_budget_raises_while_growing_parts(monkeypatch):
    # five nodes run out while _odd_parts grows the connected sets of K_7
    g = make_complete(7)
    assert turan._odd_parts(g, turan._incident_masks(g), 2, 5)[1] > 5
    monkeypatch.setattr(turan, "NODE_BUDGET", 5)
    with pytest.raises(CapacityError, match="node budget of 5"):
        turan_matchings(g, 3)
    with pytest.raises(CapacityError, match="node budget of 5"):
        maximal_free_masks(g, 3)


def test_odd_parts_match_recursive_search():
    # the same parts in the same order and the same node count as one call
    # per grown set, so every budget CapacityError fires where it did; small
    # budgets cut the growth at every depth
    rng = random.Random(29)
    truncated = 0
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        inc = turan._incident_masks(g)
        cost = rng.randint(1, 3)
        budget = rng.choice((1, 2, 3, 5, 8, 13, 40, 150, turan.NODE_BUDGET))
        expected = odd_parts_by_recursion(g, inc, cost, budget)
        assert turan._odd_parts(g, inc, cost, budget) == expected
        truncated += expected[1] > budget
    assert truncated > 100
    for g, cost in [(make_complete(9), 3), (make_cycle(9), 4), (Graph(9, ()), 2)]:
        inc = turan._incident_masks(g)
        assert turan._odd_parts(g, inc, cost, 10**6) == odd_parts_by_recursion(g, inc, cost, 10**6)


def test_truncated_run_stays_within_its_budget(monkeypatch):
    # 20K2 has no odd part, and the vertex sets S of size 13 alone number
    # C(40, 13); the run stops at its budget instead of listing them
    g = make_disjoint_matching(20)
    assert turan._odd_parts(g, turan._incident_masks(g), 13, 1000)[1] <= 1000
    monkeypatch.setattr(turan, "NODE_BUDGET", 1000)
    started = time.perf_counter()
    with pytest.raises(CapacityError, match="node budget of 1000"):
        turan_matchings(g, 14)
    assert time.perf_counter() - started < 1


def test_extremal_certificate_is_free():
    rng = random.Random(61)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        for r in (2, 3):
            cert = turan_matchings(g, r)
            assert len(cert.extremal_edges) == cert.ex_value
            assert not brute_has_r_matching(g, cert.extremal_edges, r)


def test_maximality_filter_matches_pairwise_oracle():
    # the per-edge index of kept sets keeps exactly what the pairwise
    # comparison kept; 20K2 at r = 4 keeps 1140 sets
    rng = random.Random(16)
    hosts = [(random_graph(rng, rng.randint(2, 8), rng.random()), rng.randint(1, 4))
             for _ in range(60)]
    hosts += [(make_complete(8), 4), (make_complete_bipartite(6, 6), 4),
              (make_disjoint_matching(20), 4)]
    for g, r in hosts:
        assert maximal_free_masks(g, r) == maximal_free_masks_pairwise(g, r)
    assert len(maximal_free_masks(make_disjoint_matching(20), 4)) == 1140
