import math
import random
from itertools import combinations

import pytest

from matchgraph import (
    Graph,
    Hypergraph,
    general_kneser,
    is_connected,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    matching_graph,
    matching_hypergraph,
    odd_girth,
)

from tests.oracles import (
    brute_kneser_edges,
    hyperedge_tuples,
    hypergraph_of,
    random_graph,
    random_hypergraph,
)


def test_hypergraph_invariants():
    with pytest.raises(ValueError):
        hypergraph_of(3, ((),))
    with pytest.raises(ValueError):
        hypergraph_of(3, ((0, 1), (1, 0)))  # duplicate after canonicalization
    with pytest.raises(ValueError):
        hypergraph_of(2, ((0, 2),))
    h = hypergraph_of(3, ((2, 0), (1,)))
    assert h.masks == (0b101, 0b10) and hyperedge_tuples(h) == ((0, 2), (1,))


@pytest.mark.parametrize("ground_n, masks", [
    (3, (0,)),                 # empty
    (3, (0b1, 0)),             # empty after a good one
    (3, (-1,)),                # no set of elements
    (2, (0b100,)),             # element 2 outside [0, 2)
    (0, (0b1,)),               # any element is outside an empty ground set
    (3, (0b11, 0b110, 0b11)),  # duplicate
    (-1, ()),                  # negative ground set size
])
def test_hypergraph_rejects_bad_masks(ground_n, masks):
    with pytest.raises(ValueError):
        Hypergraph(ground_n, masks)


def test_hypergraph_accepts_edge_cases():
    assert Hypergraph(0, ()).k == 0
    assert Hypergraph(3, [0b111, 0b1]).masks == (0b111, 0b1)  # any sequence, held as a tuple


def test_general_kneser_examples():
    k2 = general_kneser(hypergraph_of(2, ((0,), (1,)))).graph
    assert (k2.n, k2.m) == (2, 1)

    h = hypergraph_of(4, ((0, 1), (1, 2), (2, 3)))
    g = general_kneser(h).graph
    assert g.edges == ((0, 2),)

    pet = general_kneser(hypergraph_of(5, tuple(combinations(range(5), 2)))).graph
    assert pet.n == 10 and pet.m == 15
    assert set(pet.degrees) == {3}
    assert odd_girth(pet) == 5


def test_general_kneser_matches_pairwise_disjointness():
    rng = random.Random(23)
    cases = [
        hypergraph_of(0, ()),
        hypergraph_of(3, ()),
        hypergraph_of(1, ((0,),)),
        hypergraph_of(4, ((1, 3),)),
        hypergraph_of(3, ((0,), (1,), (2,))),
        hypergraph_of(4, ((2,), (0, 1, 2, 3))),
    ]
    cases += [random_hypergraph(rng, 9, 14) for _ in range(200)]
    cases += [matching_hypergraph(random_graph(rng, 6, 0.6), rng.randint(1, 3)) for _ in range(30)]
    for h in cases:
        edges = brute_kneser_edges(h)
        masks = [0] * h.k
        for i, j in edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        kg = general_kneser(h)
        assert kg.n == h.k
        assert kg.adj_masks == tuple(masks)
        assert kg.degrees == tuple(m.bit_count() for m in masks)
        assert kg.graph.edges == tuple(edges)
    sizes = [h.k for h in cases]
    assert 0 in sizes and 1 in sizes
    assert any(mask.bit_count() == 1 for h in cases[6:] for mask in h.masks)


def test_matching_hypergraph_examples():
    mh = matching_hypergraph(make_cycle(4), 2)
    assert mh.ground_n == 4 and hyperedge_tuples(mh) == ((0, 2), (1, 3))

    mh5 = matching_hypergraph(make_cycle(5), 2)
    assert mh5.k == 5 and all(mask.bit_count() == 2 for mask in mh5.masks)

    assert matching_hypergraph(make_complete_bipartite(1, 3), 2).k == 0


def test_matching_graph_examples():
    g = matching_graph(make_cycle(5), 2).graph
    assert g.n == 5 and set(g.degrees) == {2} and is_connected(g)
    from matchgraph.smallgraphs import canonical_form

    assert canonical_form(g) == canonical_form(make_cycle(5))

    pet = matching_graph(make_disjoint_matching(5), 2).graph
    assert pet.n == 10 and pet.m == 15 and set(pet.degrees) == {3}
    assert odd_girth(pet) == 5

    assert matching_graph(make_cycle(7), 2).graph.n == 14


def test_matching_graph_cycle_vertex_count_formula():
    # number of r-matchings of C_n is n/(n-r) * C(n-r, r)
    for n in range(5, 11):
        for r in range(2, n // 2 + 1):
            count = matching_graph(make_cycle(n), r).graph.n
            assert count == n * math.comb(n - r, r) // (n - r)


def test_kneser_restriction_gives_induced_subgraph():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, 6, 0.5)
        h = matching_hypergraph(g, 2)
        if h.k < 3:
            continue
        keep = sorted(rng.sample(range(h.k), h.k - 1))
        sub = Hypergraph(h.ground_n, tuple(h.masks[i] for i in keep))
        big = general_kneser(h).graph
        small = general_kneser(sub).graph
        expected = {
            (keep.index(u), keep.index(v))
            for u, v in big.edges
            if u in keep and v in keep
        }
        assert set(small.edges) == expected

