import hashlib
import random
from collections import Counter

from matchgraph import (
    Graph,
    is_connected,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    smallgraphs,
)
from matchgraph.graphs import component_masks
from matchgraph.smallgraphs import canonical_form, connected_graphs_up_to
from tests.oracles import brute_canonical_form, random_graph

# counts of connected graphs up to isomorphism by vertex count (OEIS A001349)
EXPECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_connected_graph_counts():
    everything = list(connected_graphs_up_to(max(EXPECTED)))
    for n, expected in EXPECTED.items():
        graphs = [g for g in everything if g.n == n]
        assert len(graphs) == expected
        assert all(is_connected(g) for g in graphs)
        assert len({canonical_form(g) for g in graphs}) == expected


def test_up_to_ordering_and_total():
    graphs = list(connected_graphs_up_to(5))
    assert len(graphs) == 1 + 1 + 2 + 6 + 21
    sizes = [(g.n, g.m) for g in graphs]
    assert sizes == sorted(sizes, key=lambda t: (t[0], t[1]))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = tuple(
            tuple(sorted((perm[u], perm[v]))) for u, v in edges
        )
        h = Graph(n, tuple(sorted(relabeled)))
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_nonisomorphic():
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    star4 = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert canonical_form(path4) != canonical_form(star4)


def test_canonical_form_matches_brute_force():
    rng = random.Random(11)
    graphs = [
        Graph(1, ()),
        Graph(7, ()),
        make_complete(7),
        make_cycle(7),
        make_complete_bipartite(3, 4),
    ]
    graphs += [random_graph(rng, rng.randint(1, 7), rng.random()) for _ in range(60)]
    for g in graphs:
        assert canonical_form(g) == brute_canonical_form(g), g


def test_generation_canonical_forms_per_order(monkeypatch):
    calls = Counter()

    def spy(g):
        calls[g.n] += 1
        return canonical_form(g)

    monkeypatch.setattr(smallgraphs, "canonical_form", spy)
    assert len(list(connected_graphs_up_to(7))) == 996
    # children whose new vertex passes the deletion test; least degree among
    # the non-cut vertices alone would give 2796, and every nonempty
    # neighbourhood of the 143 parents 7815
    assert calls == {2: 1, 3: 3, 4: 11, 5: 48, 6: 247, 7: 1858}
    assert sum(calls.values()) == 2168


def _passing(g: Graph) -> set[int]:
    return {v for v in range(g.n) if smallgraphs._deletable(list(g.adj_masks), v)}


def test_deletion_test_is_isomorphism_invariant():
    # the vertices that pass map onto those of any relabelled copy, every
    # connected graph has one, and deleting it leaves a connected graph, so
    # every graph is reached from some parent
    rng = random.Random(7)
    for g in connected_graphs_up_to(6):
        passing = _passing(g)
        assert passing
        assert all(len(component_masks(g, (v,))) <= 1 for v in passing)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)))
            assert _passing(h) == {perm[v] for v in passing}
    # below 7 vertices every cut vertex has higher degree than some non-cut
    # one, so the loop above never needs the cut check; here the middle
    # vertex 6 of two triangles joined through it ties the least non-cut
    # degree with the largest neighbour degrees, and only the check drops it
    linked = Graph(7, ((0, 1), (0, 2), (1, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)))
    assert _passing(linked) == {0, 1, 4, 5}


def test_generation_pinned():
    graphs = [(g.n, g.edges) for g in connected_graphs_up_to(7)]
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == (
        "beb18494ce769675d776d7b3b866d3957d9b625be068896782aff0abe3994cf5"
    )
