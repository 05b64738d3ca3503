import random

import pytest

from matchgraph import (
    CapacityError,
    EdgeOrdering,
    Graph,
    Hypergraph,
    chromatic_number,
    euler_ordering,
    general_kneser,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    matching_hypergraph,
    turan_matchings,
)
from matchgraph import turan
from matchgraph.alternation import ex_alt_salt

from tests.oracles import (
    alt,
    alt_sigma,
    chi_lower_bounds,
    exhaustive_alt_sigma,
    exhaustive_ex_alt,
    random_connected_graph,
    random_graph,
    random_hypergraph,
    salt_sigma,
)


def test_alt_examples():
    assert alt((1, -1, 1)) == 3
    assert alt((0, 0, 0)) == 0
    assert alt((1, 0, 1, -1)) == 2
    assert alt(()) == 0
    with pytest.raises(ValueError):
        alt((2, 0))


def test_edge_ordering():
    sigma = EdgeOrdering((2, 0, 1))
    assert " ".join(map(str, sigma.perm)) == "2 0 1"
    assert EdgeOrdering.from_line("2 0 1") == sigma
    assert EdgeOrdering.identity(3).perm == (0, 1, 2)
    with pytest.raises(ValueError):
        EdgeOrdering((0, 0, 1))


def test_alt_sigma_examples():
    mh = matching_hypergraph(make_cycle(4), 2)
    ident = EdgeOrdering.identity(4)
    assert alt_sigma(mh, ident) == 3
    # all singletons force the all-zero vector
    singles = Hypergraph(3, (0b1, 0b10, 0b100))
    assert alt_sigma(singles, EdgeOrdering.identity(3)) == 0
    # no hyperedges: fully alternating vector survives
    assert alt_sigma(Hypergraph(5, ()), EdgeOrdering.identity(5)) == 5


def test_salt_sigma_examples():
    mh = matching_hypergraph(make_cycle(4), 2)
    ident = EdgeOrdering.identity(4)
    # both supports of a fully alternating vector contain one of the two
    # perfect matchings of C4, so salt matches alt here (exhaustive oracle).
    assert salt_sigma(mh, ident) == exhaustive_alt_sigma(mh, ident, strong=True) == 3
    assert salt_sigma(Hypergraph(3, ()), EdgeOrdering.identity(3)) == 3
    rng = random.Random(2)
    for _ in range(30):
        h = random_hypergraph(rng, 5, 4)
        sigma = EdgeOrdering(tuple(rng.sample(range(h.ground_n), h.ground_n)))
        assert alt_sigma(h, sigma) <= salt_sigma(h, sigma)


def test_alt_salt_against_exhaustive_oracle():
    rng = random.Random(17)
    for _ in range(80):
        h = random_hypergraph(rng, 6, 5)
        sigma = EdgeOrdering(tuple(rng.sample(range(h.ground_n), h.ground_n)))
        assert alt_sigma(h, sigma) == exhaustive_alt_sigma(h, sigma, strong=False)
        assert salt_sigma(h, sigma) == exhaustive_alt_sigma(h, sigma, strong=True)


def test_adding_hyperedge_never_increases():
    rng = random.Random(37)
    for _ in range(40):
        h = random_hypergraph(rng, 6, 4)
        sigma = EdgeOrdering(tuple(rng.sample(range(h.ground_n), h.ground_n)))
        new = sum(1 << v for v in rng.sample(range(h.ground_n), rng.randint(1, h.ground_n)))
        if new in h.masks:
            continue
        bigger = Hypergraph(h.ground_n, h.masks + (new,))
        assert alt_sigma(bigger, sigma) <= alt_sigma(h, sigma)
        assert salt_sigma(bigger, sigma) <= salt_sigma(h, sigma)


def test_capacity_errors(monkeypatch):
    h = Hypergraph(19, ())
    with pytest.raises(CapacityError):
        alt_sigma(h, EdgeOrdering.identity(19))
    # the graph-side engine has no edge cap; the structure enumeration that
    # lists its maximal sets has a node budget
    monkeypatch.setattr(turan, "NODE_BUDGET", 5)
    with pytest.raises(CapacityError):
        turan_matchings(make_cycle(6), 2)


def test_ex_alt_examples():
    c4 = make_cycle(4)
    ident = EdgeOrdering.identity(4)
    assert ex_alt_salt(c4, ident, turan_matchings(c4, 2).masks)[0] == 3
    # edgeless graph
    edgeless = Graph(3, ())
    masks = turan_matchings(edgeless, 2).masks
    assert ex_alt_salt(edgeless, EdgeOrdering.identity(0), masks)[0] == 0


def test_ex_alt_salt_against_exhaustive_oracle():
    rng = random.Random(83)
    # edgeless, and whole edge set rK2-free for r >= 2 (star) and r >= 3 (K_4)
    graphs = [Graph(3, ()), make_complete_bipartite(1, 4), make_complete(4)]
    while len(graphs) < 40:
        g = random_graph(rng, rng.randint(2, 6), rng.random())
        if g.m <= 9:
            graphs.append(g)
    for g in graphs:
        r = rng.randint(1, 5)
        sigma = EdgeOrdering(tuple(rng.sample(range(g.m), g.m)))
        ea, es = ex_alt_salt(g, sigma, turan_matchings(g, r).masks)
        assert ea == exhaustive_ex_alt(g, r, sigma, strong=False)
        assert es == exhaustive_ex_alt(g, r, sigma, strong=True)


def test_ex_alt_beyond_thirty_edges():
    for a, b in ((11, 11), (13, 11)):
        g = make_complete_bipartite(a, b)
        cert = turan_matchings(g, 2)
        ex = cert.ex_value
        assert ex == a
        shuffled = EdgeOrdering(tuple(random.Random(a).sample(range(g.m), g.m)))
        for sigma in (EdgeOrdering.identity(g.m), shuffled):
            ea, es = ex_alt_salt(g, sigma, cert.masks)
            assert ex <= ea <= 2 * ex
            assert ea <= es


def test_correspondence_matching_hypergraph():
    rng = random.Random(89)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(3, 6), 0.3)
        r = rng.randint(1, 3)
        sigma = EdgeOrdering(tuple(rng.sample(range(g.m), g.m)))
        mh = matching_hypergraph(g, r)
        assert (alt_sigma(mh, sigma), salt_sigma(mh, sigma)) == ex_alt_salt(
            g, sigma, turan_matchings(g, r).masks
        )


def test_chi_lower_bounds_examples():
    mh7 = matching_hypergraph(make_cycle(7), 2)
    sigma = euler_ordering(make_cycle(7))
    low = chi_lower_bounds(mh7, sigma)
    assert max(low) == 5  # equals chi(KG(C7, 2K2))

    assert chi_lower_bounds(Hypergraph(4, ()), EdgeOrdering.identity(4)) == (0, 0)

    k42 = make_complete_bipartite(4, 2)
    mh = matching_hypergraph(k42, 2)
    low = chi_lower_bounds(mh, euler_ordering(k42))
    assert max(low) == 4
    assert chromatic_number(general_kneser(mh)).chi == 4


def test_chi_lower_bounds_sound_on_random_hypergraphs():
    rng = random.Random(91)
    for _ in range(60):
        h = random_hypergraph(rng, 7, 5)
        sigma = EdgeOrdering(tuple(rng.sample(range(h.ground_n), h.ground_n)))
        lo_alt, lo_salt = chi_lower_bounds(h, sigma)
        chi = chromatic_number(general_kneser(h)).chi
        assert chi >= lo_alt and chi >= lo_salt

