import math
import random

import pytest

from matchgraph import (
    Graph,
    chromatic_number,
    euler_ordering,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    star_formula_conditions,
    turan_matchings,
)

from matchgraph.alternation import alternation_chi_lower, ex_alt_salt
from matchgraph.cli import _solve
from matchgraph.coloring import DSATUR_BUDGET
from matchgraph.graphs import component_masks
from matchgraph.orderings import has_independent_prefix

from tests.oracles import (
    euler_by_components,
    independent_prefix_by_combinations,
    random_connected_graph,
    random_graph,
)

SPIDER = Graph(7, ((0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)))  # three legs of length 2


def test_star_formula_conditions_c7():
    rep = star_formula_conditions(make_cycle(7), 3)
    assert rep.applicable
    assert rep.odd_girth == 7
    assert rep.ratio_ok and rep.parity_ok and rep.prefix_search == "found"
    assert rep.sum_top_degrees == 4 and rep.formula_value == 3
    assert rep.odd_top_count == 0


def test_star_formula_conditions_k4_fails():
    rep = star_formula_conditions(make_complete(4), 2)
    assert not rep.applicable
    assert rep.prefix_search == "found"       # a single vertex is independent
    assert rep.odd_girth == 3
    assert not rep.ratio_ok                   # 2 > max(1.5, 1)
    assert not rep.parity_ok                  # 3 odd and not above deg(v_2) = 3


def test_star_formula_conditions_k43():
    rep = star_formula_conditions(make_complete_bipartite(4, 3), 2)
    assert rep.applicable
    assert rep.odd_girth == math.inf
    assert rep.top_degree == 4 and rep.parity_ok
    assert rep.formula_value == 8


def test_star_formula_conditions_spider_odd_top():
    rep = star_formula_conditions(SPIDER, 2)
    assert rep.applicable
    assert rep.top_degree == 3 and rep.next_degree == 2
    assert rep.odd_top_count == 1
    assert rep.formula_value == 3


def test_star_formula_conditions_spider_without_prefix():
    # the one r = 3 scan finding (up to isomorphism) that fails only the
    # prefix hypothesis: the degree-2 vertices all neighbour the centre
    rep = star_formula_conditions(SPIDER, 3)
    assert rep.prefix_search == "none"
    assert rep.ratio_ok and rep.parity_ok
    assert rep.top_degree == rep.next_degree == 2
    assert rep.sum_top_degrees == 5
    assert rep.formula_value is None and not rep.applicable


def test_star_formula_out_of_range_r():
    assert not star_formula_conditions(make_cycle(5), 1).applicable
    assert not star_formula_conditions(make_cycle(5), 9).applicable


def test_euler_ordering_cycle():
    sigma = euler_ordering(make_cycle(5))
    # tour starts at the last vertex of the degree order; cyclic edge order
    assert sigma.perm == (4, 0, 1, 2, 3)


def test_euler_ordering_star_mechanics():
    sigma = euler_ordering(make_complete_bipartite(1, 3))
    assert sorted(sigma.perm) == [0, 1, 2]


def test_euler_ordering_disconnected():
    assert euler_ordering(Graph(4, ((0, 1), (2, 3)))).perm == (0, 1)
    # an isolated vertex, a claw with its own auxiliary vertex, a triangle
    mixed = Graph(8, ((1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (6, 7)))
    assert euler_ordering(mixed).perm == (0, 1, 2, 4, 3, 5)


def test_euler_ordering_tours_each_component_as_its_own_graph():
    rng = random.Random(29)
    kinds = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 11), rng.choice((0.1, 0.2, 0.35, 0.6)))
        comps = component_masks(g)
        for comp in comps:
            odd = any(g.degrees[v] % 2 for v in range(g.n) if comp >> v & 1)
            kinds.add("isolated" if comp.bit_count() == 1 else "odd" if odd else "eulerian")
        kinds.add("connected" if len(comps) == 1 else "disconnected")
        assert euler_ordering(g) == euler_by_components(g), g.edges
    assert kinds == {"isolated", "odd", "eulerian", "connected", "disconnected"}


def _color_counts_at_vertices(g, sigma):
    """Full alternating coloring along sigma; per-vertex count of each color."""
    position = {e: i for i, e in enumerate(sigma.perm)}
    counts = [[0, 0] for _ in range(g.n)]
    for e in range(g.m):
        u, v = g.edges[e]
        color = position[e] % 2
        counts[u][color] += 1
        counts[v][color] += 1
    return counts


def test_euler_ordering_half_degree_property():
    # any alternating coloring along the ordering meets each vertex (other
    # than the tour start) in at most ceil(deg/2) edges per color
    cases = [
        make_complete_bipartite(4, 3),
        make_complete_bipartite(6, 4),
        make_cycle(9),
        SPIDER,
        make_complete(5),
    ]
    rng = random.Random(3)
    cases.extend(random_connected_graph(rng, rng.randint(4, 8), 0.4) for _ in range(20))
    for g in cases:
        sigma = euler_ordering(g)
        odd = [v for v in range(g.n) if g.degrees[v] % 2 == 1]
        exempt = set()
        if not odd:
            exempt = {max(range(g.n), key=lambda v: (-g.degrees[v], v))}
        counts = _color_counts_at_vertices(g, sigma)
        for v in range(g.n):
            if v in exempt:
                continue
            limit = -(-g.degrees[v] // 2)
            assert counts[v][0] <= limit and counts[v][1] <= limit, (g.edges, v)


def test_euler_ordering_half_degree_on_random_subsets():
    rng = random.Random(13)
    g = make_complete_bipartite(4, 3)
    sigma = euler_ordering(g)
    position = {e: i for i, e in enumerate(sigma.perm)}
    for _ in range(200):
        chosen = [e for e in range(g.m) if rng.random() < 0.6]
        ordered = sorted(chosen, key=position.get)
        per_vertex = [[0, 0] for _ in range(g.n)]
        for i, e in enumerate(ordered):
            u, v = g.edges[e]
            per_vertex[u][i % 2] += 1
            per_vertex[v][i % 2] += 1
        for v in range(g.n):
            limit = -(-g.degrees[v] // 2)
            assert max(per_vertex[v]) <= limit


def test_independent_prefix_top_degree_class():
    # the three degree-4 vertices of K_{4,3} form one side
    k43 = make_complete_bipartite(4, 3)
    assert has_independent_prefix(k43, 1)
    assert has_independent_prefix(k43, 3)
    assert not has_independent_prefix(k43, 4)


def test_independent_prefix_examples():
    assert has_independent_prefix(make_cycle(7), 2)
    assert not has_independent_prefix(make_complete(4), 2)


def test_independent_prefix_search_inside_tie_class():
    # star center has the top degree; prefix of 2 must reject center+leaf pairs
    assert not has_independent_prefix(make_complete_bipartite(1, 4), 2)
    # C7 is one tie class holding the independent triple (0, 2, 4)
    assert has_independent_prefix(make_cycle(7), 3)
    # the two degree-2 vertices of P4 are adjacent, so no valid prefix exists
    assert not has_independent_prefix(make_path(4), 2)


def test_independent_prefix_matches_combinations_oracle():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        for k in range(1, min(5, g.n) + 1):
            assert has_independent_prefix(g, k) == independent_prefix_by_combinations(g, k), (
                g.edges, k,
            )
        for k in (0, g.n + 1):
            with pytest.raises(ValueError):
                has_independent_prefix(g, k)


PIPELINE_CASES = [
    (make_cycle(7), 2),
    (make_cycle(7), 3),
    (make_cycle(9), 2),
    (make_cycle(9), 3),
    (make_complete_bipartite(4, 3), 2),
    (SPIDER, 2),
]


def test_star_formula_pipeline_bounds_and_chi():
    for g, r in PIPELINE_CASES:
        rep = star_formula_conditions(g, r)
        assert rep.applicable, (g.edges, r)
        _, kg, cert, lb, bounds = _solve(g, r, {"euler": euler_ordering(g)}, DSATUR_BUDGET)
        if rep.odd_top_count == 0:
            assert bounds["euler"]["ex_salt"] <= 1 + rep.sum_top_degrees
        else:
            assert bounds["euler"]["ex_alt"] <= rep.sum_top_degrees
        assert lb == rep.formula_value
        assert cert.exact and cert.chi == rep.formula_value
        cold = chromatic_number(kg)
        assert cold.exact and cold.chi == rep.formula_value


# max(|E| - ex_alt, |E| + 1 - ex_salt) at r = 2 along the Euler ordering
DENSE_HOST_BOUNDS = {
    "K7": (make_complete(7), 15),
    "K8": (make_complete(8), 20),
    "K9": (make_complete(9), 28),
    "K11,11": (make_complete_bipartite(11, 11), 109),
    "K11,12": (make_complete_bipartite(11, 12), 120),
    "K12,12": (make_complete_bipartite(12, 12), 132),
}


@pytest.mark.parametrize("name", DENSE_HOST_BOUNDS)
def test_euler_ordering_bound_on_dense_hosts(name):
    # the bound alone: the CLI's solve would go on to a DSATUR search
    g, bound = DENSE_HOST_BOUNDS[name]
    masks = turan_matchings(g, 2).masks
    assert alternation_chi_lower(g.m, *ex_alt_salt(g, euler_ordering(g), masks)) == bound
