"""Acceptance suite: one test per headline claim, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import time

from matchgraph import (
    EdgeOrdering,
    chromatic_number,
    euler_ordering,
    general_kneser,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    matching_graph,
    matching_hypergraph,
    odd_components,
    star_formula_conditions,
    turan_matchings,
    tutte_berge,
)
from matchgraph.alternation import ex_alt_salt
from matchgraph.cli import _solve, cmd_scan
from matchgraph.coloring import DSATUR_BUDGET
from matchgraph.smallgraphs import connected_graphs_up_to

from tests.c4 import monogamous_c4_decomposition, verify_c4_decomposition
from tests.oracles import (
    alt_sigma,
    chi_lower_bounds,
    exhaustive_tutte_berge,
    nx_matching_size,
    random_graph,
    random_hypergraph,
    salt_sigma,
)


def _report(number, text, started):
    print(f"[acceptance] criterion {number}: PASS ({time.time() - started:.1f}s) {text}")


def _solve_euler(g, r):
    """The CLI's solve along the Euler ordering: (ex, Kneser graph,
    chromatic certificate, lower bound, bounds by ordering)."""
    return _solve(g, r, {"euler": euler_ordering(g)}, DSATUR_BUDGET)


def test_criterion_1_schrijver_table():
    started = time.time()
    for n, r in [(5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 3)]:
        case_start = time.time()
        _, kg, hot, _, _ = _solve_euler(make_cycle(n), r)
        cold = chromatic_number(kg)
        assert hot.exact and cold.exact
        assert hot.chi == cold.chi == n - 2 * r + 2, (n, r)
        assert time.time() - case_start < 60
    _report(1, "chi(KG(C_n, rK2)) = n - 2r + 2 on all six table entries", started)


def test_criterion_2_cycle_turan_values():
    started = time.time()
    checked = 0
    for n in range(5, 13):
        for r in range(2, 6):
            if n < 2 * r + 1:
                continue
            cert = turan_matchings(make_cycle(n), r)
            assert cert.method == "structure"
            assert cert.ex_value == 2 * r - 2, (n, r)
            checked += 1
    _report(2, f"ex(C_n, rK2) = 2r - 2 certified by structures on {checked} cases", started)


def test_criterion_3_permutation_graphs():
    started = time.time()
    for m, n, r in [(2, 2, 2), (4, 2, 2), (6, 2, 2), (4, 3, 2)]:
        _, kg, hot, _, _ = _solve_euler(make_complete_bipartite(m, n), r)
        cold = chromatic_number(kg)
        assert hot.exact and cold.exact
        assert hot.chi == cold.chi == m * (n - r + 1), (m, n, r)
    assert time.time() - started < 300
    _report(3, "chi(KG(K_{m,n}, rK2)) = m(n - r + 1) on all four table entries", started)


def test_criterion_4_disconnected_inequality():
    started = time.time()
    g = make_disjoint_matching(5)
    ex = turan_matchings(g, 2)
    chi = chromatic_number(matching_graph(g, 2)).chi
    assert ex.ex_value == 1
    assert chi == 3
    assert chi == g.m - 2 * ex.ex_value
    assert chi != g.m - ex.ex_value
    _report(4, "5K2: chi = |E| - 2 ex = 3, differing from |E| - ex", started)


def test_criterion_5_star_formula_pipeline():
    started = time.time()
    cases = [
        (make_cycle(7), 2), (make_cycle(7), 3),
        (make_cycle(9), 2), (make_cycle(9), 3),
        (make_complete_bipartite(4, 3), 2),
        (make_complete_bipartite(6, 4), 2),
    ]
    for g, r in cases:
        rep = star_formula_conditions(g, r)
        assert rep.applicable, (g, r)
        _, kg, cert, lb, bounds = _solve_euler(g, r)
        if rep.odd_top_count == 0:
            assert bounds["euler"]["ex_salt"] <= 1 + rep.sum_top_degrees
        else:
            assert bounds["euler"]["ex_alt"] <= rep.sum_top_degrees
        assert lb == rep.formula_value
        assert cert.exact and cert.chi == rep.formula_value
        # independent cold solve where the matching graph is small enough
        if g.m <= 12:
            cold = chromatic_number(kg)
            assert cold.exact and cold.chi == rep.formula_value
    assert time.time() - started < 600
    _report(5, "euler-ordering alternation bound = |E| - sum(top degrees) = chi "
               "on all six applicable instances", started)


def test_criterion_6_tutte_berge():
    started = time.time()
    count = 0
    for g in connected_graphs_up_to(7):
        w = tutte_berge(g)
        assert 2 * w.nu == g.n - odd_components(g, w.s) + len(w.s)
        assert 2 * w.nu == exhaustive_tutte_berge(g)[0]
        assert w.nu == nx_matching_size(g)
        count += 1
    rng = random.Random(20240817)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        w = tutte_berge(g)
        assert 2 * w.nu == g.n - odd_components(g, w.s) + len(w.s)
        assert 2 * w.nu == exhaustive_tutte_berge(g)[0]
        assert w.nu == nx_matching_size(g)
    _report(6, f"Tutte-Berge equality, matching the exhaustive minimum, on {count}"
               " connected graphs (n <= 7) and 1000 random graphs (n <= 9)", started)


def test_criterion_7_sandwich():
    started = time.time()
    rng = random.Random(7340)
    checked = 0
    while checked < 200:
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        if g.m == 0 or g.m > 12:
            continue
        r = rng.randint(1, 3)
        sigma = EdgeOrdering(tuple(rng.sample(range(g.m), g.m)))
        cert = turan_matchings(g, r)
        ex = cert.ex_value
        ea = ex_alt_salt(g, sigma, cert.masks)[0]
        assert ex <= ea <= 2 * ex, (g.edges, r, sigma.perm)
        checked += 1
    _report(7, f"ex <= ex_alt along sigma <= 2 ex on {checked} random (G, sigma, r)", started)


def test_criterion_8_correspondence():
    started = time.time()
    rng = random.Random(8921)
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(2, 6), rng.random())
        if g.m == 0 or g.m > 10:
            continue
        r = rng.randint(1, 3)
        sigma = EdgeOrdering(tuple(rng.sample(range(g.m), g.m)))
        mh = matching_hypergraph(g, r)
        assert (alt_sigma(mh, sigma), salt_sigma(mh, sigma)) == ex_alt_salt(
            g, sigma, turan_matchings(g, r).masks
        )
        checked += 1
    _report(8, f"alt/salt of the matching hypergraph equal ex_alt/ex_salt on "
               f"{checked} random instances", started)


def test_criterion_9_hypergraph_lower_bounds():
    started = time.time()
    rng = random.Random(990001)
    for _ in range(200):
        h = random_hypergraph(rng, 8, 6)
        sigma = EdgeOrdering(tuple(rng.sample(range(h.ground_n), h.ground_n)))
        lo_alt, lo_salt = chi_lower_bounds(h, sigma)
        cert = chromatic_number(general_kneser(h))
        assert cert.exact
        assert cert.chi >= lo_alt, (h, sigma.perm)
        assert cert.chi >= lo_salt, (h, sigma.perm)
    _report(9, "chi(KG(H)) >= both alternation bounds on 200 random hypergraphs", started)


def test_criterion_10_c4_decompositions():
    started = time.time()
    for m, n in [(2, 2), (6, 6), (6, 8)]:
        res = monogamous_c4_decomposition(m, n)
        assert res.status == "found", (m, n)
        assert verify_c4_decomposition(res.decomposition).ok
        assert len(res.decomposition.blocks) == m * n // 4
    refute_start = time.time()
    res = monogamous_c4_decomposition(4, 4)
    assert res.status == "none"
    assert res.nodes > 0
    assert time.time() - refute_start < 600
    _report(10, "monogamous C4 decompositions found for (2,2), (6,6), (6,8); "
                f"(4,4) refuted exhaustively in {res.nodes} nodes", started)


def test_criterion_11_conjecture_scan():
    started = time.time()
    report = cmd_scan(6, 2)
    results = report["results"]
    assert results["graphs_scanned"] == 143
    assert results["graphs_by_vertex_count"] == {
        "1": 1, "2": 1, "3": 2, "4": 6, "5": 21, "6": 112,
    }
    assert results["capacity_failures"] == []
    for rec in results["records"]:
        assert rec["certified"], rec
        assert rec["chi"] is not None
        assert rec["certificates"]["coloring"] is not None
        assert rec["certificates"]["extremal_edges"] is not None
        assert rec["certificates"]["lower_witness"] is not None
    assert results["violations"] == []
    assert time.time() - started < 1800
    _report(11, "conjecture scan over all 143 connected graphs (n <= 6, r = 2): "
                "certified chi and ex everywhere, zero violations", started)
