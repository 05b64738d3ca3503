"""The Euler edge ordering and the top-degree chromatic formula's hypotheses.

``euler_ordering`` tours each component of the graph in turn (after
attaching an auxiliary vertex to the component's odd-degree vertices when
needed) and lists the edges in tour order; along such an ordering no color
of an alternating coloring can meet more than half of the edges at any
non-start vertex, which is what makes the top-degree chromatic formula work
on sparse graphs.  It hands ``graphs.eulerian_tour`` plain maps from edge id
to end pair: host edges keep their ids, auxiliary edges are numbered after
them, and auxiliary vertices are labelled above every host vertex.
``star_formula_conditions`` checks the formula's hypotheses one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alternation import EdgeOrdering
from .errors import CapacityError
from .graphs import (
    Graph,
    _bits,
    component_masks,
    degree_order,
    eulerian_tour,
    is_connected,
    odd_girth,
)


# ---------------------------------------------------------------------------
# Applicability of the top-degree chromatic formula
# chi(KG(G, rK2)) = |E| - sum of the r-1 largest degrees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarFormulaReport:
    """Condition-by-condition applicability of the top-degree formula."""

    r: int
    connected: bool
    odd_girth: float
    order: tuple[int, ...] | None   # degree order with an independent (r-1)-prefix
    prefix_search: str              # "found", "none" (also for r outside 2..n) or "budget"
    top_degree: int | None          # degree of v_{r-1}
    next_degree: int | None         # degree of v_r
    degree_threshold: float         # max(odd_girth/2, (top_degree+1)/4)
    ratio_ok: bool
    parity_ok: bool                 # top degree even, or strictly above next
    odd_top_count: int | None       # odd degrees among the first r-1
    sum_top_degrees: int | None
    formula_value: int | None       # |E| - sum_top_degrees
    applicable: bool


def star_formula_conditions(g: Graph, r: int) -> StarFormulaReport:
    """Evaluate every hypothesis of the top-degree formula; never raises.

    ``prefix_search`` tells a refuted independent-prefix hypothesis
    ("none") from a search that ran out of budget ("budget").
    """
    connected = is_connected(g)
    girth = odd_girth(g)
    try:
        order = degree_order(g, r - 1) if 2 <= r <= g.n else None
        prefix_search = "none" if order is None else "found"
    except CapacityError:
        order, prefix_search = None, "budget"
    if order is None:
        return StarFormulaReport(
            r, connected, girth, None, prefix_search, None, None, -math.inf,
            False, False, None, None, None, False,
        )
    degs = [g.degrees[v] for v in order]
    top_degree = degs[r - 2]
    next_degree = degs[r - 1]
    threshold = max(girth / 2, (top_degree + 1) / 4)
    ratio_ok = r <= threshold
    parity_ok = top_degree % 2 == 0 or top_degree > next_degree
    odd_top = sum(1 for d in degs[: r - 1] if d % 2 == 1)
    sum_top = sum(degs[: r - 1])
    applicable = connected and ratio_ok and parity_ok
    return StarFormulaReport(
        r, connected, girth, order, prefix_search, top_degree, next_degree,
        threshold, ratio_ok, parity_ok, odd_top, sum_top,
        g.m - sum_top, applicable,
    )


def euler_ordering(g: Graph) -> EdgeOrdering:
    """Edge ordering from deterministic Eulerian tours of the components.

    The components are toured in order of their lowest vertex.  A component
    with odd-degree vertices gets an auxiliary vertex of its own, joined to
    each of them, and its tour starts there; otherwise the tour starts at
    the component's last vertex in the degree order.  Auxiliary vertices
    are labelled ``g.n, g.n + 1, ...`` and their edges get ids ``g.m,
    g.m + 1, ...``, so each component is toured as it would be on its own.
    Each tour reads only its component's edges, so the whole ordering costs
    time linear in the host.  The tours are projected onto the graph's own
    edges in traversal order.
    """
    comps = component_masks(g)
    label = [0] * g.n
    for c, comp in enumerate(comps):
        for v in _bits(comp):
            label[v] = c
    buckets: list[dict[int, tuple[int, int]]] = [{} for _ in comps]
    for e, pair in enumerate(g.edges):
        buckets[label[pair[0]]][e] = pair
    eid, aux = g.m, g.n
    order: list[int] = []
    for comp, edges in zip(comps, buckets):
        members = _bits(comp)
        odd = [v for v in members if g.degrees[v] % 2 == 1]
        if odd:
            for v in odd:
                edges[eid] = (v, aux)
                eid += 1
            start = aux
            aux += 1
        else:
            start = max(members, key=lambda v: (-g.degrees[v], v))
        order.extend(e for e in eulerian_tour(edges, start) if e < g.m)
    return EdgeOrdering(tuple(order))
