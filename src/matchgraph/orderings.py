"""The Euler edge ordering and the top-degree chromatic formula's hypotheses.

``euler_ordering`` tours each component of the graph in turn (after
attaching an auxiliary vertex to the component's odd-degree vertices when
needed) and lists the edges in tour order; along such an ordering no color
of an alternating coloring can meet more than half of the edges at any
non-start vertex, which is what makes the top-degree chromatic formula work
on sparse graphs.  It hands ``graphs.eulerian_tour`` plain maps from edge id
to end pair: host edges keep their ids, auxiliary edges are numbered after
them, and auxiliary vertices are labelled above every host vertex.
``star_formula_conditions`` checks the formula's hypotheses one by one;
``has_independent_prefix`` is the search behind the one that is not a
function of the degree sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alternation import EdgeOrdering
from .errors import CapacityError
from .graphs import (
    Graph,
    _bits,
    component_masks,
    eulerian_tour,
    is_connected,
    odd_girth,
)


# ---------------------------------------------------------------------------
# Applicability of the top-degree chromatic formula
# chi(KG(G, rK2)) = |E| - sum of the r-1 largest degrees.
# ---------------------------------------------------------------------------

# Vertices the independent-prefix search may place before it gives up; the
# search is exponential when no prefix exists (20K2 at k = 21).
PREFIX_SEARCH_BUDGET = 100_000


def has_independent_prefix(g: Graph, k: int) -> bool:
    """Do some k pairwise non-adjacent vertices head a non-increasing
    degree order?

    Every vertex of degree above the k-th largest must be among them; the
    rest are searched for among the vertices of exactly that degree, in
    ascending index order.  Raises ValueError for k outside 1..n, and
    CapacityError when the search places more than ``PREFIX_SEARCH_BUDGET``
    vertices before it settles the question.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"prefix length {k} is outside 1..{g.n}")
    degrees = g.degrees
    adj = g.adj_masks
    cut = sorted(degrees, reverse=True)[k - 1]
    blocked = 0  # neighbours of the vertices placed so far
    fixed = 0
    for v in range(g.n):
        if degrees[v] > cut:
            if blocked >> v & 1:
                return False
            blocked |= adj[v]
            fixed += 1
    tied = [v for v in range(g.n) if degrees[v] == cut]
    placed = 0

    def pick(start: int, need: int, blocked: int) -> bool:
        """Are there `need` pairwise non-adjacent vertices of tied[start:] outside `blocked`?"""
        nonlocal placed
        if need == 0:
            return True
        for i in range(start, len(tied) - need + 1):
            v = tied[i]
            if not blocked >> v & 1:
                placed += 1
                if placed > PREFIX_SEARCH_BUDGET:
                    raise CapacityError(
                        f"independent-prefix search exceeded {PREFIX_SEARCH_BUDGET} vertices"
                    )
                if pick(i + 1, need - 1, blocked | adj[v]):
                    return True
        return False

    return pick(0, k - fixed, blocked)


@dataclass(frozen=True)
class StarFormulaReport:
    """Condition-by-condition applicability of the top-degree formula."""

    r: int
    connected: bool
    odd_girth: float
    prefix_search: str              # "found", "none" (also for r outside 2..n) or "budget"
    top_degree: int | None          # (r-1)-th largest degree; None for r outside 2..n
    next_degree: int | None         # r-th largest degree
    ratio_ok: bool                  # r <= max(odd_girth/2, (top_degree+1)/4)
    parity_ok: bool                 # top degree even, or strictly above next
    odd_top_count: int | None       # odd degrees among the r-1 largest
    sum_top_degrees: int | None
    formula_value: int | None       # |E| - sum_top_degrees, when a prefix was found
    applicable: bool


def star_formula_conditions(g: Graph, r: int) -> StarFormulaReport:
    """Evaluate every hypothesis of the top-degree formula; never raises.

    Only the independent prefix needs a search, and it gates only
    ``formula_value`` and ``applicable``; the other hypotheses read the
    degree sequence.  ``prefix_search`` tells a refuted independent-prefix
    hypothesis ("none") from a search that ran out of budget ("budget").
    """
    connected = is_connected(g)
    girth = odd_girth(g)
    if not 2 <= r <= g.n:
        return StarFormulaReport(
            r, connected, girth, "none", None, None, False, False, None, None, None, False,
        )
    try:
        prefix_search = "found" if has_independent_prefix(g, r - 1) else "none"
    except CapacityError:
        prefix_search = "budget"
    degs = sorted(g.degrees, reverse=True)
    top_degree = degs[r - 2]
    next_degree = degs[r - 1]
    ratio_ok = r <= max(girth / 2, (top_degree + 1) / 4)
    parity_ok = top_degree % 2 == 0 or top_degree > next_degree
    odd_top = sum(1 for d in degs[: r - 1] if d % 2 == 1)
    sum_top = sum(degs[: r - 1])
    found = prefix_search == "found"
    return StarFormulaReport(
        r, connected, girth, prefix_search, top_degree, next_degree,
        ratio_ok, parity_ok, odd_top, sum_top,
        g.m - sum_top if found else None,
        found and connected and ratio_ok and parity_ok,
    )


def euler_ordering(g: Graph) -> EdgeOrdering:
    """Edge ordering from deterministic Eulerian tours of the components.

    The components are toured in order of their lowest vertex.  A component
    with odd-degree vertices gets an auxiliary vertex of its own, joined to
    each of them, and its tour starts there; otherwise the tour starts at
    the component's last vertex in order of non-increasing degree, ties by
    ascending index.  Auxiliary vertices are labelled ``g.n, g.n + 1, ...``
    and their edges get ids ``g.m, g.m + 1, ...``, so each component is
    toured as it would be on its own.  Each tour reads only its component's
    edges, so the whole ordering costs time linear in the host.  The tours
    are projected onto the graph's own edges in traversal order.
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
