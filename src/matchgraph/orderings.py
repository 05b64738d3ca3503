"""Constructive edge orderings and the certificates that power them.

Two ordering constructions are provided.  ``euler_ordering`` tours each
component of the graph in turn (after attaching an auxiliary vertex to the
component's odd-degree vertices when needed) and lists the edges in tour
order; along such an ordering no color of an alternating coloring can meet
more than half of the edges at any non-start vertex, which is what makes
the top-degree chromatic formula work on sparse graphs.  ``apex_ordering``
builds the staged tour through an apex vertex with doubled edges, guided
by a locally-Eulerian certificate; it is the dense-graph counterpart.
Both hand ``graphs.eulerian_tour`` plain maps from edge id to end pair:
host edges keep their ids, auxiliary edges are numbered after them, and
auxiliary vertices are labelled above every host vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .alternation import EdgeOrdering
from .errors import CertificateError
from .graphs import (
    DegreeOrder,
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
    order: DegreeOrder | None
    independent_prefix_ok: bool
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
    """Evaluate every hypothesis of the top-degree formula; never raises."""
    connected = is_connected(g)
    girth = odd_girth(g)
    order = degree_order(g, require_independent_prefix=r - 1) if 2 <= r <= g.n else None
    if order is None:
        return StarFormulaReport(
            r, connected, girth, None, False, None, None, -math.inf,
            False, False, None, None, None, False,
        )
    degs = [g.degrees[v] for v in order.perm]
    top_degree = degs[r - 2]
    next_degree = degs[r - 1]
    threshold = max(girth / 2, (top_degree + 1) / 4)
    ratio_ok = r <= threshold
    parity_ok = top_degree % 2 == 0 or top_degree > next_degree
    odd_top = sum(1 for d in degs[: r - 1] if d % 2 == 1)
    sum_top = sum(degs[: r - 1])
    applicable = connected and ratio_ok and parity_ok
    return StarFormulaReport(
        r, connected, girth, order, True, top_degree, next_degree,
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


# ---------------------------------------------------------------------------
# Locally-Eulerian certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocallyEulerianCertificate:
    """Per-vertex edge-disjoint Eulerian subgraphs with dominant root degree.

    ``roots`` must be a permutation of the host's vertices; ``subgraphs[i]``
    is the edge-index set of the subgraph rooted at ``roots[i]``.  Validity
    for parameters (r, c) means every root degree is at least
    (r-1) * (any other degree in its subgraph) + c.
    """

    host: Graph
    roots: tuple[int, ...]
    subgraphs: tuple[frozenset[int], ...]
    r: int
    c: int

    def to_json_dict(self) -> dict:
        return {
            "host": {"n": self.host.n, "edges": [list(e) for e in self.host.edges]},
            "roots": list(self.roots),
            "subgraphs": [sorted(s) for s in self.subgraphs],
            "r": self.r,
            "c": self.c,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LocallyEulerianCertificate":
        host = Graph(data["host"]["n"], tuple(tuple(e) for e in data["host"]["edges"]))
        return cls(
            host,
            tuple(data["roots"]),
            tuple(frozenset(s) for s in data["subgraphs"]),
            data["r"],
            data["c"],
        )


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violation: str | None = None


def verify_locally_eulerian(cert: LocallyEulerianCertificate) -> VerificationResult:
    """Check every certificate clause; reports the first violation found."""
    host = cert.host
    n = host.n

    def fail(msg):
        return VerificationResult(False, msg)

    if sorted(cert.roots) != list(range(n)):
        return fail("roots do not cover every host vertex exactly once")
    if len(cert.subgraphs) != n:
        return fail(f"expected {n} subgraphs, got {len(cert.subgraphs)}")

    seen = 0
    for i, sub in enumerate(cert.subgraphs):
        mask = 0
        for e in sub:
            if not 0 <= e < host.m:
                return fail(f"subgraph {i}: edge index {e} not in host")
            mask |= 1 << e
        if mask & seen:
            return fail(f"subgraph {i} shares an edge with an earlier subgraph")
        seen |= mask

    for i, sub in enumerate(cert.subgraphs):
        root = cert.roots[i]
        if not sub:
            return fail(f"subgraph {i} (root {root}) is trivial")
        deg: dict[int, int] = {}
        for e in sub:
            u, v = host.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if root not in deg:
            return fail(f"root {root} is not a vertex of subgraph {i}")
        odd = [v for v, d in deg.items() if d % 2 == 1]
        if odd:
            return fail(f"subgraph {i}: vertex {odd[0]} has odd degree")
        pieces = component_masks(Graph(n, tuple(host.edges[e] for e in sub)))
        if sum(1 for c in pieces if c.bit_count() > 1) != 1:
            return fail(f"subgraph {i} is not connected")
        need = cert.r - 1
        for v, d in deg.items():
            if v != root and deg[root] < need * d + cert.c:
                return fail(
                    f"subgraph {i}: root degree {deg[root]} below "
                    f"(r-1)*{d}+{cert.c} at vertex {v}"
                )
    return VerificationResult(True)


# ---------------------------------------------------------------------------
# The apex ordering for dense graphs.
# ---------------------------------------------------------------------------

def apex_ordering(g: Graph, host: Graph, cert: LocallyEulerianCertificate) -> EdgeOrdering:
    """Edge ordering of g from the staged apex tour over a certified host.

    An apex vertex ``host.n`` is joined to every host vertex by a doubled
    edge (ids ``host.m + 2i`` and ``host.m + 2i + 1``, in certificate
    order); if the resulting multigraph has odd vertices a parity vertex
    ``host.n + 1`` is joined to them.  Step i tours: apex spoke out, the
    certified subgraph rooted at roots[i], at most one still-untraversed
    leftover component containing the root, then the spoke back.  The
    concatenation is an Eulerian tour of the auxiliary multigraph;
    projecting it to E(g) gives the ordering.
    """
    check = verify_locally_eulerian(cert)
    if not check.ok:
        raise CertificateError(check.violation)
    if cert.host != host:
        raise CertificateError("certificate was issued for a different host")
    if g.n > host.n:
        raise ValueError("g has more vertices than the host")
    for u, v in g.edges:
        if not host.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) of g is not a host edge")

    n = host.n
    apex = n
    odd = [v for v in range(n) if host.degrees[v] % 2 == 1]
    extra: list[tuple[int, int]] = []
    for root in cert.roots:
        extra.append((root, apex))
        extra.append((root, apex))
    extra.extend((v, n + 1) for v in odd)  # the parity vertex
    pairs = host.edges + tuple(extra)

    covered = reduce(lambda acc, s: acc | frozenset(s), cert.subgraphs, frozenset())
    leftover_ids = [e for e in range(host.m) if e not in covered]
    leftover_ids += range(host.m + 2 * n, len(pairs))  # the parity edges
    leftover_graph = Graph(n + 2, tuple(pairs[e] for e in leftover_ids))
    pending = [c for c in component_masks(leftover_graph) if c.bit_count() > 1]

    tour: list[int] = []
    for i, root in enumerate(cert.roots):
        tour.append(host.m + 2 * i)
        tour.extend(eulerian_tour({e: pairs[e] for e in cert.subgraphs[i]}, root))
        comp = next((c for c in pending if c >> root & 1), None)
        if comp is not None:
            pending.remove(comp)
            comp_edges = {e: pairs[e] for e in leftover_ids if comp >> pairs[e][0] & 1}
            tour.extend(eulerian_tour(comp_edges, root))
        tour.append(host.m + 2 * i + 1)
    if sorted(tour) != list(range(len(pairs))):
        raise CertificateError("staged walk is not an Eulerian tour of the auxiliary graph")

    g_ids = []
    for eid in tour:
        if eid < host.m:
            pair = host.edges[eid]
            idx = g.edge_index.get(pair)
            if idx is not None:
                g_ids.append(idx)
    return EdgeOrdering(tuple(g_ids))

