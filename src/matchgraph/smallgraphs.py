"""Enumeration of connected graphs up to isomorphism at small orders.

Canonical forms are permutation-minimal edge bitmasks (vertex pairs in
lexicographic order), found by handing out labels from the top without
listing permutations.  The connected graphs on n vertices are grown from
the (n-1)-vertex representatives by one new vertex with every nonempty
neighbourhood.  A child is canonicalised only if its new vertex passes a
deletion test, read off the adjacency masks before any ``Graph`` is built:
among the non-cut vertices it has the least degree and, among those of that
degree, the lexicographically largest ascending list of neighbour degrees
(ties pass).  This is a relaxed canonical deletion, after McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998.  Every
connected graph is still reached: it has a non-cut vertex (a leaf of a
spanning tree), the test reads only isomorphism invariants, so some vertex
passes it, and deleting that vertex leaves a connected graph, isomorphic to
some parent, whose child with the matching neighbourhood passes too.  The
scan uses n <= 7 (996 graphs, 2168 canonical forms, against 2796 with the
degree test alone).  Through n = 8 (11117 graphs on 8 vertices) it takes
22206 forms, against 31055 with the degree test alone and 71300 with one
form per automorphism orbit of the parent's neighbourhoods.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph


def canonical_form(g: Graph) -> int:
    """Permutation-minimal edge bitmask; equal forms mean isomorphic graphs.

    Labels are handed out from n - 1 downwards.  The bits of the pairs
    (k, j) with j > k lie above the bits of every pair with a smaller first
    label, so giving label k to a vertex fixes the next block of high bits:
    its adjacency to the vertices already labelled.  ``codes`` holds that
    block for every unlabelled vertex (-1 marks a labelled one); only the
    partial labellings whose fixed bits are smallest are kept, and those
    with equal codes complete alike, so each code tuple is kept once.
    """
    n = g.n
    adj = g.adj_masks
    form = 0
    level = {(0,) * n}
    for k in range(n - 1, -1, -1):
        best = min(c for codes in level for c in codes if c >= 0)
        form |= best << (k * n - k * (k + 1) // 2)
        reached = set()
        for codes in level:
            for v, c in enumerate(codes):
                if c == best:
                    reached.add(tuple([
                        -1 if d < 0 or u == v else d << 1 | adj[v] >> u & 1
                        for u, d in enumerate(codes)
                    ]))
        level = reached
    return form


def _separates(adj: list[int], u: int) -> bool:
    """Is u a cut vertex of the connected graph with adjacency masks adj?"""
    rest = (1 << len(adj)) - 1 ^ 1 << u
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= adj[bit.bit_length() - 1]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen != rest


def _neighbour_degrees(adj: list[int], degrees: list[int], v: int) -> list[int]:
    """The degrees of v's neighbours, ascending."""
    out = []
    mask = adj[v]
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(degrees[bit.bit_length() - 1])
    out.sort()
    return out


def _deletable(adj: list[int], v: int) -> bool:
    """Does v pass the deletion test in the connected graph with adjacency
    masks adj?  No non-cut vertex may have lower degree, or equal degree and
    a larger ascending list of neighbour degrees; v itself must be no cut
    vertex.  Cut tests run last, since most candidates fail on degrees."""
    degrees = [mask.bit_count() for mask in adj]
    d = degrees[v]
    key = None
    for u, du in enumerate(degrees):
        if du > d or u == v:
            continue
        if du == d:
            if key is None:
                key = _neighbour_degrees(adj, degrees, v)
            if _neighbour_degrees(adj, degrees, u) <= key:
                continue
        if not _separates(adj, u):
            return False
    return not _separates(adj, v)


def _next_order(smaller: list[Graph], n: int) -> list[Graph]:
    """Connected n-vertex representatives grown from the (n-1)-vertex ones,
    ordered by edge count then canonical form."""
    if n == 1:
        return [Graph(1, ())]
    forms = set()
    new = n - 1
    top = 1 << new
    for h in smaller:
        parent = h.adj_masks
        for nbrs in range(1, top):
            adj = [mask | top if nbrs >> u & 1 else mask for u, mask in enumerate(parent)]
            adj.append(nbrs)
            if _deletable(adj, new):
                g = Graph(n, h.edges + tuple((u, new) for u in range(new) if nbrs >> u & 1))
                forms.add(canonical_form(g))
    # One tuple per vertex pair, shared by every graph of this order: scan
    # records keep these edge tuples.
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        Graph(n, tuple(p for i, p in enumerate(pairs) if f >> i & 1))
        for f in sorted(forms, key=lambda f: (f.bit_count(), f))
    ]


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    """Connected graphs up to isomorphism with 1..max_n vertices, in
    (vertex count, edge count, canonical form) order."""
    graphs: list[Graph] = []
    for n in range(1, max_n + 1):
        graphs = _next_order(graphs, n)
        yield from graphs
