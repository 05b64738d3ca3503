"""Enumeration of connected graphs up to isomorphism at small orders.

Canonical forms are permutation-minimal edge bitmasks (vertex pairs in
lexicographic order), found by handing out labels from the top without
listing permutations.  The connected graphs on n vertices are grown from
the (n-1)-vertex representatives by one new vertex with every nonempty
neighbourhood: every connected graph has a non-cut vertex (a leaf of a
spanning tree), so every one is reached.  The scan uses n <= 7 (853
graphs); n = 8 (11117 graphs) works but takes about 20 times as long.
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
        level = {
            tuple(
                -1 if d < 0 or u == v else d << 1 | adj[v] >> u & 1
                for u, d in enumerate(codes)
            )
            for codes in level
            for v, c in enumerate(codes)
            if c == best
        }
    return form


def _next_order(smaller: list[Graph], n: int) -> list[Graph]:
    """Connected n-vertex representatives grown from the (n-1)-vertex ones,
    ordered by edge count then canonical form."""
    if n == 1:
        return [Graph(1, ())]
    forms = set()
    for h in smaller:
        for nbrs in range(1, 1 << (n - 1)):
            star = tuple((u, n - 1) for u in range(n - 1) if nbrs >> u & 1)
            forms.add(canonical_form(Graph(n, h.edges + star)))
    # One tuple per vertex pair, shared by every graph of this order: scan
    # records keep these edge tuples.
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        Graph(n, tuple(p for i, p in enumerate(pairs) if f >> i & 1))
        for f in sorted(forms, key=lambda f: (f.bit_count(), f))
    ]


def connected_graphs_exactly(n: int) -> list[Graph]:
    """Canonical representatives of all connected graphs on exactly n vertices,
    ordered by edge count then canonical form."""
    return [g for g in connected_graphs_up_to(n) if g.n == n]


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    """Connected graphs up to isomorphism with 1..max_n vertices, in
    (vertex count, edge count, canonical form) order."""
    graphs: list[Graph] = []
    for n in range(1, max_n + 1):
        graphs = _next_order(graphs, n)
        yield from graphs
