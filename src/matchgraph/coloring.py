"""Exact chromatic numbers with certificates.

The solver is a DSATUR-style branch and bound: vertices are colored in
order of saturation degree, a greedy clique seeds the lower bound, and a
node budget guards against runaway searches.  The search walks an explicit
stack, so its depth needs no recursion headroom.  A caller holding an
external lower bound (the alternation bound on a matching graph) can
pass it in together with a start coloring, which lets the
search end as soon as the bound is met; without one the search starts
from one color per vertex, and its first descent is the greedy DSATUR
coloring.  The clique search stops at cap = min(ub, packing bound): no
clique has more vertices than the start coloring has colors or, on a
general Kneser graph, than the ground set size over the smallest
hyperedge size.  When an external lower bound exceeds cap, no clique can
bind, so none is sought.  When the bounds meet, no search runs, and a
general Kneser graph's adjacency is never built.  One rule names the lower
witness, exact or not.
When the budget runs out, or the graph is past a vertex cap that keeps the
adjacency small, the result is an explicit [lb, ub] interval, never a
wrong exact claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import CertificateError
from .graphs import Graph
from .hypergraphs import Hypergraph, KneserGraph

# Default DSATUR node budget of `chromatic_number` and of every command.
DSATUR_BUDGET = 10_000_000

# Most vertices `chromatic_number` builds an adjacency for.  A general
# Kneser graph's adjacency takes about N^2/8 bytes (50 MB here), and every
# DSATUR node scans all N vertices; past the cap the bounds are returned as
# an interval after 0 nodes.  K_12 at r = 3 (N = 13,860) still searches.
SEARCH_VERTEX_CAP = 20_000


@dataclass(frozen=True)
class ChromaticCertificate:
    """Exact chromatic number, or a sound interval when inexact.

    ``lower_witness`` is a (kind, payload) pair with kind one of
    "empty", "clique" (payload: vertex tuple), "exhausted" (search proved
    no smaller coloring), or "external" (payload: "alternation bound", the
    trusted bound the caller passed in).
    """

    chi: int | None
    coloring: tuple[int, ...]
    lower_witness: tuple[str, object]
    exact: bool
    bounds: tuple[int, int]
    nodes: int


def is_proper(g: Graph | KneserGraph, coloring: Sequence[int]) -> bool:
    """True iff the coloring is total on vertices and no edge is monochromatic.

    On a general Kneser graph a color class is independent exactly when its
    hyperedges pairwise meet, and that is decided from the hyperedge masks,
    so the adjacency is not built.  A class whose hyperedges share a ground
    element passes at once; any other class is checked pair by pair.
    """
    if len(coloring) != g.n or any(c is None or c < 0 for c in coloring):
        raise ValueError("coloring must assign a color to every vertex")
    if isinstance(g, KneserGraph):
        hyperedges = g.source.masks
        common: dict[int, int] = {}
        for mask, c in zip(hyperedges, coloring):
            common[c] = common.get(c, mask) & mask
        apart = {c: [] for c, meet in common.items() if not meet}
        if not apart:
            return True
        for mask, c in zip(hyperedges, coloring):
            if c in apart:
                apart[c].append(mask)
        return all(
            all(a & b for a, b in combinations(masks, 2)) for masks in apart.values()
        )
    classes: dict[int, int] = {}
    for v, c in enumerate(coloring):
        classes[c] = classes.get(c, 0) | 1 << v
    masks = g.adj_masks
    return not any(masks[v] & classes[c] for v, c in enumerate(coloring))


def greedy_clique(g: Graph | KneserGraph, cap: int) -> tuple[int, ...]:
    """Deterministic greedy clique, used as an initial chromatic lower bound.

    Vertices are ranked by (-degree, index).  From each start vertex the
    clique grows by the best-ranked vertex adjacent to all members so far;
    the largest clique, first found on ties, wins.  Each member is
    better-ranked than every common neighbour left after it, so one walk
    down the ranking grows a clique.  ``cap``, an upper bound on the clique
    number, ends the search once the best clique reaches it: no later start
    can beat that clique, so the result is the same as with ``cap = n``.
    """
    n = g.n
    if n == 0:
        return ()
    degrees = g.degrees
    masks = g.adj_masks
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    best: tuple[int, ...] = (order[0],)
    for start in order:
        if len(best) >= cap or degrees[start] < len(best):
            break  # no later start has room for a larger clique
        clique = [start]
        common = masks[start]
        for v in order:
            if not common:
                break
            if common >> v & 1:
                clique.append(v)
                common &= masks[v]
        if len(clique) > len(best):
            best = tuple(clique)
    return tuple(sorted(best))


def _canonicalize(coloring: Sequence[int]) -> tuple[int, ...]:
    remap = {c: i for i, c in enumerate(dict.fromkeys(coloring))}
    return tuple(map(remap.__getitem__, coloring))


def _dsatur(g: Graph | KneserGraph, lb: int, ub: int, best: tuple[int, ...],
            node_budget: int) -> tuple[int, tuple[int, ...], int, bool]:
    """DSATUR from the ``ub`` colors of ``best`` down to ``lb``: (ub, its
    coloring, nodes, exhausted).  A node counts when entered while ub > lb;
    past ``node_budget`` nodes the search stops.  One stack frame per colored
    vertex: (vertex, color, color limit, colors used above, neighbours touched).
    """
    n = g.n
    masks, degrees = g.adj_masks, g.degrees
    colors = [-1] * n
    forbidden = [0] * n
    stack: list[tuple] = []
    nodes = used = 0
    while True:
        if ub > lb:  # enter a node
            nodes += 1
            if nodes > node_budget:
                return ub, best, nodes, False
            if len(stack) == n:
                if used < ub:
                    ub, best = used, tuple(colors)
            else:
                # Most saturated, then highest degree, then least index; no call
                # per vertex, whose frame costs more at some caller depths.
                v = sat = deg = -1
                for u in range(n):
                    if colors[u] == -1 and (forbidden[u].bit_count(), degrees[u]) > (sat, deg):
                        v, sat, deg = u, forbidden[u].bit_count(), degrees[u]
                stack.append((v, -1, min(used + 1, ub - 1), used, ()))
        # Back up to the deepest vertex with a color left to try, and color it.
        while stack:
            v, c, limit, above, touched = stack[-1]
            colors[v] = -1
            for w in touched:
                forbidden[w] &= ~(1 << c)
            c += 1
            while c < limit and forbidden[v] >> c & 1:
                c += 1
            if c >= limit or ub <= lb:
                stack.pop()
                continue
            colors[v] = c
            bit_c = 1 << c
            touched = []
            nb = masks[v]
            while nb:
                bit = nb & -nb
                nb ^= bit
                w = bit.bit_length() - 1
                if colors[w] == -1 and not forbidden[w] & bit_c:
                    forbidden[w] |= bit_c
                    touched.append(w)
            stack[-1] = (v, c, limit, above, touched)
            used = max(above, c + 1)
            break
        else:
            return ub, best, nodes, True


def chromatic_number(
    g: Graph | KneserGraph,
    node_budget: int = DSATUR_BUDGET,
    known_lower: int | None = None,
    initial_coloring: Sequence[int] | None = None,
) -> ChromaticCertificate:
    """Exact chromatic number with a proper coloring and a lower-bound witness.

    The value (not the coloring) is deterministic across runs.  On budget
    exhaustion the certificate carries ``exact=False`` and sound bounds.
    Without ``initial_coloring`` the search starts from one color per
    vertex, so its first descent is the greedy DSATUR coloring.
    ``known_lower`` must be a sound lower bound, the alternation bound on a
    matching graph; it is trusted, and a proper coloring with fewer colors
    (supplied or found by the search) contradicts it and raises
    CertificateError.  The greedy clique runs only when it can
    reach ``known_lower``: its size is at most min(ub, packing bound), and a
    smaller clique neither raises the lower bound nor becomes the witness.
    DSATUR runs only while the start coloring has more colors than the
    lower bound.  The adjacency (``adj_masks``, ``degrees``) is read only by
    the clique and DSATUR, so on a general Kneser graph whose bounds meet
    without a clique it is never built.  Past ``SEARCH_VERTEX_CAP`` vertices
    neither runs: a single vertex stands in for the clique, and unless the
    bounds meet the result is the interval [lb, ub] after 0 nodes, as when
    the budget runs out.
    One rule names the witness of the certified lower end (chi when exact):
    "clique" if it equals the clique size, "external" if it equals
    ``known_lower``, else "exhausted".
    """
    n = g.n
    if n == 0:
        return ChromaticCertificate(0, (), ("empty", None), True, (0, 0), 0)

    if initial_coloring is not None:
        start = tuple(initial_coloring)
        if not is_proper(g, start):
            raise CertificateError("initial coloring is not proper")
    else:
        start = tuple(range(n))
    ub = len(set(start))

    # A clique of a general Kneser graph is a set of pairwise-disjoint hyperedges.
    cap = ub
    if isinstance(g, KneserGraph):
        cap = min(cap, g.source.ground_n // min(map(int.bit_count, g.source.masks)))
    searchable = n <= SEARCH_VERTEX_CAP
    if not searchable:
        clique = (0,)  # one vertex, a clique that needs no adjacency
    elif known_lower is None or cap >= known_lower:
        clique = greedy_clique(g, cap)
    else:
        # Below an external bound the clique can neither raise lb nor be the witness.
        clique = ()
    lb = max(len(clique), 1)
    if known_lower is not None:
        lb = max(lb, known_lower)

    # With the clique, DSATUR is the only reader of the adjacency.
    ub, best_coloring, nodes, exhausted = (
        _dsatur(g, lb, ub, start, node_budget) if ub > lb and searchable
        else (ub, start, 0, ub <= lb)
    )
    if known_lower is not None and ub < known_lower:
        raise CertificateError(
            f"a proper coloring with {ub} colors contradicts the lower bound"
            f" {known_lower} (alternation bound)"
        )

    # The search runs out of budget only while ub > lb.
    value = ub if exhausted else lb
    if value == len(clique):
        witness = ("clique", clique)
    elif value == known_lower:
        witness = ("external", "alternation bound")
    else:
        witness = ("exhausted", None)
    return ChromaticCertificate(
        ub if exhausted else None,
        _canonicalize(best_coloring),
        witness,
        exhausted,
        (value, ub),
        nodes,
    )


# ---------------------------------------------------------------------------
# General Kneser colorings from hyperedge-free ground sets.
# ---------------------------------------------------------------------------

def coloring_from_extremal(h: Hypergraph, free) -> tuple[int, ...]:
    """Proper coloring of general_kneser(h) from a set containing no hyperedge.

    Each hyperedge is colored by the rank (among ground elements outside
    the set) of its smallest element outside the set, so at most
    ground_n - |free| colors appear.  Hyperedges of one color share that
    element.  For the matching hypergraph of G the free sets are the
    rK2-free edge sets, and the bound is |E(G)| - ex(G, rK2).
    """
    free_mask = 0
    for e in free:
        if not 0 <= e < h.ground_n:
            raise ValueError(f"ground element {e} out of range")
        free_mask |= 1 << e
    outside = [mask & ~free_mask for mask in h.masks]
    if 0 in outside:
        raise CertificateError("the free set contains a hyperedge")
    # rank[e]: the outside elements below e, for each element e outside the set.
    rank = [0] * h.ground_n
    count = 0
    for e in range(h.ground_n):
        if not free_mask >> e & 1:
            rank[e] = count
            count += 1
    return tuple([rank[(o & -o).bit_length() - 1] for o in outside])


def export_dimacs(g: Graph) -> str:
    """DIMACS .col text (1-indexed) for cross-checking with external tools."""
    lines = [f"p edge {g.n} {g.m}\n"]
    lines.extend(f"e {u + 1} {v + 1}\n" for u, v in g.edges)
    return "".join(lines)
