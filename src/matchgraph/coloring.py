"""Exact chromatic numbers with certificates.

The solver is a DSATUR-style branch and bound: vertices are colored in
order of saturation degree, a greedy clique seeds the lower bound, and a
node budget guards against runaway searches.  A caller holding an
external lower bound (the alternation bound on a matching graph) can
pass it in together with a start coloring, which lets the
search end as soon as the bound is met; without one the search starts
from one color per vertex, and its first descent is the greedy DSATUR
coloring.  The clique search stops at cap = min(ub, packing bound): no
clique has more vertices than the start coloring has colors or, on a
general Kneser graph, than the ground set size over the smallest
hyperedge size.  When an external lower bound exceeds cap, no clique can
bind, so none is sought.  One rule names the lower witness, exact or not.
When the budget runs out the result is an explicit [lb, ub] interval,
never a wrong exact claim.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import CertificateError
from .graphs import Graph
from .hypergraphs import Hypergraph, KneserGraph

# Default DSATUR node budget of `chromatic_number` and of every command.
DSATUR_BUDGET = 10_000_000


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
    """True iff the coloring is total on vertices and no edge is monochromatic."""
    if len(coloring) != g.n or any(c is None or c < 0 for c in coloring):
        raise ValueError("coloring must assign a color to every vertex")
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
    remap: dict[int, int] = {}
    out = []
    for c in coloring:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out)


class _Budget(Exception):
    pass


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
    best_coloring = start

    # A clique of a general Kneser graph is a set of pairwise-disjoint hyperedges.
    cap = ub
    if isinstance(g, KneserGraph):
        cap = min(cap, g.source.ground_n // min(map(len, g.source.hyperedges)))
    # Below an external bound the clique can neither raise lb nor be the witness.
    clique = greedy_clique(g, cap) if known_lower is None or cap >= known_lower else ()
    lb = max(len(clique), 1)
    if known_lower is not None:
        lb = max(lb, known_lower)

    # DSATUR branch and bound.
    masks = g.adj_masks
    degrees = g.degrees
    colors = [-1] * n
    forbidden = [0] * n
    nodes = 0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def descend(colored: int, used: int):
        nonlocal nodes, ub, best_coloring
        if ub <= lb:
            return
        nodes += 1
        if nodes > node_budget:
            raise _Budget
        if colored == n:
            if used < ub:
                ub = used
                best_coloring = tuple(colors)
            return
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (forbidden[u].bit_count(), degrees[u], -u),
        )
        limit = min(used + 1, ub - 1)
        for c in range(limit):
            if forbidden[v] >> c & 1:
                continue
            colors[v] = c
            touched = []
            bit_c = 1 << c
            nb = masks[v]
            while nb:
                bit = nb & -nb
                nb ^= bit
                w = bit.bit_length() - 1
                if colors[w] == -1 and not forbidden[w] & bit_c:
                    forbidden[w] |= bit_c
                    touched.append(w)
            descend(colored + 1, max(used, c + 1))
            colors[v] = -1
            for w in touched:
                forbidden[w] &= ~bit_c
            if ub <= lb:
                return

    exhausted = True
    try:
        descend(0, 0)
    except _Budget:
        exhausted = False
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
    colors = []
    for mask in h.masks:
        outside = mask & ~free_mask
        if not outside:
            raise CertificateError("the free set contains a hyperedge")
        # The rank of the lowest outside element counts the outside elements below it.
        colors.append((((outside & -outside) - 1) & ~free_mask).bit_count())
    return tuple(colors)


def export_dimacs(g: Graph) -> str:
    """DIMACS .col text (1-indexed) for cross-checking with external tools."""
    lines = [f"p edge {g.n} {g.m}\n"]
    lines.extend(f"e {u + 1} {v + 1}\n" for u, v in g.edges)
    return "".join(lines)
