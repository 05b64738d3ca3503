"""Generalized Turan numbers ex(G, rK2) with extremal certificates.

ex(G, rK2) is the maximum number of edges of a spanning subgraph whose
matching number is below r.  By the Tutte-Berge formula (Berge 1958;
Erdos-Gallai 1959) every inclusion-maximal such edge set is a *structure*:
all edges meeting a vertex set S plus all edges inside disjoint odd vertex
sets C_1, C_2, ... (of size at least 3, each inducing a connected subgraph,
avoiding S), with |S| + sum floor(|C_i| / 2) <= r - 1.  For fixed r there
are polynomially many structures; enumerating them settles ex, and the
same maximal sets drive the graph-side alternation engines.  The
enumeration has a node budget and raises CapacityError when it runs out:
part of the maximal sets bounds neither ex from above nor ex_alt from
below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import comb

from .errors import CapacityError, CertificateError
from .graphs import Graph, _bits
from .matching import edge_subset_has_r_matching

# Node budget of the structure enumeration on every command; read at call time.
NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class TuranCertificate:
    ex_value: int
    extremal_edges: frozenset[int]
    method: str        # always "structure"; the benchmark's tracer reads it
    # every inclusion-maximal rK2-free edge set; the complete list proves ex
    masks: tuple[int, ...] = field(repr=False, compare=False)


def _incident_masks(g: Graph) -> list[int]:
    """Per vertex, the bitmask of the edge indices that meet it."""
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return inc


def _odd_parts(g: Graph, inc: list[int], max_cost: int,
               budget: int) -> tuple[list[tuple[int, int, int]], int]:
    """(cost, vertex mask, inside-edge mask) of every odd vertex set of size
    3 .. 2 max_cost + 1 that induces a connected subgraph, cheapest first,
    and the number of connected sets grown.

    A set whose edges all meet one of its vertices w is left out: putting w
    into S instead costs no more and covers a superset of edges, so such a
    part never yields a maximal set that another structure does not.

    Each connected set is grown once from its smallest vertex (Wernicke's
    ESU scheme): a vertex joins the extension set only when it is adjacent
    to the newest vertex and to nothing already chosen.  A set is counted
    and checked in its parent's loop, so a set of the largest size costs no
    call.  Growth stops once more than ``budget`` sets have been grown.
    """
    adj = g.adj_masks
    limit = 2 * max_cost + 1
    parts: list[tuple[int, int, int]] = []
    nodes = 0

    def grow(sub: int, size: int, ext: int, closed: int, above: int,
             meet: int, inside: int):
        """Count and check each one-vertex extension of the set sub, and
        grow it further while it is below the size limit."""
        nonlocal nodes
        while ext:
            bit = ext & -ext
            ext ^= bit
            nodes += 1
            if nodes > budget:
                continue
            w = bit.bit_length() - 1
            child, child_inside = sub | bit, inside | (inc[w] & meet)
            if not size & 1:  # the child has an odd size of at least 3
                rest = child
                while rest:  # look for a vertex that every inside edge meets
                    low = rest & -rest
                    if not child_inside & ~inc[low.bit_length() - 1]:
                        break
                    rest ^= low
                else:
                    parts.append((size // 2, child, child_inside))
            if size + 1 < limit:
                grown = ext | (adj[w] & ~closed & above)
                if grown:
                    grow(child, size + 1, grown, closed | adj[w], above, meet | inc[w],
                         child_inside)

    for v in range(g.n):
        nodes += 1
        if nodes <= budget and limit > 1:
            bit = 1 << v
            above = -(bit << 1)  # vertices with a larger index
            grow(bit, 1, adj[v] & above, adj[v] | bit, above, inc[v], 0)
    parts.sort(key=lambda part: part[0])
    return parts, nodes


def _structures(g: Graph, r: int, inc: list[int], parts: list[tuple[int, int, int]]):
    """Edge masks of every structure of (g, r), one per (S, parts) choice."""

    def add_parts(start: int, used: int, budget: int, mask: int):
        yield mask
        for i in range(start, len(parts)):
            cost, vertices, inside = parts[i]
            if cost > budget:
                return
            if not vertices & used:
                yield from add_parts(i + 1, used | vertices, budget - cost, mask | inside)

    for size in range(min(r - 1, g.n), -1, -1):
        for s in combinations(range(g.n), size):
            used = mask = 0
            for v in s:
                used |= 1 << v
                mask |= inc[v]
            yield from add_parts(0, used, r - 1 - size, mask)


def maximal_free_masks(g: Graph, r: int) -> tuple[int, ...]:
    """The inclusion-maximal rK2-free edge sets of g, as edge-index bitmasks,
    largest first, ties by value.

    Each connected part grown and each structure enumerated counts one node
    against ``NODE_BUDGET``.  Running out raises CapacityError: alternation
    over part of the sets could come out too small, and a too-small ex_alt
    makes |E| - ex_alt unsound.  There is at least one structure per vertex
    set S of at most r - 1 vertices, so when those sets alone outnumber the
    budget the error is raised up front, before any part is grown.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if not edge_subset_has_r_matching(g, range(g.m), r):
        # The whole edge set is already rK2-free.
        return ((1 << g.m) - 1,)
    node_budget = NODE_BUDGET
    exceeded = CapacityError(
        f"structure enumeration for ex(G, {r}K2) exceeded its node budget of {node_budget}"
    )
    sets = accumulate(comb(g.n, size) for size in range(min(r - 1, g.n) + 1))
    if any(total > node_budget for total in sets):
        raise exceeded
    inc = _incident_masks(g)
    parts, nodes = _odd_parts(g, inc, r - 1, node_budget)
    seen = set()
    # _structures yields at least one mask, so a part search that stopped
    # past the budget raises on the first one.
    for mask in _structures(g, r, inc, parts):
        nodes += 1
        if nodes > node_budget:
            raise exceeded
        seen.add(mask)
    kept: list[int] = []
    holders = [0] * g.m  # per edge, bit j is set when kept[j] holds the edge
    for mask in sorted(seen, key=lambda mk: (-mk.bit_count(), mk)):
        # Every kept mask is at least as large, so only they can contain it,
        # and one does iff it holds every edge of the mask.
        edges = _bits(mask)
        containers = (1 << len(kept)) - 1
        for e in edges:
            containers &= holders[e]
        if not containers:
            for e in edges:
                holders[e] |= 1 << len(kept)
            kept.append(mask)
    return tuple(kept)


def turan_matchings(g: Graph, r: int) -> TuranCertificate:
    """Exact ex(G, rK2) with an extremal witness and the maximal sets behind it.

    ex is the size of the largest structure; every extremal set is a
    structure, so the witness is the lexicographically smallest edge-index
    tuple among all extremal sets.  The certificate's ``masks`` are all of
    :func:`maximal_free_masks`, which ``alternation.ex_alt_salt`` takes for
    ex_alt and ex_salt.  CapacityError when the enumeration exceeds
    ``NODE_BUDGET``.
    """
    masks = maximal_free_masks(g, r)
    value = masks[0].bit_count()
    witness = min(_bits(mk) for mk in masks if mk.bit_count() == value)
    if edge_subset_has_r_matching(g, witness, r):
        raise CertificateError(f"structure witness {witness} contains an {r}-matching")
    return TuranCertificate(value, frozenset(witness), "structure", masks)
