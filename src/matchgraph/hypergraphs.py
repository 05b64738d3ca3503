"""Hypergraphs, the general Kneser construction, and matching hypergraphs.

The general Kneser graph of a hypergraph has one vertex per hyperedge, two
vertices adjacent exactly when the hyperedges are disjoint.  Matching graphs
arise from the hypergraph whose ground set is the edge set of a graph and
whose hyperedges are the r-edge matchings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph
from .matching import enumerate_matchings


@dataclass(frozen=True)
class Hypergraph:
    """Ground set [0, ground_n) plus distinct nonempty hyperedges.

    Hyperedges are stored as sorted tuples; their list position is a stable
    index, which the Kneser construction inherits as vertex numbering.
    ``masks`` holds them as bitmasks, built in the loop that checks them.
    """

    ground_n: int
    hyperedges: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ground_n < 0:
            raise ValueError("ground set size must be nonnegative")
        canon = []
        masks = []
        seen = set()
        for e in self.hyperedges:
            e = tuple(sorted(set(e)))
            if not e:
                raise ValueError("empty hyperedge")
            if e[0] < 0 or e[-1] >= self.ground_n:
                raise ValueError(f"hyperedge {e} out of ground range")
            mask = 0
            for v in e:
                mask |= 1 << v
            if mask in seen:
                raise ValueError(f"duplicate hyperedge {e}")
            seen.add(mask)
            canon.append(e)
            masks.append(mask)
        object.__setattr__(self, "hyperedges", tuple(canon))
        object.__setattr__(self, "masks", tuple(masks))

    @property
    def k(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class KneserGraph:
    """General Kneser graph of ``source``: vertex i per hyperedge i, two
    vertices adjacent exactly when their hyperedges are disjoint.

    Only ``source`` is held.  The adjacency is built on first use, as
    neighbour bitmasks under the names ``Graph`` uses (``adj_masks``,
    ``degrees``), the form the clique and DSATUR searches read; it takes
    n^2/8 bytes.  A coloring is checked from the hyperedge masks instead
    (``coloring.is_proper``), so a certificate whose bounds meet never
    builds it.  ``graph``, the edge list as a :class:`Graph`, is likewise
    built on first use only.
    """

    source: Hypergraph

    @property
    def n(self) -> int:
        return self.source.k

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """The hyperedges meeting hyperedge i are the union, over its
        elements, of the hyperedges through each element, and its neighbours
        are all the others.  Every hyperedge meets itself, so the masks are
        loop-free, and meeting is symmetric."""
        h = self.source
        through = [0] * h.ground_n  # per ground element, the hyperedges containing it
        for i, e in enumerate(h.hyperedges):
            bit = 1 << i
            for v in e:
                through[v] |= bit
        everyone = (1 << h.k) - 1
        adj = []
        for e in h.hyperedges:
            meets = 0
            for v in e:
                meets |= through[v]
            adj.append(everyone ^ meets)
        return tuple(adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adj_masks)

    @cached_property
    def graph(self) -> Graph:
        n = self.n
        masks = self.adj_masks
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if masks[i] >> j & 1)
        return Graph(n, edges)


def general_kneser(h: Hypergraph) -> KneserGraph:
    """General Kneser graph of h: vertex i per hyperedge i, edges = disjoint pairs.

    Building it costs nothing; its adjacency is computed when first read
    (``KneserGraph.adj_masks``).
    """
    return KneserGraph(h)


def matching_hypergraph(g: Graph, r: int) -> Hypergraph:
    """Hypergraph on the edge indices of g whose hyperedges are the r-matchings."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return Hypergraph(g.m, tuple(enumerate_matchings(g, r)))


def matching_graph(g: Graph, r: int) -> KneserGraph:
    """Kneser graph of the r-matchings of g; adjacency = edge-disjointness."""
    return general_kneser(matching_hypergraph(g, r))

