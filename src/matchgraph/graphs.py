"""Small simple graphs with stable edge indices, plus structural primitives.

Vertices of a :class:`Graph` are ``0..n-1``.  Edges are stored as ordered
pairs ``(u, v)`` with ``u < v``; the position of an edge in the ``edges``
tuple is its index, fixed at construction.  Edge indices are the reference
frame for edge orderings, sign vectors, and every certificate produced by
the rest of the package, so all generators document their indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import GraphParseError, NotEulerianError

INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph with indexed vertices and edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        # tuple() returns a tuple argument itself, so shared pairs are not copied.
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        seen = set()
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has a non-int end")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not ordered u<v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adj_masks)

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks: the graph's one adjacency form."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.edges)}

    @cached_property
    def edge_vertex_masks(self) -> tuple[int, ...]:
        return tuple((1 << u) | (1 << v) for u, v in self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Generators.  Canonical indexing is part of the contract: orderings and
# reports must be reproducible byte for byte.
# ---------------------------------------------------------------------------

def make_cycle(n: int) -> Graph:
    """Cycle C_n.  Edge i joins vertices i and (i+1) mod n, in cyclic order."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(edges))


def make_complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: left part 0..m-1, right part m..m+n-1.

    Edges are lexicographic by (left, right): edge i*n + j joins i and m+j.
    """
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    edges = tuple((i, m + j) for i in range(m) for j in range(n))
    return Graph(m + n, edges)


def make_disjoint_matching(n: int) -> Graph:
    """n disjoint edges (nK_2): edge i joins vertices 2i and 2i+1."""
    if n < 1:
        raise ValueError("need at least one edge")
    return Graph(2 * n, tuple((2 * i, 2 * i + 1) for i in range(n)))


def make_complete(n: int) -> Graph:
    """Complete graph K_n, edges in lexicographic order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def make_path(n: int) -> Graph:
    """Path P_n: edge i joins vertices i and i+1."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


# ---------------------------------------------------------------------------
# Structural primitives.
# ---------------------------------------------------------------------------

def _bfs_levels(g: Graph, seed: int, alive: int):
    """Vertex masks of the BFS levels from the vertex mask `seed` inside `alive`."""
    masks = g.adj_masks
    seen = frontier = seed
    while frontier:
        yield frontier
        nxt = 0
        f = frontier
        while f:
            bit = f & -f
            f ^= bit
            nxt |= masks[bit.bit_length() - 1]
        frontier = nxt & alive & ~seen
        seen |= frontier


def component_masks(g: Graph, removed: Iterable[int] = ()) -> list[int]:
    """Connected components of g minus `removed`, as vertex bitmasks."""
    dead = 0
    for v in removed:
        if not 0 <= v < g.n:
            raise ValueError(f"removed vertex {v} not in graph")
        dead |= 1 << v
    alive = ((1 << g.n) - 1) & ~dead
    out = []
    while alive:
        comp = 0
        for level in _bfs_levels(g, alive & -alive, alive):
            comp |= level
        out.append(comp)
        alive &= ~comp
    return out


def odd_components(g: Graph, removed: Iterable[int]) -> int:
    """Number of connected components of g - removed with an odd vertex count."""
    return sum(1 for c in component_masks(g, removed) if c.bit_count() % 2 == 1)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(component_masks(g)) == 1


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _has_inner_edge(g: Graph, vertices: int) -> bool:
    """Does some edge join two vertices of the vertex mask?"""
    adj = g.adj_masks
    rest = vertices
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & vertices:
            return True
    return False


def _is_bipartite(g: Graph) -> bool:
    """One BFS per component: a component is bipartite iff no edge joins
    two vertices of one level."""
    alive = (1 << g.n) - 1
    while alive:
        for level in _bfs_levels(g, alive & -alive, alive):
            if _has_inner_edge(g, level):
                return False
            alive &= ~level
    return True


def odd_girth(g: Graph) -> int | float:
    """Length of a shortest odd cycle; INFINITE when the graph is bipartite.

    A bipartite graph is answered by one BFS per component.  Otherwise BFS
    runs from every vertex; an edge inside level d closes an odd walk of
    length 2d + 1, and the minimum over all roots is the odd girth.
    """
    if _is_bipartite(g):
        return INFINITE
    best = INFINITE
    for root in range(g.n):
        for depth, level in enumerate(_bfs_levels(g, 1 << root, (1 << g.n) - 1)):
            if 2 * depth + 1 >= best:
                break
            if _has_inner_edge(g, level):
                best = 2 * depth + 1
                break
    return best


# ---------------------------------------------------------------------------
# Eulerian tours.
# ---------------------------------------------------------------------------

def eulerian_tour(edges: Mapping[int, tuple[int, int]], start: int) -> list[int]:
    """Deterministic Eulerian tour of a multigraph, as a sequence of edge ids.

    ``edges`` maps each edge id to its end pair; parallel edges are allowed
    and vertex labels are arbitrary ints.  Only these edges are read, so a
    tour costs time in their number alone.  Hierholzer with splicing; at
    every vertex the unused incident edge with the smallest (neighbor, edge
    id) is taken, which pins down the tour.  With no edges the tour is empty.

    Raises NotEulerianError (naming a violating vertex) if some vertex has
    odd degree, or if the edges are disconnected or do not meet ``start``.
    """
    inc: dict[int, list[tuple[int, int]]] = {}
    for eid, (u, v) in edges.items():
        inc.setdefault(u, []).append((v, eid))
        inc.setdefault(v, []).append((u, eid))
    for v in sorted(inc):
        if len(inc[v]) % 2 == 1:
            raise NotEulerianError(f"vertex {v} has odd degree", vertex=v)
    if not edges:
        return []
    if start not in inc:
        raise NotEulerianError(
            f"start vertex {start} has no selected edges", vertex=start
        )
    for lst in inc.values():
        lst.sort()

    pointer = dict.fromkeys(inc, 0)
    used = set()
    stack: list[tuple[int, int | None]] = [(start, None)]
    out: list[int] = []
    while stack:
        v, entering = stack[-1]
        lst = inc[v]
        i = pointer[v]
        while i < len(lst) and lst[i][1] in used:
            i += 1
        pointer[v] = i
        if i == len(lst):
            stack.pop()
            if entering is not None:
                out.append(entering)
        else:
            w, eid = lst[i]
            used.add(eid)
            stack.append((w, eid))
    if len(out) != len(edges):
        # Some edges were unreachable from start.
        u = min(edges[min(edges.keys() - used)])
        raise NotEulerianError(
            f"edges unreachable from start {start} (e.g. at vertex {u})", vertex=u
        )
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Text format:  line 1 "n m", then m lines "u v" (0 <= u < v < n), ASCII
# decimal, single spaces, '\n' terminators; lines starting '#' and blank
# lines ignored.  Edge index = position among the edge lines.
# ---------------------------------------------------------------------------

def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges)
    return "".join(lines)


def parse_graph(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        parts = raw.split(" ")
        if len(parts) != 2:
            raise GraphParseError(f"expected two fields, got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer field in {raw!r}", lineno) from None
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise GraphParseError("missing 'n m' header", 1)
    n, m = header
    if len(edges) != m:
        raise GraphParseError(
            f"header announced {m} edges, found {len(edges)}", 1
        )
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise GraphParseError(str(exc), 1) from None


def read_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())
