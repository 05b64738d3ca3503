"""Matching-number machinery: Tutte-Berge certificates that carry a maximum
matching (one matcher run plus one blossom search per exposed vertex; the
matching is a validated ``Matching``), r-matching enumeration (edge-index
bitmasks, checked by the enumerator's own disjointness test) and existence
tests."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CertificateError
from .graphs import Graph, _bits, odd_components


@dataclass(frozen=True)
class Matching(object):
    """A set of pairwise vertex-disjoint edges of a host graph."""

    host: Graph
    edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        used = 0
        for e in self.edges:
            if not 0 <= e < self.host.m:
                raise ValueError(f"edge index {e} not in host")
            vm = self.host.edge_vertex_masks[e]
            if used & vm:
                raise ValueError("edges are not pairwise vertex-disjoint")
            used |= vm

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class TutteBergeWitness:
    """A set S minimizing |V| - o(G-S) + |S| and a maximum matching of nu
    edges; together they certify the matching number."""

    s: frozenset[int]
    deficiency: int
    nu: int
    matching: Matching


# ---------------------------------------------------------------------------
# Maximum matching (augmenting paths with blossom contraction).
# ---------------------------------------------------------------------------

def _lca(match, base, p, a, b):
    """Base of the blossom that closes at the edge between outer vertices a and b."""
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if match[a] == -1:
            break
        a = p[match[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = p[match[b]]


def _mark_path(match, base, p, v, b, child, blossom):
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _blossom_search(adj: Sequence[Sequence[int]], match: list[int], root: int):
    """Edmonds' search for an augmenting path from the exposed vertex `root`.

    When it finds one, it flips `match` along it and returns None.  Else
    it returns the outer flags of the failed search, one per vertex: v's
    flag is True exactly when an even alternating path runs from root to v.
    """
    n = len(adj)
    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = _lca(match, base, p, v, to)
                blossom = [False] * n
                _mark_path(match, base, p, v, curbase, to, blossom)
                _mark_path(match, base, p, to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return None
                used[match[to]] = True
                queue.append(match[to])
    return used


def _augmenting_matcher(n: int, adj: Sequence[Sequence[int]], enough: int | None = None):
    """Match array of a maximum matching; stops early once the matching has `enough` edges."""
    match = [-1] * n
    size = 0
    for v in range(n):  # cheap greedy seed
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    size += 1
                    break
    for v in range(n):
        if enough is not None and size >= enough:
            break
        # An exposed vertex without neighbours roots no augmenting path.
        if match[v] == -1 and adj[v] and _blossom_search(adj, match, v) is None:
            size += 1
    return match, size


def _neighbour_lists(g: Graph) -> list[tuple[int, ...]]:
    """Ascending neighbour lists, the matcher's input form."""
    return [_bits(mask) for mask in g.adj_masks]


def edge_subset_has_r_matching(g: Graph, edge_ids: Iterable[int], r: int) -> bool:
    """True iff the spanning subgraph on the given edges has an r-matching."""
    if r <= 0:
        return True
    ids = list(edge_ids)
    if len(ids) < r:
        return False
    vertices = sorted({v for e in ids for v in g.edges[e]})
    relabel = {v: i for i, v in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    for e in ids:
        u, v = g.edges[e]
        adj[relabel[u]].append(relabel[v])
        adj[relabel[v]].append(relabel[u])
    _, size = _augmenting_matcher(len(vertices), adj, enough=r)
    return size >= r


# ---------------------------------------------------------------------------
# Tutte-Berge certificates (Gallai-Edmonds decomposition).
# ---------------------------------------------------------------------------

def tutte_berge(g: Graph) -> TutteBergeWitness:
    """Witness S attaining min over all S of |V| - o(G-S) + |S|.

    S is the Gallai-Edmonds set N(D) minus D, where D is the set of vertices
    missed by some maximum matching.  The set is unique, so the witness is
    canonical.  With one maximum matching M in hand, D is the set of
    vertices that an even M-alternating path joins to an M-exposed vertex
    (Gallai-Edmonds), and the failed blossom search from an exposed vertex
    marks outer exactly the vertices such a path joins to it.  So the
    matcher runs once, then one search runs from each exposed vertex that
    has a neighbour; a search that augments contradicts the matcher and
    raises CertificateError.  The witness carries the matcher's matching,
    and nu is its size.  The Tutte-Berge equality
    |V| - o(G-S) + |S| = 2 nu is checked explicitly: together with the
    matching it certifies the matching number.
    """
    n = g.n
    adj = _neighbour_lists(g)
    match, _ = _augmenting_matcher(n, adj)
    matching = Matching(g, tuple(g.edge_index[(v, match[v])] for v in range(n) if match[v] > v))
    nu = len(matching)
    missable = 0  # D as a bitmask
    for v in range(n):
        if match[v] != -1:
            continue
        if adj[v]:
            outer = _blossom_search(adj, match, v)
            if outer is None:
                raise CertificateError(
                    f"an augmenting path from vertex {v} contradicts the matcher's nu = {nu}"
                )
            missable |= sum(1 << w for w in range(n) if outer[w])
        else:
            missable |= 1 << v
    neighbours = 0
    for v in _bits(missable):
        neighbours |= g.adj_masks[v]
    s = frozenset(_bits(neighbours & ~missable))
    o = odd_components(g, s)
    if n - o + len(s) != 2 * nu:
        raise CertificateError(
            f"Tutte-Berge equality fails: |V| - o(G-S) + |S| = {n - o + len(s)},"
            f" but the matcher found nu = {nu}"
        )
    return TutteBergeWitness(s=s, deficiency=o - len(s), nu=nu, matching=matching)


# ---------------------------------------------------------------------------
# r-matching enumeration.
# ---------------------------------------------------------------------------

def enumerate_matchings(g: Graph, r: int) -> list[int]:
    """All r-edge matchings as edge-index bitmasks, each once, in
    lexicographic order of their sorted edge-index tuples.

    A depth-first walk over an explicit stack of partial matchings, each
    (next edge to try, vertices used, edge mask); a partial matching one
    edge short is finished in one comprehension instead of one step per edge.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    out: list[int] = []
    vm = g.edge_vertex_masks
    bits = [1 << e for e in range(g.m)]
    m = g.m
    stack = [(0, 0, 0)]
    while stack:
        start, used, mask = stack.pop()
        short = r - mask.bit_count()
        if short == 1:
            out.extend([mask | bits[e] for e in range(start, m) if not used & vm[e]])
        else:
            # Edges past m - short leave too few to finish; children go on
            # the stack last edge first, so the first edge is walked first.
            stack.extend([(e + 1, used | vm[e], mask | bits[e])
                          for e in range(m - short, start - 1, -1) if not used & vm[e]])
    return out
