"""Independent brute-force oracles.

Everything here is deliberately dumb: full enumeration, plain
backtracking, or networkx, kept structurally separate from the library's
search code so the two sides of every comparison stay independent.  The
one branch and bound is the sign-vector search over hypergraphs, the
second engine for the alternation invariants that the library computes
from maximal rK2-free edge sets.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Mapping, Sequence

import networkx as nx

from matchgraph import CapacityError, EdgeOrdering, Graph, Hypergraph
from matchgraph.graphs import _bits, component_masks


# ---------------------------------------------------------------------------
# Tuple views of hypergraphs, which the library holds as bitmasks only.
# ---------------------------------------------------------------------------

def hypergraph_of(ground_n: int, hyperedges) -> Hypergraph:
    """Hypergraph from hyperedges written as element tuples."""
    return Hypergraph(ground_n, tuple(sum(1 << v for v in set(e)) for e in hyperedges))


def hyperedge_tuples(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The hyperedges of h as sorted element tuples, in index order."""
    return tuple(_bits(mask) for mask in h.masks)


# ---------------------------------------------------------------------------
# Graphs and matchings.
# ---------------------------------------------------------------------------

def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def brute_canonical_form(g: Graph) -> int:
    """Minimum over all n! relabellings of the edge bitmask, pairs in
    lexicographic order: the definition of smallgraphs.canonical_form."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    index = {p: i for i, p in enumerate(pairs)}
    return min(
        sum(1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in g.edges)
        for perm in permutations(range(g.n))
    )


def nx_matching_size(g: Graph) -> int:
    return len(nx.max_weight_matching(to_networkx(g), maxcardinality=True))


def brute_matchings(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All r-matchings by filtering every r-subset of the edge set."""
    out = []
    for subset in combinations(range(g.m), r):
        seen = set()
        ok = True
        for e in subset:
            u, v = g.edges[e]
            if u in seen or v in seen:
                ok = False
                break
            seen.update((u, v))
        if ok:
            out.append(subset)
    return out


def brute_kneser_edges(h) -> list[tuple[int, int]]:
    """Edges of the general Kneser graph of h by a disjointness test on
    every pair of hyperedges, in lexicographic order."""
    sets = [set(e) for e in hyperedge_tuples(h)]
    return [
        (i, j)
        for i, j in combinations(range(len(sets)), 2)
        if not sets[i] & sets[j]
    ]


def exhaustive_tutte_berge(g: Graph) -> tuple[int, frozenset[int]]:
    """min over all 2^n sets S of |V| - o(G-S) + |S|, and the minimizer
    with the numerically smallest bitmask."""
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best_val = None
    best_s = 0
    for s_mask in range(1 << n):
        alive = full & ~s_mask
        odd = 0
        unseen = alive
        while unseen:
            comp = frontier = unseen & -unseen
            while frontier:
                reach = 0
                for v in range(n):
                    if frontier >> v & 1:
                        reach |= adj[v]
                frontier = reach & alive & ~comp
                comp |= frontier
            odd += comp.bit_count() & 1
            unseen &= ~comp
        val = n - odd + s_mask.bit_count()
        if best_val is None or val < best_val:
            best_val, best_s = val, s_mask
    return best_val, frozenset(v for v in range(n) if best_s >> v & 1)


def gallai_edmonds_s_by_deletion(g: Graph) -> frozenset[int]:
    """The Gallai-Edmonds set N(D) minus D by its definition: D holds the
    vertices v with nu(G - v) = nu(G), one networkx matching per vertex."""
    host = to_networkx(g)
    nu = len(nx.max_weight_matching(host, maxcardinality=True))
    missable = set()
    for v in range(g.n):
        rest = host.copy()
        rest.remove_node(v)
        if len(nx.max_weight_matching(rest, maxcardinality=True)) == nu:
            missable.add(v)
    return frozenset(w for v in missable for w in host[v] if w not in missable)


def line_graph_independent_count(g: Graph, r: int) -> int:
    """Number of size-r independent sets in the line graph of g."""
    lg = nx.line_graph(to_networkx(g))
    nodes = list(lg.nodes)
    count = 0
    for subset in combinations(nodes, r):
        if not any(lg.has_edge(a, b) for a, b in combinations(subset, 2)):
            count += 1
    return count


def brute_turan(g: Graph, r: int) -> int:
    """max |F| over rK2-free edge subsets, by full enumeration."""
    return brute_turan_witness(g, r)[0]


def brute_turan_witness(g: Graph, r: int) -> tuple[int, tuple[int, ...]]:
    """ex(G, rK2) and the lexicographically smallest extremal edge-index
    tuple: the first rK2-free subset when all 2^m subsets are listed by
    size, largest first, and lexicographically within a size."""
    for size in range(g.m, -1, -1):
        for ids in combinations(range(g.m), size):
            if not brute_has_r_matching(g, ids, r):
                return size, ids
    raise ValueError("r must be at least 1")


def maximal_free_masks_pairwise(g: Graph, r: int) -> tuple[int, ...]:
    """The masks of turan.maximal_free_masks by a pairwise maximality
    filter: each structure, largest first, is compared with every kept
    mask.  The structures come from the library's own enumerator; only the
    filter is independent."""
    from matchgraph import turan

    if not brute_has_r_matching(g, range(g.m), r):
        return ((1 << g.m) - 1,)
    inc = turan._incident_masks(g)
    parts, _ = turan._odd_parts(g, inc, r - 1, turan.NODE_BUDGET)
    seen = set(turan._structures(g, r, inc, parts))
    kept: list[int] = []
    for mask in sorted(seen, key=lambda mk: (-mk.bit_count(), mk)):
        if all(mask & ~k for k in kept):
            kept.append(mask)
    return tuple(kept)


def odd_parts_by_recursion(g: Graph, inc: list[int], max_cost: int,
                           budget: int) -> tuple[list[tuple[int, int, int]], int]:
    """turan._odd_parts as a recursive ESU search: one call per connected
    set grown, which counts it, checks it and grows it further."""
    adj = g.adj_masks
    limit = 2 * max_cost + 1
    parts: list[tuple[int, int, int]] = []
    nodes = 0

    def grow(sub, size, ext, closed, above, meet, inside):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return
        if size & 1 and size >= 3 and all(inside & ~inc[v] for v in _bits(sub)):
            parts.append((size // 2, sub, inside))
        if size == limit:
            return
        while ext:
            bit = ext & -ext
            ext ^= bit
            w = bit.bit_length() - 1
            grow(sub | bit, size + 1, ext | (adj[w] & ~closed & above),
                 closed | adj[w], above, meet | inc[w], inside | (inc[w] & meet))

    for v in range(g.n):
        bit = 1 << v
        above = -(bit << 1)
        grow(bit, 1, adj[v] & above, adj[v] | bit, above, inc[v], 0)
    parts.sort(key=lambda part: part[0])
    return parts, nodes


def brute_has_r_matching(g: Graph, edge_ids, r: int) -> bool:
    for subset in combinations(sorted(edge_ids), r):
        seen = set()
        ok = True
        for e in subset:
            u, v = g.edges[e]
            if u in seen or v in seen:
                ok = False
                break
            seen.update((u, v))
        if ok:
            return True
    return False


def _adjacent(g: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edge_index


def independent_prefix_by_combinations(g: Graph, k: int) -> bool:
    """Do some k pairwise non-adjacent vertices head a non-increasing degree
    order?  Such a set holds every vertex of degree above the k-th largest,
    completed by some choice that ``itertools.combinations`` yields from
    the vertices of exactly that degree; 1 <= k <= n."""
    deg = [sum(1 for w in range(g.n) if _adjacent(g, v, w)) for v in range(g.n)]
    cut = sorted(deg, reverse=True)[k - 1]
    fixed = tuple(v for v in range(g.n) if deg[v] > cut)
    tied = [v for v in range(g.n) if deg[v] == cut]
    return any(
        not any(_adjacent(g, a, b) for a, b in combinations(fixed + pick, 2))
        for pick in combinations(tied, k - len(fixed))
    )


# ---------------------------------------------------------------------------
# Cycles and tours.
# ---------------------------------------------------------------------------

def neighbour_lists(g: Graph) -> list[list[int]]:
    return [[w for w in range(g.n) if _adjacent(g, v, w)] for v in range(g.n)]


def odd_girth_by_cycle_enumeration(g: Graph):
    """Shortest odd cycle by DFS enumeration of all simple cycles."""
    best = [None]
    nbrs = neighbour_lists(g)

    def walk(start, v, visited, length):
        for w in nbrs[v]:
            if w == start and length >= 3:
                if length % 2 == 1 and (best[0] is None or length < best[0]):
                    best[0] = length
            elif w > start and w not in visited:
                visited.add(w)
                walk(start, w, visited, length + 1)
                visited.discard(w)

    for s in range(g.n):
        walk(s, s, {s}, 1)
    return best[0] if best[0] is not None else float("inf")


def odd_girth_by_root_bfs(g: Graph):
    """Shortest odd cycle by a distance BFS from every vertex: an edge
    between two vertices at distance d from the root closes an odd walk of
    length 2d + 1, and the minimum over all roots is the odd girth."""
    nbrs = neighbour_lists(g)
    best = float("inf")
    for root in range(g.n):
        dist = {root: 0}
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for u, v in g.edges:
            if u in dist and v in dist and dist[u] == dist[v]:
                best = min(best, 2 * dist[u] + 1)
    return best


class NotEulerianError(ValueError):
    """Raised when an Eulerian tour is requested on a non-Eulerian (multi)graph.

    Carries the offending vertex in ``vertex``.
    """

    def __init__(self, message, vertex):
        super().__init__(message)
        self.vertex = vertex


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


def tour_is_valid(edges, tour, start) -> bool:
    """Eulerian tour predicate for ``edges`` (edge id -> end pair): every
    edge once, consecutive edges share endpoints, tour starts and ends at
    start."""
    if sorted(tour) != sorted(edges):
        return False
    here = start
    for eid in tour:
        u, v = edges[eid]
        if here == u:
            here = v
        elif here == v:
            here = u
        else:
            return False
    return here == start


def euler_by_components(g: Graph):
    """Euler ordering built one component at a time: each component is
    relabelled, in vertex order, to a connected graph of its own, ordered by
    ``euler_ordering`` there, and the orderings are mapped back and joined
    in order of the components' lowest vertices."""
    from matchgraph import EdgeOrdering, euler_ordering

    order: list[int] = []
    for comp in component_masks(g):
        vertices = [v for v in range(g.n) if comp >> v & 1]
        relabel = {v: i for i, v in enumerate(vertices)}
        eids, edges = [], []
        for e, (u, v) in enumerate(g.edges):
            if comp >> u & 1:
                eids.append(e)
                edges.append((relabel[u], relabel[v]))
        piece = Graph(len(vertices), tuple(edges))
        order.extend(eids[p] for p in euler_ordering(piece).perm)
    return EdgeOrdering(tuple(order))


def euler_ordering_by_tours(g: Graph) -> EdgeOrdering:
    """The Euler ordering from ``eulerian_tour`` on one map from edge id to
    end pair per component, the reference for ``euler_ordering``'s walk on
    neighbour masks.  Host edges keep their ids, auxiliary edges are
    numbered after them, and auxiliary vertices are labelled above every
    host vertex."""
    eid, aux = g.m, g.n
    order: list[int] = []
    for comp in component_masks(g):
        members = _bits(comp)
        edges = {e: (u, v) for e, (u, v) in enumerate(g.edges) if comp >> u & 1}
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
# Coloring.
# ---------------------------------------------------------------------------

def k_colorable(g: Graph, k: int) -> bool:
    """Plain fixed-order backtracking, no heuristics."""
    if k <= 0:
        return g.n == 0
    colors = [-1] * g.n
    nbrs = neighbour_lists(g)

    def place(v):
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[w] != c for w in nbrs[v]):
                colors[v] = c
                if place(v + 1):
                    return True
        colors[v] = -1
        return False

    return place(0)


def greedy_clique_by_scan(g: Graph) -> tuple[int, ...]:
    """The greedy clique by its definition: from each start in (-degree,
    index) order, scan that order and keep each vertex adjacent to all
    members so far; the first largest clique wins.  O(n^2) per graph."""
    if g.n == 0:
        return ()
    masks = g.adj_masks
    order = sorted(range(g.n), key=lambda v: (-g.degrees[v], v))
    best: tuple[int, ...] = (order[0],)
    for start in order:
        clique = [start]
        common = masks[start]
        for v in order:
            if common >> v & 1:
                clique.append(v)
                common &= masks[v]
        if len(clique) > len(best):
            best = tuple(sorted(clique))
    return best


def proper_by_edges(g: Graph, coloring) -> bool:
    """No edge of g has both ends in one colour."""
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def greedy_dsatur(g: Graph) -> tuple[int, ...]:
    """Brelaz's greedy DSATUR colouring: repeatedly colour the uncoloured
    vertex with the most distinct neighbour colours (ties: higher degree,
    then lower index) with the smallest colour no neighbour has."""
    nbrs = neighbour_lists(g)
    colors = [-1] * g.n
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if colors[u] == -1),
            key=lambda u: (len({colors[w] for w in nbrs[u]} - {-1}), len(nbrs[u]), -u),
        )
        taken = {colors[w] for w in nbrs[v]}
        colors[v] = min(c for c in range(g.n) if c not in taken)
    return tuple(colors)


def chromatic_by_backtracking(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not k_colorable(g, k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Alternation on hypergraphs: branch and bound over sign vectors in sigma
# order, the engine independent of alternation.ex_alt_salt.  For a sign
# vector X over the ground set read along sigma, alt(X) is the length of a
# longest alternating subsequence of its nonzero entries.  alt_sigma(H)
# maximizes alt(X) over vectors whose plus and minus supports both avoid
# containing a hyperedge; salt_sigma allows one support to contain
# hyperedges.  On the matching hypergraph of G they equal ex_alt and
# ex_salt, and chi(KG(H)) >= |ground| - alt_sigma(H) and
# chi(KG(H)) >= |ground| + 1 - salt_sigma(H) when H has a hyperedge.
# ---------------------------------------------------------------------------

def alt(x: Sequence[int]) -> int:
    """Longest alternating subsequence of the nonzero entries; all-zero -> 0."""
    runs = 0
    last = 0
    for v in x:
        if v not in (-1, 0, 1):
            raise ValueError("sign vector entries must be -1, 0, or +1")
        if v != 0 and v != last:
            runs += 1
            last = v
    return runs


# The sign search visits up to 3^n sign vectors on a ground set of n elements;
# 3^18, about 3.9e8, is the most it is allowed.
SIGN_SEARCH_CAP = 18


def _check_ordering(h: Hypergraph, sigma: EdgeOrdering):
    if len(sigma) != h.ground_n:
        raise ValueError("ordering length does not match ground set size")


def _sign_search(h: Hypergraph, sigma: EdgeOrdering, strong: bool) -> int:
    """Max alt(X) with at most zero (strong=False) or one (strong=True) of the
    supports containing a hyperedge."""
    _check_ordering(h, sigma)
    n = h.ground_n
    if n > SIGN_SEARCH_CAP:
        raise CapacityError(f"ground set of size {n} exceeds search cap {SIGN_SEARCH_CAP}")
    masks = h.masks
    through = [0] * n  # per ground element, the hyperedges containing it
    for i, e in enumerate(hyperedge_tuples(h)):
        for v in e:
            through[v] |= 1 << i
    order = sigma.perm
    best = 0

    def completes(side_mask_with_bit: int, elem: int) -> bool:
        return any(not masks[i] & ~side_mask_with_bit for i in _bits(through[elem]))

    def descend(pos: int, plus: int, minus: int, dead_plus: bool,
                dead_minus: bool, last: int, count: int):
        nonlocal best
        if count > best:
            best = count
        if pos == n or count + (n - pos) <= best:
            return
        elem = order[pos]
        bit = 1 << elem
        # Try the alternation-extending sign first so the bound prunes early.
        for sign in ((-last, last) if last else (1, -1)):
            if sign > 0:
                now_dead = dead_plus or completes(plus | bit, elem)
                if now_dead and (not strong or dead_minus):
                    continue
                descend(pos + 1, plus | bit, minus, now_dead, dead_minus,
                        sign, count + (1 if sign != last else 0))
            else:
                now_dead = dead_minus or completes(minus | bit, elem)
                if now_dead and (not strong or dead_plus):
                    continue
                descend(pos + 1, plus, minus | bit, dead_plus, now_dead,
                        sign, count + (1 if sign != last else 0))
        descend(pos + 1, plus, minus, dead_plus, dead_minus, last, count)

    descend(0, 0, 0, False, False, 0, 0)
    return best


def alt_sigma(h: Hypergraph, sigma: EdgeOrdering) -> int:
    """Largest alt(X) with neither support containing any hyperedge."""
    return _sign_search(h, sigma, strong=False)


def salt_sigma(h: Hypergraph, sigma: EdgeOrdering) -> int:
    """Largest alt(X) with at most one support containing some hyperedge."""
    return _sign_search(h, sigma, strong=True)


def chi_lower_bounds(h: Hypergraph, sigma: EdgeOrdering) -> tuple[int, int]:
    """(|ground| - alt_sigma, |ground| + 1 - salt_sigma): both are lower
    bounds on chi(KG(h)).

    A hypergraph without hyperedges has an empty Kneser graph, for which
    both bounds degenerate; they are clamped to 0 there.
    """
    if h.k == 0:
        return (0, 0)
    n = h.ground_n
    return (n - alt_sigma(h, sigma), n + 1 - salt_sigma(h, sigma))


def exhaustive_alt_sigma(h, sigma, strong: bool) -> int:
    """Max alt(X) over all 3^n sign vectors under the side-containment rule."""
    n = h.ground_n
    best = 0
    for x in product((-1, 0, 1), repeat=n):
        plus = sum(1 << sigma.perm[j] for j in range(n) if x[j] == 1)
        minus = sum(1 << sigma.perm[j] for j in range(n) if x[j] == -1)
        contains = sum(
            1 for side in (plus, minus)
            if any(mask & ~side == 0 for mask in h.masks)
        )
        if contains <= (1 if strong else 0):
            best = max(best, alt(x))
    return best


def exhaustive_ex_alt(g: Graph, r: int, sigma, strong: bool) -> int:
    """Max alternating-colorable subset size by enumerating all 2^m subsets."""
    best = 0
    for mask in range(1 << g.m):
        positions = [p for p in range(g.m) if mask >> p & 1]
        if len(positions) <= best:
            continue
        red = [sigma.perm[p] for i, p in enumerate(positions) if i % 2 == 0]
        blue = [sigma.perm[p] for i, p in enumerate(positions) if i % 2 == 1]
        red_free = not brute_has_r_matching(g, red, r)
        blue_free = not brute_has_r_matching(g, blue, r)
        ok = (red_free or blue_free) if strong else (red_free and blue_free)
        if ok:
            best = len(positions)
    return best


# ---------------------------------------------------------------------------
# Random instances.
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float) -> Graph:
    """Random spanning tree plus density `extra` of the remaining pairs."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def random_hypergraph(rng: random.Random, max_n: int, max_edges: int):
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_edges)
    hedges = set()
    for _ in range(k):
        size = rng.randint(1, n)
        hedges.add(tuple(sorted(rng.sample(range(n), size))))
    return hypergraph_of(n, sorted(hedges))
