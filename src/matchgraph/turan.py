"""Generalized Turan numbers ex(G, rK2) with extremal certificates.

ex(G, rK2) is the maximum number of edges of a spanning subgraph whose
matching number is below r.  Exact values are produced either by full
subset enumeration (small edge counts) or by branch and bound with an
incremental matching-number prune; both certify the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CertificateError
from .graphs import Graph
from .matching import edge_subset_has_r_matching


@dataclass(frozen=True)
class TuranCertificate:
    ex_value: int
    extremal_edges: frozenset[int]
    method: str        # "exhaustive" | "branch-bound" | "star-construction"
    exact: bool = True
    bounds: tuple[int, int] | None = None


def is_f_free(edges, g: Graph, r: int) -> bool:
    """True iff the spanning subgraph on `edges` has matching number < r."""
    ids = list(edges)
    if any(not 0 <= e < g.m for e in ids):
        raise ValueError("edge index out of range")
    return not edge_subset_has_r_matching(g, ids, r)


def star_lower_bound(g: Graph, r: int) -> tuple[int, frozenset[int]]:
    """Best rK2-free edge set of the form 'all edges meeting r-1 chosen vertices'.

    Every matching inside such a set uses each chosen vertex at most once,
    so the set is rK2-free; the value sum(deg) - (edges among chosen) is a
    lower bound for ex(G, rK2).  Ties break on the lexicographically first
    vertex choice.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if r == 1:
        return 0, frozenset()
    best_val = -1
    best_edges: frozenset[int] = frozenset()
    for chosen in combinations(range(g.n), min(r - 1, g.n)):
        cmask = 0
        for v in chosen:
            cmask |= 1 << v
        ids = [
            i for i, (u, v) in enumerate(g.edges)
            if (1 << u) & cmask or (1 << v) & cmask
        ]
        if len(ids) > best_val:
            best_val = len(ids)
            best_edges = frozenset(ids)
    return max(best_val, 0), best_edges


def turan_matchings(
    g: Graph,
    r: int,
    exhaustive_limit: int = 16,
    node_budget: int = 5_000_000,
) -> TuranCertificate:
    """Exact ex(G, rK2) with an extremal witness.

    Graphs with at most ``exhaustive_limit`` edges are settled by full
    enumeration; otherwise branch and bound runs under ``node_budget``.
    Non-convergence yields an inexact interval certificate instead of a
    wrong exact claim.  Ties among extremal sets break lexicographically
    on the edge-index set.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    m = g.m
    if not edge_subset_has_r_matching(g, range(m), r):
        # The whole edge set is already rK2-free.
        method = "exhaustive" if m <= exhaustive_limit else "branch-bound"
        return TuranCertificate(m, frozenset(range(m)), method)
    if m <= exhaustive_limit:
        value, edges = _exhaustive(g, r)
        return TuranCertificate(value, frozenset(edges), "exhaustive")
    value, edges, converged = _branch_bound(g, r, node_budget)
    if converged:
        return TuranCertificate(value, frozenset(edges), "branch-bound")
    star_val, star_edges = star_lower_bound(g, r)
    if star_val > value:
        value, edges = star_val, star_edges
    return TuranCertificate(
        value, frozenset(edges), "branch-bound", exact=False, bounds=(value, m)
    )


def _free_mask(g: Graph, r: int, mask: int) -> bool:
    if r == 2:
        disj = g.edge_disjoint_masks
        mm = mask
        while mm:
            bit = mm & -mm
            mm ^= bit
            if disj[bit.bit_length() - 1] & mask:
                return False
        return True
    ids = [i for i in range(g.m) if mask >> i & 1]
    return not edge_subset_has_r_matching(g, ids, r)


def _exhaustive(g: Graph, r: int) -> tuple[int, tuple[int, ...]]:
    m = g.m
    best_size = -1
    best: tuple[int, ...] = ()
    for mask in range(1 << m):
        size = mask.bit_count()
        if size < best_size:
            continue
        if not _free_mask(g, r, mask):
            continue
        ids = tuple(i for i in range(m) if mask >> i & 1)
        if size > best_size or (size == best_size and ids < best):
            best_size = size
            best = ids
    return best_size, best


def _branch_bound(g: Graph, r: int, node_budget: int):
    """Maximize |F| with F rK2-free; returns (value, lex-min witness, converged)."""
    m = g.m
    order = sorted(
        range(m),
        key=lambda e: (-(g.degrees[g.edges[e][0]] + g.degrees[g.edges[e][1]]), e),
    )
    disj = g.edge_disjoint_masks if r == 2 else None
    nodes = 0
    exceeded = False

    def feasible_add(mask: int, ids: list[int], e: int) -> bool:
        if disj is not None:
            return not disj[e] & mask
        return not edge_subset_has_r_matching(g, ids + [e], r)

    best_size = 0
    best_ids: list[int] = []

    def search(pos: int, mask: int, ids: list[int]):
        nonlocal nodes, best_size, best_ids, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > node_budget:
            exceeded = True
            return
        if len(ids) > best_size:
            best_size = len(ids)
            best_ids = list(ids)
        if pos == m or len(ids) + (m - pos) <= best_size:
            return
        e = order[pos]
        if feasible_add(mask, ids, e):
            ids.append(e)
            search(pos + 1, mask | (1 << e), ids)
            ids.pop()
        search(pos + 1, mask, ids)

    search(0, 0, [])
    if exceeded:
        return best_size, tuple(sorted(best_ids)), False

    # Second pass: lexicographically smallest extremal set of the proven size.
    value = best_size
    chosen: list[int] = []
    chosen_mask = 0
    for e in range(m):
        if len(chosen) == value:
            break
        if not feasible_add(chosen_mask, chosen, e):
            continue
        need = value - len(chosen) - 1
        if need > m - e - 1:
            continue
        if _completable(g, r, chosen + [e], chosen_mask | (1 << e), e + 1, need, disj):
            chosen.append(e)
            chosen_mask |= 1 << e
    if len(chosen) != value:
        raise CertificateError(
            f"lexicographic pass rebuilt {len(chosen)} edges, not the proven optimum {value}"
        )
    return value, tuple(chosen), True


def _completable(g, r, ids, mask, start, need, disj) -> bool:
    """Can `ids` be extended with `need` edges from index >= start, staying free?"""
    if need == 0:
        return True
    if g.m - start < need:
        return False
    for e in range(start, g.m - need + 1):
        if disj is not None:
            ok = not disj[e] & mask
        else:
            ok = not edge_subset_has_r_matching(g, ids + [e], r)
        if ok and _completable(g, r, ids + [e], mask | (1 << e), e + 1, need - 1, disj):
            return True
    return False
