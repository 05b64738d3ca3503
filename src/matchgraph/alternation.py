"""Alternation invariants of hypergraphs and alternating Turan numbers.

For a sign vector X over a hypergraph's ground set read along an ordering
sigma, alt(X) is the length of a longest alternating subsequence of its
nonzero entries.  alt_sigma(H) maximizes alt(X) over vectors whose plus
and minus supports both avoid containing a hyperedge; salt_sigma allows
one support to contain hyperedges.  On the matching hypergraph of a graph
these equal the alternating Turan numbers ex_alt / ex_salt, computed here
directly on the graph side as well, which gives two independent engines
for the same quantities.  The graph side needs no search: each color class
lies inside an inclusion-maximal rK2-free edge set (the Tutte-Berge
structures that ``turan.turan_matchings(g, r).masks`` lists), and for a
fixed pair of sets the earliest-first greedy finds the longest alternation
along sigma.

Both quantities yield chromatic lower bounds for general Kneser graphs:
    chi(KG(H)) >= |ground| - alt_sigma(H)
    chi(KG(H)) >= |ground| + 1 - salt_sigma(H)   (when H has a hyperedge)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError
from .graphs import Graph, _bits
from .hypergraphs import Hypergraph


@dataclass(frozen=True)
class EdgeOrdering:
    """A permutation of the edge indices (or ground elements) of a host."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("ordering is not a permutation of 0..m-1")

    def __len__(self):
        return len(self.perm)

    @classmethod
    def identity(cls, m: int) -> "EdgeOrdering":
        return cls(tuple(range(m)))

    def to_line(self) -> str:
        return " ".join(str(p) for p in self.perm)

    @classmethod
    def from_line(cls, line: str) -> "EdgeOrdering":
        return cls(tuple(int(tok) for tok in line.split()))


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


# ---------------------------------------------------------------------------
# Hypergraph-side engine: branch and bound over sign vectors in sigma order.
# ---------------------------------------------------------------------------

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
    through = h.masks_through
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


# ---------------------------------------------------------------------------
# Graph-side engine: greedy alternation over pairs of maximal rK2-free sets.
# ---------------------------------------------------------------------------

def _alternation(first: int, second: int) -> int:
    """Longest subsequence of positions alternating first, second, first, ...

    Taking the earliest available position at every step is optimal.
    """
    length = 0
    above = -1  # positions after the last one taken
    while True:
        avail = (second if length & 1 else first) & above
        if not avail:
            return length
        above = -((avail & -avail) << 1)
        length += 1


def ex_alt_salt(g: Graph, sigma: EdgeOrdering, masks: tuple[int, ...]) -> tuple[int, int]:
    """(ex_alt, ex_salt) of rK2 along sigma, where ``masks`` are all the
    inclusion-maximal rK2-free edge sets of g (``turan_matchings(g, r).masks``).

    Each rK2-free class lies inside a maximal set.  ex_salt leaves one class
    unrestricted, so it is the best greedy alternation of a maximal set
    against the whole edge set, in either order.  ex_alt is the best greedy
    alternation over ordered pairs (A, B) of maximal sets; alternation only
    grows with the sets, so a set's two alternations against the whole edge
    set bound every pair it takes part in.
    """
    if len(sigma) != g.m:
        raise ValueError("ordering length does not match edge count")
    position = [0] * g.m
    for p, e in enumerate(sigma.perm):
        position[e] = 1 << p
    everything = (1 << g.m) - 1
    table = []  # per maximal set: its mask over positions, then as first, as second
    for mask in masks:
        moved = 0
        while mask:
            low = mask & -mask
            moved |= position[low.bit_length() - 1]
            mask ^= low
        table.append((moved, _alternation(moved, everything), _alternation(everything, moved)))
    firsts = sorted(table, key=lambda row: -row[1])
    seconds = sorted(table, key=lambda row: -row[2])
    best = max(a.bit_count() for a, _, _ in table)  # (A, A) alternates all of A
    for a, bound_a, _ in firsts:
        if bound_a <= best:
            break
        for b, _, bound_b in seconds:
            if bound_b <= best or bound_a <= best:
                break
            if (a | b).bit_count() > best:
                best = max(best, _alternation(a, b))
    return best, max(max(first, second) for _, first, second in table)


# ---------------------------------------------------------------------------
# Chromatic lower bounds.
# ---------------------------------------------------------------------------

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


def alternation_chi_lower(m: int, ex_alt: int, ex_salt: int) -> int:
    """chi(KG(G, rK2)) >= max(|E| - ex_alt, |E| + 1 - ex_salt) for G with m
    edges and at least one r-matching, from one ordering's ex_alt and ex_salt
    (``ex_alt_salt``)."""
    return max(m - ex_alt, m + 1 - ex_salt)

