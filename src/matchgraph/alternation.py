"""Alternating Turan numbers and the chromatic lower bound they give.

For an ordering sigma of the edges of G, ex_alt(G, rK2, sigma) is the
largest number of edges that can be 2-colored alternately along sigma with
both color classes rK2-free, and ex_salt the largest with at least one
class rK2-free.  On the matching hypergraph of G they equal the sign-vector
invariants alt_sigma and salt_sigma, which the test suite computes by an
independent search over sign vectors (``tests/oracles.py``).  Here no
search is needed: each color class lies inside an inclusion-maximal
rK2-free edge set (the Tutte-Berge structures that
``turan.turan_matchings(g, r).masks`` lists), and for a fixed pair of sets
the earliest-first greedy finds the longest alternation along sigma.

Both quantities bound the chromatic number of the matching graph:
    chi(KG(G, rK2)) >= |E| - ex_alt(G, rK2, sigma)
    chi(KG(G, rK2)) >= |E| + 1 - ex_salt(G, rK2, sigma)   (when G has an r-matching)
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class EdgeOrdering:
    """A permutation of the edge indices (or ground elements) of a host."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        for p in self.perm:
            if type(p) is not int:
                raise ValueError(f"ordering entry {p!r} is not an int")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("ordering is not a permutation of 0..m-1")

    def __len__(self):
        return len(self.perm)

    @classmethod
    def identity(cls, m: int) -> "EdgeOrdering":
        return cls(tuple(range(m)))

    @classmethod
    def from_line(cls, line: str) -> "EdgeOrdering":
        return cls(tuple(int(tok) for tok in line.split()))


# ---------------------------------------------------------------------------
# Greedy alternation over pairs of maximal rK2-free sets.
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


def _against_all(moved: int, last: int) -> int:
    """``_alternation(moved, everything)`` in closed form, where ``last`` is
    the bit of the last position.

    Every pick from moved is followed by the very next position, so moved's
    picks are the positions the greedy takes at least two apart; each counts
    twice, less one when it is the last position.
    """
    length = 0
    while moved:
        low = moved & -moved
        length += 2 - (low == last)
        moved &= -(low << 2)
    return length


def ex_alt_salt(g: Graph, sigma: EdgeOrdering, masks: tuple[int, ...]) -> tuple[int, int]:
    """(ex_alt, ex_salt) of rK2 along sigma, where ``masks`` are all the
    inclusion-maximal rK2-free edge sets of g (``turan_matchings(g, r).masks``).

    Each rK2-free class lies inside a maximal set.  ex_salt leaves one class
    unrestricted, so it is the best greedy alternation of a maximal set
    against the whole edge set, in either order.  ex_alt is the best greedy
    alternation over ordered pairs (A, B) of maximal sets; alternation only
    grows with the sets, so a set's two alternations against the whole edge
    set bound every pair it takes part in.

    A set's two alternations against the whole edge set come in closed
    form from ``_against_all``, in the loop that maps the sets to positions.
    """
    m = g.m
    if len(sigma) != m:
        raise ValueError("ordering length does not match edge count")
    position = [0] * m
    for p, e in enumerate(sigma.perm):
        position[e] = 1 << p
    last = 1 << m >> 1  # the last position; 0 when there is none
    table = []  # per maximal set: its mask over positions, then as first, as second
    ex_salt = 0
    for mask in masks:
        moved = 0
        while mask:
            low = mask & -mask
            moved |= position[low.bit_length() - 1]
            mask ^= low
        first = _against_all(moved, last)
        # Led by the whole edge set, position 0 comes first and the set's picks start at 1.
        second = 1 + _against_all(moved & ~1, last) if m else 0
        table.append((moved, first, second))
        ex_salt = max(ex_salt, first, second)
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
    return best, ex_salt


# ---------------------------------------------------------------------------
# Chromatic lower bounds.
# ---------------------------------------------------------------------------

def alternation_chi_lower(m: int, ex_alt: int, ex_salt: int) -> int:
    """chi(KG(G, rK2)) >= max(|E| - ex_alt, |E| + 1 - ex_salt) for G with m
    edges and at least one r-matching, from one ordering's ex_alt and ex_salt
    (``ex_alt_salt``)."""
    return max(m - ex_alt, m + 1 - ex_salt)

