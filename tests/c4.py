"""Monogamous C4 decompositions of complete bipartite graphs.

A C4 decomposition of K_{m,n} partitions the edge set into 4-cycles; it is
monogamous when no vertex pair (same side or crossing) lies in two of the
4-cycles.  Crossing pairs are automatically monogamous because they are
edges, so the real constraint is that all left pairs and all right pairs
of the blocks are distinct.  The constructor is a backtracking search over
the lexicographically first uncovered edge, which makes success a
checkable witness and a completed empty search an exhaustive refutation.
No command runs this search; acceptance criterion 10 and
``tests/test_decompositions.py`` check it.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchgraph import CertificateError

Block = tuple[tuple[int, int], ...]   # 4 (left, right) pairs of one 4-cycle


@dataclass(frozen=True)
class C4Decomposition:
    m: int
    n: int
    blocks: tuple[Block, ...]


def make_block(a: int, b: int, x: int, y: int) -> Block:
    """Canonical block on left pair {a,b} and right pair {x,y}."""
    a, b = min(a, b), max(a, b)
    x, y = min(x, y), max(x, y)
    return ((a, x), (a, y), (b, x), (b, y))


@dataclass(frozen=True)
class C4SearchResult:
    status: str                      # "found" | "none" | "indeterminate"
    decomposition: C4Decomposition | None
    nodes: int                       # block placements tried (search trace size)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    violation: str | None = None


def verify_c4_decomposition(dec: C4Decomposition) -> VerificationResult:
    """Partition-of-edges and monogamy audit; reports the first violation."""
    m, n = dec.m, dec.n
    if m < 2 or n < 2 or m % 2 or n % 2:
        return VerificationResult(False, "side sizes must be even and at least 2")
    covered: set[tuple[int, int]] = set()
    left_pairs: set[tuple[int, int]] = set()
    right_pairs: set[tuple[int, int]] = set()
    for idx, block in enumerate(dec.blocks):
        lefts = sorted({p[0] for p in block})
        rights = sorted({p[1] for p in block})
        if len(block) != 4 or len(lefts) != 2 or len(rights) != 2:
            return VerificationResult(False, f"block {idx} is not a 4-cycle")
        if set(block) != {(l, r) for l in lefts for r in rights}:
            return VerificationResult(False, f"block {idx} edges do not form a 4-cycle")
        if not (0 <= lefts[0] < lefts[1] < m and 0 <= rights[0] < rights[1] < n):
            return VerificationResult(False, f"block {idx} out of range")
        lp, rp = (lefts[0], lefts[1]), (rights[0], rights[1])
        if lp in left_pairs:
            return VerificationResult(False, f"left pair {lp} appears in two blocks")
        if rp in right_pairs:
            return VerificationResult(False, f"right pair {rp} appears in two blocks")
        left_pairs.add(lp)
        right_pairs.add(rp)
        for edge in block:
            if edge in covered:
                return VerificationResult(False, f"edge {edge} covered twice")
            covered.add(edge)
    if len(covered) != m * n:
        return VerificationResult(False, "blocks do not cover every edge")
    return VerificationResult(True)


def monogamous_c4_decomposition(
    m: int, n: int, node_budget: int = 50_000_000
) -> C4SearchResult:
    """Search for a monogamous C4 decomposition of K_{m,n}.

    Returns a verified decomposition when found, a certified "none" when
    the exhaustive backtracking completes empty, and "indeterminate" when
    the node budget runs out first.  Requires both sides even.
    """
    if m < 2 or n < 2 or m % 2 or n % 2:
        raise ValueError("both sides must be even and at least 2")
    # Counting refutation: blocks consume distinct same-side pairs.
    blocks_needed = m * n // 4
    if blocks_needed > m * (m - 1) // 2 or blocks_needed > n * (n - 1) // 2:
        return C4SearchResult("none", None, 0)

    cover = [[False] * n for _ in range(m)]
    left_used = set()
    right_used = set()
    chosen: list[tuple[int, int, int, int]] = []
    nodes = 0
    exceeded = False

    def first_uncovered():
        for a in range(m):
            row = cover[a]
            for x in range(n):
                if not row[x]:
                    return a, x
        return None

    def descend() -> bool:
        nonlocal nodes, exceeded
        spot = first_uncovered()
        if spot is None:
            return True
        a, x = spot
        # The first uncovered edge forces b > a and y > x: earlier rows and
        # earlier entries of row a are already covered.
        for b in range(a + 1, m):
            if (a, b) in left_used or cover[b][x]:
                continue
            for y in range(x + 1, n):
                if (x, y) in right_used or cover[a][y] or cover[b][y]:
                    continue
                nodes += 1
                if nodes > node_budget:
                    exceeded = True
                    return False
                cover[a][x] = cover[a][y] = cover[b][x] = cover[b][y] = True
                left_used.add((a, b))
                right_used.add((x, y))
                chosen.append((a, b, x, y))
                if descend():
                    return True
                if exceeded:
                    return False
                chosen.pop()
                left_used.discard((a, b))
                right_used.discard((x, y))
                cover[a][x] = cover[a][y] = cover[b][x] = cover[b][y] = False
        return False

    found = descend()
    if found:
        dec = C4Decomposition(m, n, tuple(make_block(a, b, x, y) for a, b, x, y in chosen))
        check = verify_c4_decomposition(dec)
        if not check.ok:
            raise CertificateError(f"constructed decomposition failed audit: {check.violation}")
        return C4SearchResult("found", dec, nodes)
    if exceeded:
        return C4SearchResult("indeterminate", None, nodes)
    return C4SearchResult("none", None, nodes)
