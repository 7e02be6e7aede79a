"""Witness placements matching the closed-form counts.

Each routine returns concrete node groups, one per placed guest, whose
cardinality equals the corresponding formula.  Groups reference nodes by
canonical label; a node appears in at most b_i groups overall.  The
pair registry in the formulas module names the routine for each pair;
the routines here take a vector already checked against the host.
place_k2 and place_c4_vnuma ask that registry, through place_vnuma,
for the witness of a k2 or c4 guest on a named host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DimensionError, PlacementError, TopologyError
from .topology import (
    C4,
    K2,
    Graph,
    TopologyId,
    check_capacities,
    enumerate_embeddings,
)


@dataclass(frozen=True)
class Placement:
    """An ordered multiset of node groups, one group per placed guest."""

    matches: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.matches)

    def as_lists(self) -> list[list[int]]:
        return [list(m) for m in self.matches]


def place_kn_kk(n: int, k: int, b: Sequence[int]) -> Placement:
    """Greedy clique placement in a complete host.

    Repeatedly takes the k highest-capacity nodes (ties by label) and, as
    a shortcut, commits the same group for as many rounds as the ranking
    provably cannot change.
    """
    matches, _ = _greedy_cliques(n, k, b, batching=True)
    return Placement(tuple(matches))


def _greedy_cliques(
    n: int, k: int, b: Sequence[int], batching: bool
) -> tuple[list[tuple[int, ...]], int]:
    """Shared body for the batched and one-at-a-time variants.

    Returns (matches, loop iterations).  With batching off, each pass
    commits a single group, which is the plainly-correct reference the
    tests compare against.
    """
    if k < 1 or k > n:
        raise TopologyError(f"clique size k={k} outside 1..{n}")
    caps = list(check_capacities(b, n))
    matches: list[tuple[int, ...]] = []
    iterations = 0
    while True:
        avail = [i for i in range(1, n + 1) if caps[i - 1] > 0]
        if len(avail) < k:
            return matches, iterations
        iterations += 1
        avail.sort(key=lambda i: -caps[i - 1])  # stable: ties stay by label
        if not batching:
            step = 1
        elif len(avail) > k:
            step = caps[avail[k - 1] - 1] - caps[avail[k] - 1] + 1
        else:
            step = caps[avail[k - 1] - 1]
        group = tuple(sorted(avail[:k]))
        matches.extend([group] * step)
        for i in avail[:k]:
            caps[i - 1] -= step


def place_k2(topology: Union[TopologyId, str], b: Sequence[int]) -> Placement:
    """Pair placement achieving the pair-capacity formula for the host."""
    from .formulas import place_vnuma  # the registry imports this module

    return place_vnuma(topology, K2, b)


def place_c4_vnuma(
    topology: Union[TopologyId, str], b: Sequence[int]
) -> Placement:
    """4-cycle guest placement on any host whose 4-cycle count is closed."""
    from .formulas import place_vnuma  # the registry imports this module

    return place_vnuma(topology, C4, b)


def place_bipartite_k2(
    left: tuple[int, ...], right: tuple[int, ...], b: Sequence[int]
) -> Placement:
    """Pairs across two sides whose nodes are all adjacent across.

    Matches the current maxima of each side until one side drains, which
    reaches min(left sum, right sum) regardless of tie handling.
    """
    residual = {v: b[v - 1] for v in left + right}
    pairs: list[tuple[int, int]] = []
    while True:
        a = max((v for v in left if residual[v] > 0),
                key=lambda v: (residual[v], -v), default=None)
        c = max((v for v in right if residual[v] > 0),
                key=lambda v: (residual[v], -v), default=None)
        if a is None or c is None:
            return Placement(tuple(pairs))
        step = min(residual[a], residual[c])
        pairs.extend([(a, c) if a < c else (c, a)] * step)
        residual[a] -= step
        residual[c] -= step


def place_kmn_k2(m: int, n: int, b: Sequence[int]) -> Placement:
    """Pairs across a complete bipartite host, left part 1..m."""
    left = tuple(range(1, m + 1))
    right = tuple(range(m + 1, m + n + 1))
    return place_bipartite_k2(left, right, b)


def place_l4_k2(b: Sequence[int]) -> Placement:
    """Pair placement on the ladder.

    Drains the end rungs first (each end node pairs with its rung mate,
    overflow going to its rail neighbor), then the middle 4-cycle 3-4-5-6
    is a plain bipartite instance on {3,5} vs {4,6}.
    """
    c = [0] + list(b)
    n1 = min(c[1], c[2] + c[4])
    n2 = min(c[2], c[1] + c[3])
    n7 = min(c[7], c[6] + c[8])
    n8 = min(c[8], c[5] + c[7])
    pairs: list[tuple[int, int]] = []
    t = min(n1, n2)
    pairs.extend([(1, 2)] * t)
    if n1 > t:
        pairs.extend([(1, 4)] * (n1 - t))
        c[4] -= n1 - t
    if n2 > t:
        pairs.extend([(2, 3)] * (n2 - t))
        c[3] -= n2 - t
    t = min(n7, n8)
    pairs.extend([(7, 8)] * t)
    if n7 > t:
        pairs.extend([(6, 7)] * (n7 - t))
        c[6] -= n7 - t
    if n8 > t:
        pairs.extend([(5, 8)] * (n8 - t))
        c[5] -= n8 - t
    # clipped ends never overdraw the middle
    assert c[3] >= 0 and c[4] >= 0 and c[5] >= 0 and c[6] >= 0
    # the middle 4-cycle reads only labels 3..6 of what is left
    pairs.extend(place_bipartite_k2((3, 5), (4, 6), c[1:]).matches)
    return Placement(tuple(pairs))


def place_cq3_k2(b: Sequence[int]) -> Placement:
    """Pairs on the crossed cube.

    Uses the cross links (1,7)/(2,8) exactly as often as the formula's
    offset says, then the remainder is a ladder instance.
    """
    d = cq3_delta(b)
    x = d if d > 0 else 0
    y = -d if d < 0 else 0
    c = list(b)
    c[0] -= x
    c[6] -= x
    c[1] -= y
    c[7] -= y
    return Placement(
        ((1, 7),) * x + ((2, 8),) * y + place_l4_k2(c).matches
    )


def cq3_delta(b: Sequence[int]) -> int:
    """Cross-link usage offset for the crossed cube.

    Half the odd-minus-even capacity surplus, clamped to what the two
    cross links (1,7) and (2,8) can carry.  Floor and ceiling rounding
    give the same final count; floor is used throughout.
    """
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    delta = (b1 + b3 + b5 + b7 - b2 - b4 - b6 - b8) // 2
    lo = -(b2 if b2 < b8 else b8)
    hi = b1 if b1 < b7 else b7
    assert lo <= 0 <= hi
    if delta < lo:
        return lo
    if delta > hi:
        return hi
    return delta


# how each rung-level pair of the collapsed 4-cycle maps back to crossed
# cube nodes: rung i holds labels (2i-1, 2i)
_CQ3_RUNG_CYCLES = {
    (1, 2): (1, 2, 3, 4),
    (2, 3): (3, 4, 5, 6),
    (3, 4): (5, 6, 7, 8),
    (1, 4): (1, 2, 7, 8),
}


def place_cq3_c4(b: Sequence[int]) -> Placement:
    """4-cycles on the crossed cube: pairs on the 4-cycle of rung minima."""
    rung_caps = (
        min(b[0], b[1]),
        min(b[2], b[3]),
        min(b[4], b[5]),
        min(b[6], b[7]),
    )
    collapsed = place_bipartite_k2((1, 3), (2, 4), rung_caps)
    return Placement(tuple(_CQ3_RUNG_CYCLES[pair] for pair in collapsed.matches))


def place_q33_c4(b: Sequence[int]) -> Placement:
    """4-cycles on the odd/even host: a pair from each side per cycle."""
    odd = place_kn_kk(4, 2, b[0::2])
    even = place_kn_kk(4, 2, b[1::2])
    return Placement(tuple(
        tuple(sorted((2 * i - 1, 2 * j - 1, 2 * p, 2 * q)))
        for (i, j), (p, q) in zip(odd.matches, even.matches)
    ))


def verify_placement(
    host: Graph,
    guest: Graph,
    b: Sequence[int],
    placement: Placement,
) -> None:
    """Check group adjacency and per-node budgets; raises on violation."""
    caps = check_capacities(b, host.vertex_count)
    valid = set(enumerate_embeddings(host, guest))
    used = [0] * host.vertex_count
    for group in placement.matches:
        if tuple(sorted(group)) not in valid:
            raise PlacementError(f"group {group} does not carry a guest copy")
        for v in group:
            used[v - 1] += 1
    for v in host.vertices():
        if used[v - 1] > caps[v - 1]:
            raise PlacementError(
                f"node {v} used {used[v - 1]} times > capacity {caps[v - 1]}"
            )
