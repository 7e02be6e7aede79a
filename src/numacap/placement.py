"""Witness placements reaching the counts.

A placement lists concrete node groups, one per placed guest, each a
host subset that carries the guest; a node appears in at most b_i groups
overall.  Two rules build every witness from a count alone: `peel` reads
an optimum off any exact count over the pair's embeddings, and
`place_kn_kk` lays cliques of a complete host out by wrap-around.  The
pair registry in the formulas module names the rule for each pair;
place_k2 and place_c4_vnuma ask that registry, through place_vnuma, for
the witness of a k2 or c4 guest on a named host.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import PlacementError
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


def peel(
    count: Callable[[Sequence[int]], int],
    embeddings: Sequence[tuple[int, ...]],
    b: Sequence[int],
) -> Placement:
    """count(b) guests, peeled embedding by embedding from the count itself.

    For each embedding e in turn, takes the largest t with
    count(r - t·e) == count(r) - t, r the residual so far, probing t at
    min(residual on e, copies left) first and bisecting below it, then
    subtracts t·e from r.  Two facts make one pass enough:

    - Adding t copies of e to a packing of r - t·e packs r, so
      count(r - t·e) <= count(r) - t always, with equality exactly when
      some optimum of r holds t copies of e.  That optimum holds every
      smaller number of copies too, so the t that work form a prefix
      0..T and bisection finds T.
    - After T is taken, no optimum of r - T·e holds e, or T + 1 would
      work.  Each later step takes copies some optimum holds, so an
      optimum of a later residual plus those copies is an optimum of
      r - T·e, and e is never needed again.  When the pass ends with
      copies left, no embedding belongs to an optimum of a residual
      whose count is positive: the count overclaims.

    count must be exact on every residual; an overclaim raises
    PlacementError, and each returned group is an embedding within the
    residual, so a returned placement is valid and has count(b) groups.
    At most 1 + len(embeddings) * (1 + max(b).bit_length()) count calls.
    """
    residual = list(b)
    left = count(residual)

    def fits(e: tuple[int, ...], t: int) -> bool:
        trial = residual[:]
        for v in e:
            trial[v - 1] -= t
        return count(trial) == left - t

    matches: list[tuple[int, ...]] = []
    for e in embeddings:
        if not left:
            break
        top = min([residual[v - 1] for v in e])
        if top > left:
            top = left
        if not top:
            continue
        if fits(e, top):
            t = top
        else:
            t, bad = 0, top
            while bad - t > 1:
                mid = (t + bad) // 2
                if fits(e, mid):
                    t = mid
                else:
                    bad = mid
        matches += [e] * t
        for v in e:
            residual[v - 1] -= t
        left -= t
    if left:
        raise PlacementError(
            f"count overclaims: {left} of {len(matches) + left} copies have"
            f" no embedding left"
        )
    return Placement(tuple(matches))


def place_kn_kk(n: int, k: int, b: Sequence[int]) -> Placement:
    """k-cliques in the complete graph on n nodes, by wrap-around.

    With T the clique count, node v fills min(b_v, T) cells of k lanes of
    T slots each, in label order and lane after lane, until the lanes are
    full; slot s of every lane forms one clique.  A node fills at most T
    consecutive cells, so it never lands twice in one slot (McNaughton's
    wrap-around rule), and the capped cells always fill the k·T cells.
    A run of slots over which no lane changes node is emitted as one
    group repeated, so the placement holds O(n + k) distinct tuples.
    """
    from .formulas import vmcap_kn_kk_rec  # the registry imports this module

    caps = check_capacities(b, n)
    slots = vmcap_kn_kk_rec(n, k, caps)
    if not slots:
        return Placement(())
    cells = k * slots
    labels: list[int] = []
    ends: list[int] = []  # the cell past each laid-out node's run
    filled = 0
    for v, c in enumerate(caps, 1):
        if c and filled < cells:
            filled = min(filled + min(c, slots), cells)
            labels.append(v)
            ends.append(filled)
    # a lane changes node only where some run ends
    cuts = sorted({0, *(e % slots for e in ends)})
    matches: list[tuple[int, ...]] = []
    for lo, hi in zip(cuts, cuts[1:] + [slots]):
        group = tuple(
            labels[bisect_right(ends, lane * slots + lo)] for lane in range(k)
        )
        matches += [group] * (hi - lo)
    return Placement(tuple(matches))


def place_k2(topology: Union[TopologyId, str], b: Sequence[int]) -> Placement:
    """Pair placement achieving the pair-capacity formula for the host."""
    from .formulas import place_vnuma  # the registry imports this module

    return place_vnuma(topology, K2, b)


def place_c4_vnuma(
    topology: Union[TopologyId, str], b: Sequence[int]
) -> Placement:
    """4-cycle guest placement on any host, as place_vnuma gives it."""
    from .formulas import place_vnuma  # the registry imports this module

    return place_vnuma(topology, C4, b)


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
