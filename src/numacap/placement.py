"""Witness placements reaching the counts.

A placement is a sequence of runs (group, copies): a host node subset
that carries the guest, and how many guests it carries; a node is used
at most b_i times over all runs.  The witness rules emit one run per
distinct group, so a witness's size does not grow with the entries of b.
Expanding it to one group per guest (`matches`, `as_lists`) is an
explicit step, bounded by MAX_EXPANDED_GROUPS.  Two rules build every
witness from a count alone: `peel` reads an optimum off any exact count
over the pair's embeddings, and `place_kn_kk` lays cliques of a complete
host out by wrap-around.  The pair registry in the formulas module names
the rule for each pair; place_k2 and place_c4_vnuma ask that registry,
through place_vnuma, for the witness of a k2 or c4 guest on a named host.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence, Union

from .errors import PlacementError, ScaleLimitError
from .topology import (
    C4,
    K2,
    Graph,
    TopologyId,
    check_capacities,
    enumerate_embeddings,
)

# the most groups `matches` and `as_lists` expand one placement to
MAX_EXPANDED_GROUPS = 10**6

Run = tuple[tuple[int, ...], int]


def _fold(runs: Iterable[tuple[Sequence[int], int]]) -> tuple[Run, ...]:
    """Canonical runs: each group a tuple, each count a positive int, and
    neighbouring runs of one group merged."""
    out: list[Run] = []
    last = None
    for group, copies in runs:
        if type(copies) is not int or copies < 1:
            raise PlacementError(f"run copies must be a positive int, got {copies!r}")
        group = tuple(group)
        if group == last:
            copies += out.pop()[1]
        out.append((group, copies))
        last = group
    return tuple(out)


@dataclass(frozen=True, init=False)
class Placement:
    """An ordered multiset of node groups, held as runs of equal groups.

    `runs` is ((group, copies), ...) with every copies >= 1 and no two
    neighbouring runs of one group, so the same sequence of groups gives
    equal placements, and equal hashes, whichever constructor built it.
    Placement(groups) takes one group per placed guest and folds them;
    Placement.from_runs takes (group, copies) pairs.
    """

    runs: tuple[Run, ...]

    def __init__(self, groups: Iterable[Sequence[int]]):
        object.__setattr__(self, "runs", _fold((group, 1) for group in groups))

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[Sequence[int], int]]) -> Placement:
        placement = cls.__new__(cls)
        object.__setattr__(placement, "runs", _fold(runs))
        return placement

    @property
    def count(self) -> int:
        return sum([copies for _, copies in self.runs])

    @property
    def matches(self) -> tuple[tuple[int, ...], ...]:
        """One group per placed guest, in order.

        Raises ScaleLimitError past MAX_EXPANDED_GROUPS groups; `runs`
        holds a placement of any size.
        """
        count = self.count
        if count > MAX_EXPANDED_GROUPS:
            raise ScaleLimitError(
                f"placement of {count} groups is past MAX_EXPANDED_GROUPS"
                f" = {MAX_EXPANDED_GROUPS}; read its runs instead"
            )
        return tuple(
            g for group, copies in self.runs for g in repeat(group, copies)
        )

    def as_lists(self) -> list[list[int]]:
        """`matches` as lists, under the same limit."""
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
    residual, so a returned placement is valid and places count(b)
    copies, in one run per embedding used.
    At most 1 + len(embeddings) * (1 + max(b).bit_length()) count calls.
    """
    residual = list(b)
    want = left = count(residual)

    def fits(e: tuple[int, ...], t: int) -> bool:
        trial = residual[:]
        for v in e:
            trial[v - 1] -= t
        return count(trial) == left - t

    runs: list[Run] = []
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
            if not t:
                continue
        runs.append((e, t))
        for v in e:
            residual[v - 1] -= t
        left -= t
    if left:
        raise PlacementError(
            f"count overclaims: {left} of {want} copies have no embedding left"
        )
    return Placement.from_runs(runs)


def place_kn_kk(n: int, k: int, b: Sequence[int]) -> Placement:
    """k-cliques in the complete graph on n nodes, by wrap-around.

    With T the clique count, node v fills min(b_v, T) cells of k lanes of
    T slots each, in label order and lane after lane, until the lanes are
    full; slot s of every lane forms one clique.  A node fills at most T
    consecutive cells, so it never lands twice in one slot (McNaughton's
    wrap-around rule), and the capped cells always fill the k·T cells.
    A range of slots over which no lane changes node is one run, so the
    placement holds at most n runs.
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
    runs: list[Run] = []
    for lo, hi in zip(cuts, cuts[1:] + [slots]):
        group = tuple(
            labels[bisect_right(ends, lane * slots + lo)] for lane in range(k)
        )
        runs.append((group, hi - lo))
    return Placement.from_runs(runs)


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
    """Check group adjacency and per-node budgets; raises on violation.

    Each run is checked once, so the cost follows the number of runs,
    not the number of copies.
    """
    caps = check_capacities(b, host.vertex_count)
    valid = set(enumerate_embeddings(host, guest))
    used = [0] * host.vertex_count
    for group, copies in placement.runs:
        if tuple(sorted(group)) not in valid:
            raise PlacementError(f"group {group} does not carry a guest copy")
        for v in group:
            used[v - 1] += copies
    for v in host.vertices():
        if used[v - 1] > caps[v - 1]:
            raise PlacementError(
                f"node {v} used {used[v - 1]} times > capacity {caps[v - 1]}"
            )
