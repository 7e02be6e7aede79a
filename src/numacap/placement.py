"""Witness placements reaching the counts.

A placement is a sequence of runs (group, copies): a host node subset
that carries the guest, and how many guests it carries; a node is used
at most b_i times over all runs.  The witness rules emit one run per
distinct group, so a witness's size does not grow with the entries of b.
Expanding it to one group per guest (`matches`, `as_lists`) is an
explicit step, bounded by MAX_EXPANDED_GROUPS.  `wrap` lays out the
count of a pair whose count is a minimum over sides of clique counts
(complete and complete bipartite hosts) by wrap-around, and `greedy`
fills a fixed order of groups on which first-come is optimal (the
ladder's and crossed cube's pairs and the crossed cube's 4-cycles).
The pair registry in the formulas module names each closed pair's sides
or greedy order, and place_vnuma binds each pair's witness once, from
that registry and the pair's bound count.  A pair with no formula takes
its runs from oracle.bind, which also gives its count: floor(LP)'s
one-pass layout, or the search's on an LP_GAPS pair.  place_k2 and
place_c4_vnuma ask place_vnuma for the witness of a k2 or c4 guest on a
named host.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterable, Sequence, Union

from . import formulas
from .errors import PlacementError, ScaleLimitError
from .topology import (
    Graph,
    TopologyId,
    _frozen_del,
    _frozen_set,
    _set,
    as_topology_id,
    canonical_id,
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


class Placement:
    """An ordered multiset of node groups, held as runs of equal groups.

    `runs` is ((group, copies), ...) with every copies >= 1 and no two
    neighbouring runs of one group, so the same sequence of groups gives
    equal placements, and equal hashes, whichever constructor built it.
    Placement(groups) takes one group per placed guest and folds them;
    Placement.from_runs takes (group, copies) pairs.  Immutable, and not
    a sequence: its size is `count`, not a len() of its runs.
    """

    __slots__ = ("runs",)

    def __init__(self, groups: Iterable[Sequence[int]]):
        _set(self, "runs", _fold((group, 1) for group in groups))

    __setattr__ = _frozen_set
    __delattr__ = _frozen_del

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash((self.runs,))

    def __repr__(self) -> str:
        return f"Placement(runs={self.runs!r})"

    def __reduce__(self):
        return type(self).from_runs, (self.runs,)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[Sequence[int], int]]) -> Placement:
        return cls._canonical(_fold(runs))

    @classmethod
    def _canonical(cls, runs: tuple[Run, ...]) -> Placement:
        """A placement of runs already folded, as the witness rules emit
        them: tuple groups, positive int copies, neighbours distinct."""
        placement = cls.__new__(cls)
        _set(placement, "runs", runs)
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


def greedy(
    groups: Sequence[tuple[int, ...]],
    caps: Sequence[int],
    want: int,
    runs: Sequence[Run] = (),
) -> Placement:
    """`want` copies placed after `runs` by one pass over `groups`.

    Each group in turn takes min(copies left, residual on its nodes),
    caps being the residual the runs leave.  The pass reaches every
    count only on an order where first-come is optimal, as the
    registry's are; a want it cannot reach raises PlacementError: the
    count overclaims.
    groups are distinct tuples, none the group of runs' last run, so the
    result is canonical: one run per group that takes a copy.
    """
    # indexed by label: slot 0 pads, so no lookup subtracts 1
    residual = [0, *caps]
    out = list(runs)
    left = want
    for group in groups:
        take = left
        for v in group:
            if residual[v] < take:
                take = residual[v]
        if take:
            for v in group:
                residual[v] -= take
            out.append((group, take))
            left -= take
            if not left:
                break
    if left:
        raise PlacementError(
            f"count overclaims: {left} of {want} copies have no group left"
        )
    return Placement._canonical(tuple(out))


def wrap(
    sides: Sequence[tuple[Sequence[int], int]], slots: int, caps: Sequence[int]
) -> Placement:
    """`slots` groups laid out side by side by wrap-around.

    Each side (labels, lanes) fills `lanes` lanes of `slots` cells each:
    its nodes, in label order, take min(caps_v, slots) consecutive cells
    each, lane after lane, until the lanes are full.  Slot s of every
    lane, side after side, forms one group, its nodes in that order.  A
    node fills at most `slots` consecutive cells, so it never lands
    twice in one slot (McNaughton's wrap-around rule), and the sides'
    labels are disjoint.  A side fills its lanes exactly when slots is
    at most its clique count, _cliques over its labels with k = lanes,
    so slots = the least of those counts lays out an optimum; a side
    that cannot fill its lanes, or slots on no sides at all, raises
    PlacementError: the count overclaims.
    A lane changes node only at the offset where a node starts or wraps
    into it, so the layout emits one run per distinct such offset: at
    most one per node, whatever the entries of caps.
    """
    if not slots:
        return Placement._canonical(())
    events = []  # (offset, lane, node): lane holds node from offset on
    base = 0
    for labels, lanes in sides:
        cells = lanes * slots
        filled = lane = offset = 0
        for v in labels:
            c = caps[v - 1]
            if not c:
                continue
            events.append((offset, base + lane, v))
            if c > slots:
                c = slots
            filled += c
            if filled >= cells:
                break
            offset += c
            if offset >= slots:
                lane += 1
                offset -= slots
                if offset:
                    # v runs on into the next lane, from its first slot
                    events.append((0, base + lane, v))
        else:
            raise PlacementError(
                f"count overclaims: {slots} slots leave {cells - filled} of"
                f" {cells} cells empty on {lanes} lane(s) of {len(labels)} nodes"
            )
        base += lanes
    if not events:
        raise PlacementError(f"count overclaims: {slots} slots on no lanes")
    events.sort()
    group = [0] * base
    runs: list[Run] = []
    start = 0
    for offset, lane, v in events:
        if offset != start:
            runs.append((tuple(group), offset - start))
            start = offset
        group[lane] = v
    runs.append((tuple(group), slots - start))
    # neighbouring runs differ: some lane changes node at each offset
    return Placement._canonical(tuple(runs))


def place_kn_kk(n: int, k: int, b: Sequence[int]) -> Placement:
    """k-cliques in the complete graph on n nodes: the clique count laid
    out by wrap, k lanes over nodes 1..n, in at most n runs."""
    caps = check_capacities(b, n)
    return wrap(((range(1, n + 1), k),), formulas.vmcap_kn_kk_rec(n, k, caps), caps)


@lru_cache(maxsize=1024)
def _bind(pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]):
    """(host vertex count, witness): the pair's witness of its bound count.

    Memoised as formulas._resolve is, on whose binding it builds: a
    registry pair lays its count out by wrap-around from its sides or by
    greedy over its order, building no graph; any other pair takes the
    runs of the solver's rule (oracle.bind), which imports the solver
    on the first such pair.  The witness reads a checked vector.
    """
    n, count, _, _ = formulas._resolved(pnuma, vnuma)
    pid = as_topology_id(pnuma)
    gid = canonical_id(as_topology_id(vnuma))
    pair = formulas._entry(pid, gid)
    if pair is None:
        from .oracle import bind

        runs = bind(pid, gid)[1]

        def witness(b):
            return Placement._canonical(runs(b))

        return n, witness
    if pair.sides is not None:
        sides = pair.sides(*formulas.entry_args(pair, pid, gid))

        def witness(b):
            return wrap(sides, count(b), b)
    elif pair.split is None:
        order = pair.order

        def witness(b):
            return greedy(order, b, count(b))
    else:
        order, split = pair.order, pair.split

        def witness(b):
            return greedy(order, *split(b, count(b)))
    return n, witness


def place_vnuma(
    pnuma: Union[TopologyId, str],
    vnuma: Union[TopologyId, str],
    capacities: Sequence[int],
) -> Placement:
    """A placement of vmcap(pnuma, vnuma, capacities).count guests.

    A closed pair takes its registry witness: a complete or complete
    bipartite host's laid out by wrap-around on a host of any size, and
    l4/k2's, cq3/k2's and cq3/c4's by one greedy pass.  A pair with no
    formula takes the runs oracle.bind gives with its count:
    floor(LP)'s one-pass layout at any magnitude, and on an LP_GAPS pair
    the search's.  Either raises ScaleLimitError where vmcap does, with
    the same message, on a host past 8 nodes or past the search's sum
    limit.
    """
    try:
        n, witness = _bind(pnuma, vnuma)
    except TypeError:
        # an unhashable id cannot be a cache key; binding it uncached
        # raises the TopologyError that names it
        n, witness = _bind.__wrapped__(pnuma, vnuma)
    return witness(check_capacities(capacities, n))


def place_k2(topology: Union[TopologyId, str], b: Sequence[int]) -> Placement:
    """Pair placement achieving the pair-capacity formula for the host."""
    return place_vnuma(topology, "k2", b)


def place_c4_vnuma(
    topology: Union[TopologyId, str], b: Sequence[int]
) -> Placement:
    """4-cycle guest placement on any host, as place_vnuma gives it."""
    return place_vnuma(topology, "c4", b)


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
