"""Closed-form capacity evaluators and one binding per (host, guest) pair.

Each evaluator answers, in constant time, how many guest shapes of one
kind fit a host topology given per-node counts b (canonical label order).
PAIRS registers each formula with the sweep that checks it, and the
order of its witness, against the pair's floor(LP), which `numacap
verify` proves is the count (numacap.rounding).  _resolve binds every
pair once to a count: its registry entry's, or the solver's when it has
none.  The solver's count is floor(LP) alone on every pair but the
LP_GAPS graphs, which the search counts.  vmcap() validates b and calls
that binding, and closed_form_evaluator() returns the count behind the
same check; a bound count does not check b again.  The placement module
binds each pair's witness from the same registry and count.

Nothing here imports the solver or the placement module: bind_solver
imports the solver when it binds the first pair that needs it, so a
closed-form count loads neither.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from .errors import DimensionError, TopologyError
from .topology import (
    C4,
    CQ3,
    K2,
    MAX_CAPACITY,
    Q33,
    Graph,
    TopologyId,
    as_topology_id,
    canonical_id,
    check_capacities,
    every_id,
    expand_topology,
    km_n,
    star,
)

if TYPE_CHECKING:
    from fractions import Fraction


class VmcapResult(NamedTuple):
    """Count plus how it was obtained: "closed-form" for a pair with a
    formula, and "oracle" for a pair with none, whether its count is
    floor(LP) or, on an LP_GAPS pair, the solver's search."""

    count: int
    via: str = "closed-form"


# vmcap builds its result with tuple.__new__, which skips the Python-level
# __new__ that NamedTuple generates; the type is still VmcapResult
_new_tuple = tuple.__new__


def _length_error(n: int, b: Sequence[int]) -> DimensionError:
    return DimensionError(f"expected {n} capacities, got {len(b)}")


# A fixed-length formula checks its length by unpacking b, which it does
# anyway, so the registry binds the public formula itself: the check
# costs nothing until it fails.  The bound ones take their minima by
# compares, which cost less than min() calls on vmcap's hot path.


def vmcap_c4_k2(b: Sequence[int]) -> int:
    """Pairs on the 4-cycle: opposite corners pool, min(b1+b3, b2+b4)."""
    try:
        b1, b2, b3, b4 = b
    except ValueError:
        raise _length_error(4, b) from None
    odd = b1 + b3
    even = b2 + b4
    return odd if odd < even else even


def vmcap_kn_kk_rec(n: int, k: int, b: Sequence[int]) -> int:
    """k-cliques in the complete graph on n nodes.

    Either the counting bound floor(sum/k) is attainable, or the largest
    node is saturated in every optimum and the instance shrinks by one
    node and one clique slot.  Short-circuits on the first attainable
    bound instead of always recursing to k=1.
    """
    _check_clique_args(n, k, b)
    return _cliques(n, k, b)


def _cliques(n: int, k: int, b: Sequence[int]) -> int:
    """vmcap_kn_kk_rec on a vector already checked to hold n entries.

    n is b's length and is not read; the complete-host count takes the
    (n, k) its wrap-around sides take.  For k = 2 the recursion is
    min(floor(sum/2), sum - max(b)), which needs no sort.
    """
    total = sum(b)
    if k == 2:
        half = total // 2
        rest = total - max(b)
        return half if half < rest else rest
    vals = sorted(b, reverse=True)
    for i in range(k - 1):
        cap = total // (k - i)
        if cap >= vals[i]:
            return cap
        total -= vals[i]
    # the last step, floor(total / 1) >= vals[k - 1], always holds
    return total


def vmcap_kn_kk_min(n: int, k: int, b: Sequence[int]) -> int:
    """Branch-free form of vmcap_kn_kk_rec.

    min over r in [0, k) of floor((sum - r largest entries) / (k - r)).
    """
    _check_clique_args(n, k, b)
    vals = sorted(b, reverse=True)
    total = sum(vals)
    best = total // k
    removed = 0
    for r in range(1, k):
        removed += vals[r - 1]
        cur = (total - removed) // (k - r)
        if cur < best:
            best = cur
    return best


def _check_clique_args(n: int, k: int, b: Sequence[int]) -> None:
    if k < 1 or k > n:
        raise TopologyError(f"clique size k={k} outside 1..{n}")
    if len(b) != n:
        raise _length_error(n, b)


def vmcap_k4_k2(b: Sequence[int]) -> int:
    """Pairs in the complete graph on 4 nodes: min(floor(sum/2), sum - max)."""
    try:
        b1, b2, b3, b4 = b
    except ValueError:
        raise _length_error(4, b) from None
    s = b1 + b2 + b3 + b4
    return min(s // 2, s - max(b1, b2, b3, b4))


def vmcap_k4_k3(b: Sequence[int]) -> int:
    """Triples in the complete graph on 4 nodes.

    The paper's closed form; the registry counts K4 by the clique recursion.
    """
    try:
        t1, t2, t3, t4 = sorted(b, reverse=True)
    except ValueError:
        raise _length_error(4, b) from None
    s = t1 + t2 + t3 + t4
    return min(s // 3, (s - t1) // 2, s - t1 - t2)


def vmcap_l4_k2(b: Sequence[int]) -> int:
    """Pairs on the ladder.

    End rungs are clipped to what their neighbors can absorb, after which
    the odd/even side sums bound the matching like a bipartite instance.
    The ladder is bipartite, odd against even, and the even neighbours of
    odd nodes 1, 3, 5, 7 are the windows 2-4, 2-6, 4-8 and 6-8 of the
    evens in order 2, 4, 6, 8: a convex bipartite graph.  There Glover's
    rule is optimal: take the evens in order, each serving first the odd
    neighbour whose window ends first.  LADDER_ORDER is that rule as one
    fixed order of edges, which placement.greedy fills for the witness.
    """
    try:
        b1, b2, b3, b4, b5, b6, b7, b8 = b
    except ValueError:
        raise _length_error(8, b) from None
    n1 = b2 + b4
    if b1 < n1:
        n1 = b1
    n2 = b1 + b3
    if b2 < n2:
        n2 = b2
    n7 = b6 + b8
    if b7 < n7:
        n7 = b7
    n8 = b5 + b7
    if b8 < n8:
        n8 = b8
    odd = n1 + b3 + b5 + n7
    even = n2 + b4 + b6 + n8
    return odd if odd < even else even


def vmcap_cq3_k2(b: Sequence[int]) -> int:
    """Pairs on the crossed cube: six-term minimum with the clamped offset."""
    try:
        b1, b2, b3, b4, b5, b6, b7, b8 = b
    except ValueError:
        raise _length_error(8, b) from None
    sodd = b1 + b3 + b5 + b7
    seven = b2 + b4 + b6 + b8
    delta = (sodd - seven) // 2
    hi = b1 if b1 < b7 else b7
    lo = b2 if b2 < b8 else b8
    if delta > hi:
        delta = hi
    elif delta < -lo:
        delta = -lo
    # the six-term minimum as compares: criterion 8 times this one
    best = sodd - delta
    term = seven + delta
    if term < best:
        best = term
    term = b2 + b3 + b4 + b5 + b7
    if term < best:
        best = term
    term = b1 + b3 + b5 + b6 + b8
    if term < best:
        best = term
    term = b2 + b4 + b5 + b6 + b7
    if term < best:
        best = term
    term = b1 + b3 + b4 + b6 + b8
    if term < best:
        best = term
    return best


def _cq3_k2_split(b: Sequence[int], want: int) -> tuple:
    """The cq3/k2 witness of `want` pairs, split as vmcap_cq3_k2 counts:
    (caps, want, runs) for its greedy pass over LADDER_ORDER.

    Its clamped offset delta goes over the crossing edge (1, 7) when
    positive, or -delta over (2, 8) when negative, in `runs`, and the
    ladder's order places the other want - |delta| pairs on the
    residual `caps`, an l4 instance.  Of 3,000 random fixed orders of
    cq3's edges tried without the offset, the best missed the count on
    132 of 300 vectors.
    The offset repeats the formula's lines, which criterion 8 times,
    rather than have the formula call out for it.
    """
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    delta = (b1 + b3 + b5 + b7 - b2 - b4 - b6 - b8) // 2
    hi = b1 if b1 < b7 else b7
    lo = b2 if b2 < b8 else b8
    if delta > hi:
        delta = hi
    elif delta < -lo:
        delta = -lo
    if delta > 0:
        rest = (b1 - delta, b2, b3, b4, b5, b6, b7 - delta, b8)
        return rest, want - delta, (((1, 7), delta),)
    if delta < 0:
        rest = (b1, b2 + delta, b3, b4, b5, b6, b7, b8 + delta)
        return rest, want + delta, (((2, 8), -delta),)
    return b, want, ()


def vmcap_cq3_c4(b: Sequence[int]) -> int:
    """4-cycles in the crossed cube.

    Every 4-cycle covers two opposite rungs, so rung minima reduce this
    to pairs on a 4-cycle of rungs.  That 4-cycle is the complete
    bipartite graph between rungs {12, 56} and {34, 78}, so CQ3_C4_ORDER,
    the north-west-corner fill of its four edges, saturates one side and
    lays out the witness.
    """
    try:
        b1, b2, b3, b4, b5, b6, b7, b8 = b
    except ValueError:
        raise _length_error(8, b) from None
    left = (b1 if b1 < b2 else b2) + (b5 if b5 < b6 else b6)
    right = (b3 if b3 < b4 else b4) + (b7 if b7 < b8 else b8)
    return left if left < right else right


def vmcap_kmn_k2(m: int, n: int, b: Sequence[int]) -> int:
    """Pairs in a complete bipartite host: min of the two side sums."""
    if m < 1 or n < 1:
        raise TopologyError("bipartite part sizes must be >= 1")
    if len(b) != m + n:
        raise _length_error(m + n, b)
    return _sides(m, n, b)


def _sides(m: int, n: int, b: Sequence[int]) -> int:
    """vmcap_kmn_k2 on a vector already checked to hold m + n entries.

    n is not read; it keeps vmcap_kmn_k2's arguments.
    """
    left = sum(b[:m])
    right = sum(b) - left
    return left if left < right else right


def vmcap_q33_k2(b: Sequence[int]) -> int:
    """Pairs in the odd/even complete bipartite host: min of the side sums."""
    try:
        b1, b2, b3, b4, b5, b6, b7, b8 = b
    except ValueError:
        raise _length_error(8, b) from None
    odd = b1 + b3 + b5 + b7
    even = b2 + b4 + b6 + b8
    return odd if odd < even else even


def vmcap_q33_c4(b: Sequence[int]) -> int:
    """4-cycles in the odd/even complete bipartite host.

    A 4-cycle picks two odd and two even nodes, so each side behaves like
    pair selection inside a 4-node complete graph, min(floor(s/2), s - max)
    with s the side's sum.
    """
    try:
        b1, b2, b3, b4, b5, b6, b7, b8 = b
    except ValueError:
        raise _length_error(8, b) from None
    odd = b1 + b3 + b5 + b7
    top = b1 if b1 > b3 else b3
    if b5 > top:
        top = b5
    if b7 > top:
        top = b7
    best = odd // 2
    if odd - top < best:
        best = odd - top
    even = b2 + b4 + b6 + b8
    top = b2 if b2 > b4 else b4
    if b6 > top:
        top = b6
    if b8 > top:
        top = b8
    if even // 2 < best:
        best = even // 2
    if even - top < best:
        best = even - top
    return best


def normalize_capacities(
    graph: Graph,
    capacities: Sequence[int],
    subset: Optional[Sequence[int]] = None,
) -> tuple[int, ...]:
    """Clip capacities to their neighborhood sums (one simultaneous round).

    A node can never host more guests than its neighbors can partner, so
    b_i -> min(b_i, sum of b_j over neighbors j), computed for every
    selected vertex from the original vector.  Leaves the pair count of
    any connected guest with >= 2 nodes unchanged.
    """
    caps = check_capacities(capacities, graph.vertex_count)
    if subset is None:
        chosen = set(graph.vertices())
    else:
        chosen = set(subset)
        for v in chosen:
            if not (1 <= v <= graph.vertex_count):
                raise TopologyError(f"subset vertex {v} outside graph")
    return tuple(
        min(caps[v - 1], sum(caps[w - 1] for w in graph.neighbors(v)))
        if v in chosen
        else caps[v - 1]
        for v in graph.vertices()
    )


def partial_means(values: Sequence[int], k: int) -> list[Fraction]:
    """Exact prefix means S(n-i)/(k-i) for i in [0, k).

    Input must be non-decreasing.  The resulting sequence descends to a
    single trough and never rises then falls again, which is what lets
    the clique recursion stop at the first attainable bound.
    """
    n = len(values)
    if k < 1 or k > n:
        raise TopologyError(f"k={k} outside 1..{n}")
    for i in range(1, n):
        if values[i] < values[i - 1]:
            raise DimensionError("values must be non-decreasing")
    # imported here: fractions and the decimal module it loads add a few
    # ms to every start of the package, and nothing else needs them
    from fractions import Fraction

    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    return [Fraction(prefix[n - i], k - i) for i in range(k)]


class Pair(NamedTuple):
    """One closed form: its count, how its witness is laid out and the
    sweeps that check both.

    count(*args, b) reads b in the host's labels; args is
    params(host, guest) for an entry that covers a host family, and
    empty otherwise.  count reads a vector its caller has checked, a
    tuple from vmcap or the evaluator, and does not check it again.
    Each entry has sides or an order.  sides(*args) are the
    (labels, lanes) of a pair whose count is the least, over those
    sides, of the lanes-clique count on the side's labels; its witness
    is placement.wrap(sides, count(b), b).  order is a fixed-shape
    pair's embeddings in an order on which first-come is optimal; its
    witness is placement.greedy(order, b, count(b)), or, with a split,
    placement.greedy(order, *split(b, count(b))), split giving the
    (caps, want, runs) left after cq3/k2's crossing offset.  instances
    are the (host, guest, sweep) that `numacap verify` runs when no pair is
    named, each then over FULL_RANGE too; sweep (max_cap, samples) draws
    `samples` random vectors from [0..max_cap]^n, or takes all of them
    when samples is None.
    """

    count: Callable[..., int]
    instances: tuple[tuple[str, str, tuple[int, Optional[int]]], ...]
    params: Optional[Callable[[TopologyId, TopologyId], tuple]] = None
    sides: Optional[Callable[..., tuple]] = None
    order: Optional[tuple[tuple[int, ...], ...]] = None
    split: Optional[Callable[[Sequence[int], int], tuple]] = None


# the verify sweeps, (max_cap, samples) as Pair reads them
ALL_TO_5 = (5, None)
FULL_RANGE = (MAX_CAPACITY, 256)
RANDOM_TO_20 = (20, 10_000)
RANDOM_TO_12 = (12, 10_000)


def _clique_sides(n: int, k: int) -> tuple:
    """K_n's k-cliques: k lanes over all n nodes."""
    return ((range(1, n + 1), k),)


def _bipartite_sides(m: int, n: int) -> tuple:
    """K_m,n's edges: one lane on each side."""
    return ((range(1, m + 1), 1), (range(m + 1, m + n + 1), 1))


# q33 is K4,4 on its odd and even nodes, and c4 is K2,2 on its diagonals
ODD, EVEN = (1, 3, 5, 7), (2, 4, 6, 8)

# The greedy layouts' orders.  The ladder's edges by even node in order,
# each even's odd neighbours by where their windows end (vmcap_l4_k2);
# the crossed cube's 4-cycles, rung pairs of {12, 56} x {34, 78}, in
# north-west-corner order (vmcap_cq3_c4).
LADDER_ORDER = ((1, 2), (2, 3), (1, 4), (3, 4), (4, 5), (3, 6), (5, 6), (6, 7),
                (5, 8), (7, 8))
CQ3_C4_ORDER = ((1, 2, 3, 4), (1, 2, 7, 8), (3, 4, 5, 6), (5, 6, 7, 8))

# Keyed by (host kind, canonical guest).  The host kind is taken as parsed,
# not from its canonical form, as host labels index b.  Guest None on "kn"
# is any guest that fits, K4's pairs and triples included: each k-subset of
# K_n carries every k-node guest, so the count is the k-clique's.
PAIRS: dict[tuple[str, Optional[TopologyId]], Pair] = {
    ("c4", K2): Pair(vmcap_c4_k2, (("c4", "k2", ALL_TO_5),),
                     sides=lambda: (((1, 3), 1), ((2, 4), 1))),
    ("l4", K2): Pair(vmcap_l4_k2, (("l4", "k2", RANDOM_TO_20),),
                     order=LADDER_ORDER),
    ("cq3", K2): Pair(vmcap_cq3_k2, (("cq3", "k2", RANDOM_TO_20),),
                      order=LADDER_ORDER, split=_cq3_k2_split),
    ("q33", K2): Pair(vmcap_q33_k2, (("q33", "k2", RANDOM_TO_20),),
                      sides=lambda: ((ODD, 1), (EVEN, 1))),
    ("cq3", C4): Pair(vmcap_cq3_c4, (("cq3", "c4", RANDOM_TO_20),),
                      order=CQ3_C4_ORDER),
    ("q33", C4): Pair(vmcap_q33_c4, (("q33", "c4", RANDOM_TO_20),),
                      sides=lambda: ((ODD, 2), (EVEN, 2))),
    ("km_n", K2): Pair(
        _sides, (("k2_3", "k2", ALL_TO_5),),
        params=lambda host, guest: (host.m, host.n), sides=_bipartite_sides,
    ),
    ("star", K2): Pair(
        _sides, (("star5", "k2", RANDOM_TO_20),),
        params=lambda host, guest: (1, host.n), sides=_bipartite_sides,
    ),
    ("kn", None): Pair(
        _cliques,
        (("k4", "k2", ALL_TO_5), ("k4", "k3", ALL_TO_5),
         ("k4", "c4", RANDOM_TO_12), ("k5", "k3", RANDOM_TO_12),
         ("k5", "k2_3", RANDOM_TO_12), ("k6", "k2", RANDOM_TO_12),
         ("k6", "c4", RANDOM_TO_12)),
        params=lambda host, guest: (host.n, guest.vertex_count),
        sides=_clique_sides,
    ),
}

# The solver pairs, by canonical host and guest, where rounding.prove
# refuses floor(LP): the count is below it at some vector.  These 7 graph
# pairs, 34 id spellings, are left to the search and its sum limit.  Every
# other solver pair is counted by floor(LP), the smallest root term of its
# dual vertices, which a no-pair `numacap verify` proves is the count.
LP_GAPS = frozenset({
    (CQ3, star(3)), (Q33, km_n(2, 4)), (Q33, star(3)), (Q33, star(4)),
    (km_n(3, 3), star(3)), (km_n(3, 4), star(3)), (km_n(3, 5), star(3)),
})

# A guest of its host's shape has one embedding, all n nodes, as the n-clique
# has in K_n: min(b) copies of (1..n).
SAME_SHAPE = Pair(
    _cliques,
    (("c4", "c4", RANDOM_TO_20), ("star3", "k1_3", RANDOM_TO_20),
     ("l4", "l4", RANDOM_TO_20)),
    params=lambda host, guest: (host.vertex_count, host.vertex_count),
    sides=_clique_sides,
)

# A guest with more nodes than its host has no embedding: no copy fits,
# and a count of 0 lays out nothing.
NONE_FIT = Pair(lambda b: 0, (("c4", "k5", ALL_TO_5),), sides=lambda: ())

# (host, guest, sweep) for every instance the no-pair sweeps run
INSTANCES = tuple(
    instance
    for pair in (*PAIRS.values(), SAME_SHAPE, NONE_FIT)
    for instance in pair.instances
)


def entry_args(pair: Pair, pid: TopologyId, gid: TopologyId) -> tuple:
    """The args a registry entry's count and sides take for host pid and
    guest gid."""
    return () if pair.params is None else pair.params(pid, gid)


def _bind(pair: Pair, pid: TopologyId, gid: TopologyId):
    """A registry entry's count for host pid and guest gid, args bound."""
    args = entry_args(pair, pid, gid)
    return partial(pair.count, *args) if args else pair.count


def searched(pid: TopologyId, gid: TopologyId) -> bool:
    """Whether the search counts the solver pair pid/gid: its graphs are
    in LP_GAPS, where floor(LP) is not the count."""
    return (canonical_id(pid), canonical_id(gid)) in LP_GAPS


def bind_solver(pid: TopologyId, gid: TopologyId) -> Callable[[Sequence[int]], int]:
    """The exhaustive solver's count for a pair; imports the solver.

    Unless the pair is searched, the count is oracle.floor_lp's field
    minimum on the host's own labels, looked up on the first call, after
    b passed its checks, and kept, with no sum limit; the proof makes it
    exact at every vector, and no solve is built.  A searched pair calls
    its one oracle.pair_solver solve, looked up with its graphs on the
    first call and kept.  A host past the solver's node limit is refused
    with no graph built.
    """
    from . import oracle

    if pid.vertex_count > oracle.MAX_ORACLE_VERTICES:
        return oracle.refuse_host
    if not searched(pid, gid):
        lp = None

        def lp_count(b):
            nonlocal lp
            if lp is None:
                lp = oracle.floor_lp(expand_topology(pid), expand_topology(gid))
            return lp(b)

        return lp_count
    solve = None

    def count(b):
        nonlocal solve
        if solve is None:
            solve = oracle.pair_solver(expand_topology(pid), expand_topology(gid))
        return solve(b)[0]

    return count


def _checked(count: Callable[[Sequence[int]], int], n: int):
    def evaluate(b: Sequence[int]) -> int:
        return count(check_capacities(b, n))

    return evaluate


def _entry(pid: TopologyId, guest: TopologyId) -> Optional[Pair]:
    """The registry entry for host pid and canonical guest, or None: a
    guest larger than its host, then one of its host's shape, is ruled
    on before the PAIRS lookup."""
    if guest.vertex_count > pid.vertex_count:
        return NONE_FIT
    if guest == canonical_id(pid):
        return SAME_SHAPE
    return PAIRS.get((pid.kind, guest)) or PAIRS.get((pid.kind, None))


def lp_pairs() -> list[tuple[TopologyId, TopologyId]]:
    """The canonical (host, guest) of every id pair of at most
    MAX_ORACLE_VERTICES nodes that binds the solver, LP_GAPS left out:
    the pairs whose floor(LP) count a no-pair `numacap verify` proves.
    A graph pair is here when any spelling reaches the solver, as
    k4_4/c4 does where q33/c4 has a formula."""
    from .oracle import MAX_ORACLE_VERTICES

    ids = every_id(MAX_ORACLE_VERTICES)
    pairs = {(canonical_id(host), canonical_id(guest))
             for host in ids for guest in ids
             if guest.vertex_count > 1 and _entry(host, canonical_id(guest)) is None}
    return sorted(pairs - LP_GAPS, key=lambda pair: tuple(map(str, pair)))


@lru_cache(maxsize=1024)
def _resolve(pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]):
    """(host vertex count, count, via, evaluator): the pair's binding.

    Memoised, so each pair is parsed and bound once; an invalid id
    raises, and a raising call is never cached.  The guest id is
    canonicalised (topology.canonical_id); the host keeps its own id,
    whose labels index the vector.  A single-node guest raises.  A
    registry entry (_entry) binds its closed form, any other pair the
    exhaustive solver (bind_solver), whose count is floor(LP) off
    LP_GAPS.  count reads a checked vector; evaluator is a closed form's
    count behind check_capacities, and None for the solver.
    No binding expands a graph here.  A solver binding looks up its
    graphs, and its solve, on its first call, after the caller has
    checked b, and keeps them, and refuses a host past its node limit
    with ScaleLimitError, building no graph for it.
    """
    pid = as_topology_id(pnuma)
    n = pid.vertex_count
    guest = canonical_id(as_topology_id(vnuma))
    if guest.vertex_count < 2:
        raise TopologyError(
            "guest shape needs >= 2 nodes; single-node capacity is the sum"
            " of node capacities"
        )
    pair = _entry(pid, guest)
    if pair is None:
        return n, bind_solver(pid, guest), "oracle", None
    count = _bind(pair, pid, guest)
    return n, count, "closed-form", _checked(count, n)


def _resolved(pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]):
    try:
        return _resolve(pnuma, vnuma)
    except TypeError:
        # an unhashable id cannot be a cache key; resolving it uncached
        # raises the TopologyError that names it
        return _resolve.__wrapped__(pnuma, vnuma)


def closed_form_evaluator(
    pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]
):
    """The formula for a host/guest pair, or None when only the solver works.

    The returned callable takes a capacity vector, checks it as vmcap
    does, and returns the count; each pair has one, built when the pair
    is bound.  A guest of the host's own shape always has a formula,
    min(b), and a guest larger than its host has 0; a single-node guest
    raises.
    """
    return _resolved(pnuma, vnuma)[3]


def vmcap(
    pnuma: Union[TopologyId, str],
    vnuma: Union[TopologyId, str],
    capacities: Sequence[int],
) -> VmcapResult:
    """How many guests of shape `vnuma` fit a `pnuma` host with counts b.

    Calls the pair's binding: its closed form when it has one, and
    otherwise the exhaustive solver (small hosts only), which counts by
    floor(LP) with no search off LP_GAPS.  Guests must
    span at least two nodes; single-node guests are a plain sum and are
    handled by the server-level capacity functions.  b is checked here,
    once, and the binding trusts it.
    """
    # _resolved, inlined on the hot path
    try:
        n, count, via, _ = _resolve(pnuma, vnuma)
    except TypeError:
        n, count, via, _ = _resolve.__wrapped__(pnuma, vnuma)
    return _new_tuple(VmcapResult, (count(check_capacities(capacities, n)), via))
