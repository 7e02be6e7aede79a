"""Closed-form capacity evaluators and one binding per (host, guest) pair.

Each evaluator answers, in constant time, how many guest shapes of one
kind fit a host topology given per-node counts b (canonical label order).
PAIRS registers each formula with the sweep that checks it, and its
witness, against the exhaustive solver.  _resolve binds every pair once
to a count and a witness: its registry entry's, or the solver's when it
has none.  vmcap() and place_vnuma() validate b and call that binding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import DimensionError, TopologyError
from .oracle import oracle_vmcap
from .placement import Placement, peel, place_kn_kk
from .topology import (
    C4,
    K2,
    Graph,
    TopologyId,
    as_topology_id,
    canonical_id,
    check_capacities,
    enumerate_embeddings,
    expand_topology,
)


class VmcapResult(NamedTuple):
    """Count plus how it was obtained ("closed-form" or "oracle")."""

    count: int
    via: str = "closed-form"


def vmcap_c4_k2(b: Sequence[int]) -> int:
    """Pairs on the 4-cycle: opposite corners pool, min(b1+b3, b2+b4)."""
    if len(b) != 4:
        raise DimensionError(f"expected 4 capacities, got {len(b)}")
    b1, b2, b3, b4 = b
    return min(b1 + b3, b2 + b4)


def vmcap_kn_kk_rec(n: int, k: int, b: Sequence[int]) -> int:
    """k-cliques in the complete graph on n nodes.

    Either the counting bound floor(sum/k) is attainable, or the largest
    node is saturated in every optimum and the instance shrinks by one
    node and one clique slot.  Short-circuits on the first attainable
    bound instead of always recursing to k=1.
    """
    _check_clique_args(n, k, b)
    vals = sorted(b, reverse=True)
    total = sum(vals)
    for i in range(k):
        cap = total // (k - i)
        if cap >= vals[i]:
            return cap
        total -= vals[i]
    raise AssertionError("unreachable: bound is always attainable at k=1")


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
        raise DimensionError(f"expected {n} capacities, got {len(b)}")


def vmcap_k4_k2(b: Sequence[int]) -> int:
    """Pairs in the complete graph on 4 nodes: min(floor(sum/2), sum - max)."""
    if len(b) != 4:
        raise DimensionError(f"expected 4 capacities, got {len(b)}")
    s = b[0] + b[1] + b[2] + b[3]
    return min(s // 2, s - max(b))


def vmcap_k4_k3(b: Sequence[int]) -> int:
    """Triples in the complete graph on 4 nodes.

    The paper's closed form; the registry counts K4 by vmcap_kn_kk_rec.
    """
    if len(b) != 4:
        raise DimensionError(f"expected 4 capacities, got {len(b)}")
    top = sorted(b, reverse=True)
    s = top[0] + top[1] + top[2] + top[3]
    return min(s // 3, (s - top[0]) // 2, s - top[0] - top[1])


def vmcap_l4_k2(b: Sequence[int]) -> int:
    """Pairs on the ladder.

    End rungs are clipped to what their neighbors can absorb, after which
    the odd/even side sums bound the matching like a bipartite instance.
    """
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    n1 = min(b1, b2 + b4)
    n2 = min(b2, b1 + b3)
    n7 = min(b7, b6 + b8)
    n8 = min(b8, b5 + b7)
    return min(n1 + b3 + b5 + n7, n2 + b4 + b6 + n8)


def vmcap_cq3_k2(b: Sequence[int]) -> int:
    """Pairs on the crossed cube: six-term minimum with the clamped offset."""
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    sodd = b1 + b3 + b5 + b7
    seven = b2 + b4 + b6 + b8
    delta = (sodd - seven) // 2
    hi = b1 if b1 < b7 else b7
    lo = b2 if b2 < b8 else b8
    if delta > hi:
        delta = hi
    elif delta < -lo:
        delta = -lo
    # the six-term minimum as compares: this is the hot path that
    # criterion 8 times, and a min() call costs more than the compares
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


def vmcap_cq3_c4(b: Sequence[int]) -> int:
    """4-cycles in the crossed cube.

    Every 4-cycle covers two opposite rungs, so rung minima reduce this
    to pairs on a 4-cycle of rungs.
    """
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    return min(
        min(b1, b2) + min(b5, b6),
        min(b3, b4) + min(b7, b8),
    )


def vmcap_kmn_k2(m: int, n: int, b: Sequence[int]) -> int:
    """Pairs in a complete bipartite host: min of the two side sums."""
    if m < 1 or n < 1:
        raise TopologyError("bipartite part sizes must be >= 1")
    if len(b) != m + n:
        raise DimensionError(f"expected {m + n} capacities, got {len(b)}")
    return min(sum(b[:m]), sum(b[m:]))


def vmcap_q33_k2(b: Sequence[int]) -> int:
    """Pairs in the odd/even complete bipartite host: min of the side sums."""
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    return min(b1 + b3 + b5 + b7, b2 + b4 + b6 + b8)


def vmcap_q33_c4(b: Sequence[int]) -> int:
    """4-cycles in the odd/even complete bipartite host.

    A 4-cycle picks two odd and two even nodes, so each side behaves like
    pair selection inside a 4-node complete graph.
    """
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    return min(vmcap_k4_k2(b[0::2]), vmcap_k4_k2(b[1::2]))


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
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    return [Fraction(prefix[n - i], k - i) for i in range(k)]


class Pair(NamedTuple):
    """One closed form: its count, its witness and the sweeps that check both.

    count(*args, b) and witness(*args, b) read b in the host's labels;
    args is params(host, guest) for an entry that covers a host family,
    and empty otherwise.  A complete host's entry names the wrap-around
    clique layout as its witness; witness None peels one from count over
    the pair's embeddings.  instances are the (host, guest, sweep) that
    `numacap verify` runs when no pair is named; sweep (max_cap, samples)
    draws `samples` random vectors from [0..max_cap]^n, or takes all of
    them when samples is None.
    """

    count: Callable[..., int]
    instances: tuple[tuple[str, str, tuple[int, Optional[int]]], ...]
    params: Optional[Callable[[TopologyId, TopologyId], tuple]] = None
    witness: Optional[Callable[..., Placement]] = None


# the verify sweeps, (max_cap, samples) as Pair reads them
ALL_TO_5 = (5, None)
RANDOM_TO_20 = (20, 10_000)
RANDOM_TO_12 = (12, 10_000)

# Keyed by (host kind, canonical guest).  The host kind is taken as parsed,
# not from its canonical form, as host labels index b.  Guest None on "kn"
# is any guest that fits, K4's pairs and triples included: each k-subset of
# K_n carries every k-node guest, so the count is the k-clique's.
PAIRS: dict[tuple[str, Optional[TopologyId]], Pair] = {
    ("c4", K2): Pair(vmcap_c4_k2, (("c4", "k2", ALL_TO_5),)),
    ("l4", K2): Pair(vmcap_l4_k2, (("l4", "k2", RANDOM_TO_20),)),
    ("cq3", K2): Pair(vmcap_cq3_k2, (("cq3", "k2", RANDOM_TO_20),)),
    ("q33", K2): Pair(vmcap_q33_k2, (("q33", "k2", RANDOM_TO_20),)),
    ("cq3", C4): Pair(vmcap_cq3_c4, (("cq3", "c4", RANDOM_TO_20),)),
    ("q33", C4): Pair(vmcap_q33_c4, (("q33", "c4", RANDOM_TO_20),)),
    ("km_n", K2): Pair(
        vmcap_kmn_k2, (("k2_3", "k2", ALL_TO_5),),
        params=lambda host, guest: (host.m, host.n),
    ),
    ("star", K2): Pair(
        vmcap_kmn_k2, (("star5", "k2", RANDOM_TO_20),),
        params=lambda host, guest: (1, host.n),
    ),
    ("kn", None): Pair(
        vmcap_kn_kk_rec,
        (("k4", "k2", ALL_TO_5), ("k4", "k3", ALL_TO_5),
         ("k4", "c4", RANDOM_TO_12), ("k5", "k3", RANDOM_TO_12),
         ("k5", "k2_3", RANDOM_TO_12), ("k6", "k2", RANDOM_TO_12),
         ("k6", "c4", RANDOM_TO_12)),
        params=lambda host, guest: (host.n, guest.vertex_count),
        witness=place_kn_kk,
    ),
}

# A guest of its host's shape has one embedding, all n nodes, as the n-clique
# has in K_n: min(b) copies of (1..n).
SAME_SHAPE = Pair(
    vmcap_kn_kk_rec,
    (("c4", "c4", RANDOM_TO_20), ("c4", "k2_2", RANDOM_TO_20),
     ("star3", "k1_3", RANDOM_TO_20), ("l4", "l4", RANDOM_TO_20)),
    params=lambda host, guest: (host.vertex_count, host.vertex_count),
    witness=place_kn_kk,
)

# A guest with more nodes than its host has no embedding: no copy fits.
NONE_FIT = Pair(lambda b: 0, (("c4", "k5", ALL_TO_5),))

# (host, guest, sweep) for every instance the no-pair sweeps run
INSTANCES = tuple(
    instance
    for pair in (*PAIRS.values(), SAME_SHAPE, NONE_FIT)
    for instance in pair.instances
)


def _bind(pair: Pair, pid: TopologyId, gid: TopologyId):
    count, witness = pair.count, pair.witness
    if pair.params is not None:
        args = pair.params(pid, gid)
        count = partial(count, *args)
        if witness is not None:
            witness = partial(witness, *args)
    if witness is None:
        embeddings = None

        def witness(b):
            # looked up on the first call, after b passed its checks
            nonlocal embeddings
            if embeddings is None:
                embeddings = enumerate_embeddings(
                    expand_topology(pid), expand_topology(gid)
                )
            return peel(count, embeddings, b)
    return count, witness, "closed-form"


def _bind_solver(pid: TopologyId, gid: TopologyId):
    def count(b):
        return oracle_vmcap(expand_topology(pid), expand_topology(gid), b).count

    def witness(b):
        host, guest = expand_topology(pid), expand_topology(gid)
        embeddings = enumerate_embeddings(host, guest)
        return Placement.from_runs(
            (embeddings[i], t)
            for i, t in oracle_vmcap(host, guest, b).multiplicities
        )

    return count, witness, "oracle"


@lru_cache(maxsize=1024)
def _resolve(pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]):
    """(host vertex count, count, witness, via): the pair's one binding.

    Memoised, so each pair is parsed and bound once; an invalid id
    raises, and a raising call is never cached.  The guest id is
    canonicalised (k2_2 is c4, k1_1 is k2, k1_N is starN); the host keeps
    its own id, whose labels index the vector.  A single-node guest
    raises, and a guest larger than its host, then one of its host's
    shape, is ruled on before the PAIRS lookup.  A registry entry binds
    its closed form and witness, any other pair the exhaustive solver.
    No binding expands a graph here: the solver looks its graphs up when
    it runs, in expand_topology's memo, and the peeled witness on its
    first call, after the caller has checked b.
    """
    pid = as_topology_id(pnuma)
    n = pid.vertex_count
    guest = canonical_id(as_topology_id(vnuma))
    if guest.vertex_count < 2:
        raise TopologyError(
            "guest shape needs >= 2 nodes; single-node capacity is the sum"
            " of node capacities"
        )
    if guest.vertex_count > n:
        pair = NONE_FIT
    elif guest == canonical_id(pid):
        pair = SAME_SHAPE
    else:
        pair = PAIRS.get((pid.kind, guest)) or PAIRS.get((pid.kind, None))
    if pair is None:
        return (n, *_bind_solver(pid, guest))
    return (n, *_bind(pair, pid, guest))


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

    The returned callable takes a capacity vector and returns the count.
    A guest of the host's own shape always has a formula, min(b), and a
    guest larger than its host has 0; a single-node guest raises.
    """
    _, count, _, via = _resolved(pnuma, vnuma)
    return count if via == "closed-form" else None


def vmcap(
    pnuma: Union[TopologyId, str],
    vnuma: Union[TopologyId, str],
    capacities: Sequence[int],
) -> VmcapResult:
    """How many guests of shape `vnuma` fit a `pnuma` host with counts b.

    Calls the pair's binding: its closed form when it has one, and
    otherwise the exhaustive solver (small hosts only).  Guests must
    span at least two nodes; single-node guests are a plain sum and are
    handled by the server-level capacity functions.
    """
    n, count, _, via = _resolved(pnuma, vnuma)
    return VmcapResult(count(check_capacities(capacities, n)), via)


def place_vnuma(
    pnuma: Union[TopologyId, str],
    vnuma: Union[TopologyId, str],
    capacities: Sequence[int],
) -> Placement:
    """A placement of vmcap(pnuma, vnuma, capacities).count guests.

    A closed pair takes its registry witness, and any other pair the
    solver's, which raises ScaleLimitError where vmcap does.  Peeling
    enumerates the host's embeddings, so a closed pair peeled on a host
    past enumerate_embeddings' node limit raises ScaleLimitError too.
    """
    n, _, witness, _ = _resolved(pnuma, vnuma)
    return witness(check_capacities(capacities, n))
