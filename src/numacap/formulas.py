"""Closed-form capacity evaluators.

Each evaluator answers, in constant time, how many guest shapes of one
kind fit a host topology given per-node counts b (canonical label order).
Every formula here is checked against the exhaustive solver in the test
suite; pairs without a formula fall back to that solver through vmcap().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import DimensionError, TopologyError
from .oracle import oracle_vmcap
from .topology import (
    Graph,
    TopologyId,
    as_topology_id,
    canonical_id,
    check_capacities,
    expand_topology,
)


@dataclass(frozen=True)
class VmcapResult:
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
    """Triples in the complete graph on 4 nodes."""
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


def vmcap_q33_c4(b: Sequence[int]) -> int:
    """4-cycles in the odd/even complete bipartite host.

    A 4-cycle picks two odd and two even nodes, so each side behaves like
    pair selection inside a 4-node complete graph.
    """
    if len(b) != 8:
        raise DimensionError(f"expected 8 capacities, got {len(b)}")
    return min(vmcap_k4_k2(b[0::2]), vmcap_k4_k2(b[1::2]))


def _vmcap_same_shape(n: int, b: Sequence[int]) -> int:
    """A guest shaped like its n-node host: every copy takes each node once."""
    if len(b) != n:
        raise DimensionError(f"expected {n} capacities, got {len(b)}")
    return min(b)


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


def closed_form_evaluator(
    pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]
):
    """The formula for a host/guest pair, or None when only the solver works.

    The returned callable takes a capacity vector and returns the count.
    Formula functions are resolved per call so tests can substitute them.
    The guest id is canonicalised first (k2_2 is c4, k1_1 is k2, k1_N is
    starN); the host keeps its own id, whose labels index the vector.  A
    guest of the host's own shape always has a formula: min(b).
    """
    pid = as_topology_id(pnuma)
    gid = canonical_id(vnuma)
    if canonical_id(pid) == gid:
        return lambda caps, n=pid.vertex_count: _vmcap_same_shape(n, caps)
    pk, gk = pid.kind, gid.kind
    if gk == "kn" and gid.n == 2:
        if pk == "c4":
            return lambda caps: vmcap_c4_k2(caps)
        if pk == "l4":
            return lambda caps: vmcap_l4_k2(caps)
        if pk == "cq3":
            return lambda caps: vmcap_cq3_k2(caps)
        if pk == "q33":
            return lambda caps: vmcap_kmn_k2(
                4, 4, tuple(caps[0::2]) + tuple(caps[1::2])
            )
        if pk == "km_n":
            return lambda caps, m=pid.m, n=pid.n: vmcap_kmn_k2(m, n, caps)
        if pk == "star":
            return lambda caps, n=pid.n: vmcap_kmn_k2(1, n, caps)
        if pk == "kn" and pid.n == 4:
            return lambda caps: vmcap_k4_k2(caps)
        if pk == "kn" and pid.n >= 2:
            return lambda caps, n=pid.n: vmcap_kn_kk_rec(n, 2, caps)
        return None
    if gk == "kn" and pk == "kn" and 2 <= gid.n <= pid.n:
        if pid.n == 4 and gid.n == 3:
            return lambda caps: vmcap_k4_k3(caps)
        return lambda caps, n=pid.n, k=gid.n: vmcap_kn_kk_rec(n, k, caps)
    if gk == "c4":
        if pk == "cq3":
            return lambda caps: vmcap_cq3_c4(caps)
        if pk == "q33":
            return lambda caps: vmcap_q33_c4(caps)
    return None


@lru_cache(maxsize=1024)
def _resolve(pnuma: Union[TopologyId, str], vnuma: Union[TopologyId, str]):
    """(host id, guest id, host vertex count, evaluator or None) for a pair.

    Memoised, so vmcap() parses each id and picks its formula once per
    pair.  An invalid id raises, and a raising call is never cached.  The
    evaluator is None when the guest is too small or too large for a
    formula, or when the pair has none.
    """
    pid = as_topology_id(pnuma)
    gid = as_topology_id(vnuma)
    n = pid.vertex_count
    fn = None
    if 2 <= gid.vertex_count <= n:
        fn = closed_form_evaluator(pid, gid)
    return pid, gid, n, fn


def vmcap(
    pnuma: Union[TopologyId, str],
    vnuma: Union[TopologyId, str],
    capacities: Sequence[int],
) -> VmcapResult:
    """How many guests of shape `vnuma` fit a `pnuma` host with counts b.

    Routes to a closed-form evaluator when one exists for the pair and
    otherwise runs the exhaustive solver (small hosts only).  Guests must
    span at least two nodes; single-node guests are a plain sum and are
    handled by the server-level capacity functions.
    """
    try:
        pid, gid, n, fn = _resolve(pnuma, vnuma)
    except TypeError:
        # an unhashable id cannot be a cache key; resolving it uncached
        # raises the TopologyError that names it
        pid, gid, n, fn = _resolve.__wrapped__(pnuma, vnuma)
    caps = check_capacities(capacities, n)
    if fn is not None:
        return VmcapResult(fn(caps))
    if gid.vertex_count < 2:
        raise TopologyError(
            "guest shape needs >= 2 nodes; single-node capacity is the sum"
            " of node capacities"
        )
    if gid.vertex_count > n:
        return VmcapResult(0)
    host = expand_topology(pid)
    guest = expand_topology(gid)
    solution = oracle_vmcap(host, guest, caps)
    return VmcapResult(solution.count, via="oracle")
