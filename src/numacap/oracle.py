"""Exact reference solver for small instances.

The solver enumerates every embedding of the guest shape in the host
graph and searches over how many times each one is used, subject to
per-node capacities.  It is deliberately brute force: the closed-form
evaluators are tested against it, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ScaleLimitError
from .topology import Graph, check_capacities, enumerate_embeddings

MAX_ORACLE_VERTICES = 8
MAX_ORACLE_TOTAL_CAPACITY = 200
MAX_EXPANSION_COPIES = 12


@dataclass(frozen=True)
class OracleSolution:
    """Optimal count plus one witness assignment.

    multiplicities holds (embedding_index, times_used) pairs, indices into
    enumerate_embeddings(host, guest) order, nonzero entries only.
    """

    count: int
    multiplicities: tuple[tuple[int, int], ...]


def oracle_vmcap(
    host: Graph,
    guest: Graph,
    capacities: Sequence[int],
    memoize: bool = True,
    cache: Optional[dict] = None,
) -> OracleSolution:
    """Maximum simultaneous embeddings of guest into host under capacities.

    Branches on each embedding's multiplicity from high to low and
    memoizes subproblems keyed on the residual capacities of vertices
    still touched by the remaining embeddings (the alive vertices).
    Nodes are pruned with the subset-cover bound: for a set R of alive
    vertices let c(R) be the most vertices that one remaining embedding
    has in R.  Every remaining copy takes k = |V(guest)| alive vertices,
    at most c(R) of them in R, so at most
    floor((residual(alive) - residual(R)) / (k - c(R))) copies still fit
    whenever c(R) < k.  The bound is the minimum over the closed sets R,
    those where adding any alive vertex raises c(R); the others are
    dominated.  R = {} gives floor(residual sum / k), and on a complete
    host R = any r vertices gives the clique bound, so there the root
    bound is already the optimum.

    Passing a dict as `cache` reuses the memo across calls for the same
    (host, guest) pair; entries are independent of the starting
    capacities, so sweeps share most of the work.  With memoize=False a
    plain recursion with only floor(residual sum / k) runs instead (slow;
    meant for cross-checking the memoized search on tiny inputs).
    """
    caps = check_capacities(capacities, host.vertex_count)
    if host.vertex_count > MAX_ORACLE_VERTICES:
        raise ScaleLimitError(
            f"oracle supports hosts up to {MAX_ORACLE_VERTICES} vertices"
        )
    total = sum(caps)
    if total > MAX_ORACLE_TOTAL_CAPACITY:
        raise ScaleLimitError(
            f"oracle supports total capacity up to {MAX_ORACLE_TOTAL_CAPACITY},"
            f" got {total}"
        )

    statics = _pair_statics(host, guest)
    m = len(statics.embeddings)
    verts = statics.verts
    solve = _make_solver(statics, memoize, cache)

    start = tuple(caps)
    count = solve(0, start)

    # replay the search to extract one witness assignment
    mults = []
    residual = start
    remaining = count
    for idx in range(m):
        if remaining == 0:
            break
        vs = verts[idx]
        tmax = min(residual[v] for v in vs)
        for t in range(min(tmax, remaining), -1, -1):
            work = list(residual)
            for v in vs:
                work[v] -= t
            nxt = tuple(work)
            if t + solve(idx + 1, nxt) == remaining:
                if t:
                    mults.append((idx, t))
                residual = nxt
                remaining -= t
                break
    assert remaining == 0
    return OracleSolution(count=count, multiplicities=tuple(mults))


@dataclass(frozen=True)
class _PairStatics:
    """Capacity-independent search structures for one (host, guest) pair."""

    embeddings: tuple[tuple[int, ...], ...]
    verts: tuple[tuple[int, ...], ...]  # 0-based copies of embeddings
    alive: tuple[tuple[int, ...], ...]  # vertices appearing in verts[i:]
    # per index: ((vertices of R, k - c(R)), ...) over the closed sets R
    bound_terms: tuple
    k: int


@lru_cache(maxsize=16)
def _subset_tables(n: int):
    """Bit sets over the 2^n vertex subsets of an n-vertex host.

    A family of subsets is one int whose bit R is set when subset R (a
    vertex bitmask) belongs to it.  Returns the full family, per vertex v
    the family of subsets without v, and per subset its vertex tuple.
    """
    full = (1 << (1 << n)) - 1
    without = []
    for v in range(n):
        # subsets without v form runs of 2^v set bits, 2^v apart
        run = (1 << (1 << v)) - 1
        fam = 0
        for start in range(0, 1 << n, 2 << v):
            fam |= run << start
        without.append(fam)
    members = tuple(
        tuple(v for v in range(n) if r >> v & 1) for r in range(1 << n)
    )
    return full, tuple(without), members


@lru_cache(maxsize=256)
def _pair_statics(host: Graph, guest: Graph) -> _PairStatics:
    embeddings = enumerate_embeddings(host, guest)
    m = len(embeddings)
    k = guest.vertex_count
    verts = tuple(tuple(v - 1 for v in emb) for emb in embeddings)
    full, without, members = _subset_tables(host.vertex_count)
    # below[j] is the family {R : c(R) <= j}, where c(R) is the largest
    # number of vertices that one remaining embedding has in R; it starts
    # as every subset (no embedding left) and shrinks as embeddings join
    below = [full] * k
    alive: list[tuple[int, ...]] = [()] * (m + 1)
    bound_terms: list[tuple] = [(((), k),)] * (m + 1)
    alive_mask = 0
    for i in range(m - 1, -1, -1):
        # within[j]: subsets that meet embedding i in at most j vertices
        within = [full] * k
        for v in verts[i]:
            alive_mask |= 1 << v
            has_v = full ^ without[v]
            within = [
                (w & without[v]) | (within[j - 1] & has_v if j else 0)
                for j, w in enumerate(within)
            ]
        below = [b & w for b, w in zip(below, within)]
        alive[i] = members[alive_mask]
        # only subsets of the alive vertices; R is closed at level j when
        # c(R) = j and adding any alive vertex takes it out of below[j]
        inside = full
        for v, fam in enumerate(without):
            if not alive_mask >> v & 1:
                inside &= fam
        terms = []
        lower = 0
        for j in range(k):
            level = below[j] & ~lower & inside
            for v in alive[i]:
                level &= ~((below[j] >> (1 << v)) & without[v])
            lower = below[j]
            while level:
                low = level & -level
                level ^= low
                terms.append((members[low.bit_length() - 1], k - j))
        bound_terms[i] = tuple(terms)
    return _PairStatics(
        embeddings=embeddings,
        verts=verts,
        alive=tuple(alive),
        bound_terms=tuple(bound_terms),
        k=k,
    )


def _make_solver(statics: _PairStatics, memoize: bool, cache: Optional[dict]):
    verts = statics.verts
    alive = statics.alive
    bound_terms = statics.bound_terms
    m = len(verts)
    k = statics.k

    if not memoize:

        def solve_plain(idx: int, residual: tuple[int, ...]) -> int:
            if idx == m:
                return 0
            bound = sum(residual) // k
            if bound == 0:
                return 0
            vs = verts[idx]
            tmax = min(residual[v] for v in vs)
            if tmax == 0:
                return solve_plain(idx + 1, residual)
            work = list(residual)
            for v in vs:
                work[v] -= tmax
            best = 0
            t = tmax
            while True:
                val = t + solve_plain(idx + 1, tuple(work))
                if val > best:
                    best = val
                    if best >= bound:
                        break
                if t == 0:
                    break
                t -= 1
                for v in vs:
                    work[v] += 1
            return best

        return solve_plain

    memo = cache if cache is not None else {}

    def node_bound(idx: int, residual: tuple[int, ...], floor: int) -> int:
        """Smallest subset-cover term at idx, or the first one <= floor."""
        total = 0
        for v in alive[idx]:
            total += residual[v]
        stop = floor if floor > 0 else 0
        best = total
        for vs, div in bound_terms[idx]:
            s = total
            for v in vs:
                s -= residual[v]
            s //= div
            if s < best:
                best = s
                if s <= stop:
                    break
        return best

    def pack(idx: int, residual: Sequence[int]) -> int:
        # pack the alive residuals into one int: entries stay under 256
        # because total capacity is capped at 200; the nonzero idx+1
        # prefix byte keeps keys of different lengths distinct
        key = idx + 1
        for v in alive[idx]:
            key = (key << 8) | residual[v]
        return key

    def solve(idx: int, residual: tuple[int, ...], bound: int = -1) -> int:
        if idx == m:
            return 0
        key = pack(idx, residual)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if bound < 0:
            bound = node_bound(idx, residual, 0)
        return expand(idx, residual, key, bound)

    def expand(idx: int, residual: tuple[int, ...], key: int, bound: int) -> int:
        """Search node idx, not in the memo yet, whose bound is given."""
        if bound == 0:
            memo[key] = 0
            return 0
        vs = verts[idx]
        tmax = residual[vs[0]]
        for v in vs[1:]:
            if residual[v] < tmax:
                tmax = residual[v]
        if tmax == 0:
            # embedding idx is unusable, so idx + 1 has this node's value
            # and this node's bound still holds there
            best = solve(idx + 1, residual, bound)
            memo[key] = best
            return best
        work = list(residual)
        for v in vs:
            work[v] -= tmax
        nxt = idx + 1
        best = 0
        t = tmax
        while True:
            child_key = pack(nxt, work)
            val = memo.get(child_key)
            if val is None:
                child = tuple(work)
                floor = best - t
                # the child's bound is computed once: here, for the
                # pruning test, and passed on to the child's own search
                child_bound = node_bound(nxt, child, floor)
                if child_bound > floor:
                    val = expand(nxt, child, child_key, child_bound)
            if val is not None and t + val > best:
                best = t + val
                if best >= bound:
                    break
            if t == 0:
                break
            t -= 1
            for v in vs:
                work[v] += 1
        memo[key] = best
        return best

    return solve


def expand_to_simple_matching(
    graph: Graph, capacities: Sequence[int]
) -> Graph:
    """Clone each vertex capacity-many times for a plain matching check.

    Copies of adjacent vertices are fully interconnected, copies of the
    same vertex are not, so a maximum matching of the result equals the
    capacitated pair count on the original graph.  Copy labels run in
    original vertex order: vertex i owns labels sum(b[:i-1])+1 .. sum(b[:i]).
    """
    caps = check_capacities(capacities, graph.vertex_count)
    total = sum(caps)
    if total > MAX_EXPANSION_COPIES:
        raise ScaleLimitError(
            f"matching expansion supports at most {MAX_EXPANSION_COPIES}"
            f" copies, got {total}"
        )
    if total == 0:
        raise ScaleLimitError("expansion of an all-zero vector has no vertices")
    offsets = [0] * (graph.vertex_count + 1)
    for v in graph.vertices():
        offsets[v] = offsets[v - 1] + caps[v - 1]
    edges = set()
    for u, v in graph.edges:
        for cu in range(offsets[u - 1] + 1, offsets[u] + 1):
            for cv in range(offsets[v - 1] + 1, offsets[v] + 1):
                edges.add((cu, cv) if cu < cv else (cv, cu))
    return Graph(total, frozenset(edges), name=f"expanded({graph.name})")


def maximum_matching_size(graph: Graph) -> int:
    """Brute-force maximum cardinality matching via bitmask recursion."""
    n = graph.vertex_count
    adj = [0] * (n + 1)
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {}

    def go(avail: int) -> int:
        if avail == 0:
            return 0
        hit = memo.get(avail)
        if hit is not None:
            return hit
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        best = go(rest)  # leave v unmatched
        nbrs = adj[v] & rest
        while nbrs:
            ul = nbrs & -nbrs
            r = 1 + go(rest ^ ul)
            if r > best:
                best = r
            nbrs ^= ul
        memo[avail] = best
        return best

    full = 0
    for v in graph.vertices():
        full |= 1 << v
    return go(full)
