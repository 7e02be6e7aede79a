"""Exact reference solver for small instances.

The solver enumerates every embedding of the guest shape in the host
graph and asks, for each target count from a bound down, whether they
pack that many copies under the per-node capacities.  It is exhaustive:
the closed-form evaluators are tested against it, never the reverse.
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

    A descending target search: find(idx, residual, need) asks whether
    the embeddings from idx on pack `need` copies into the residual
    capacities, trying each multiplicity from high to low.  The count is
    the first target, from the root bound down, that packs, and the
    multiplicities find chose are the witness.  The bound is the
    subset-cover bound: for a set R of alive vertices (those the
    remaining embeddings touch) let c(R) be the most vertices one
    remaining embedding has in R.  Each remaining copy takes k =
    |V(guest)| alive vertices, at most c(R) of them in R, so at most
    floor((residual(alive) - residual(R)) / (k - c(R))) copies fit when
    c(R) < k.  Only the closed sets R, where adding any alive vertex
    raises c(R), give terms.  On a complete host the root bound is the
    clique bound, so there the first target already packs.

    A node where find fails stores need - 1 under its key, the index and
    the alive residuals.  Those fix the node's optimum, so the entry
    bounds it whatever vector the search started from, and a dict passed
    as `cache` shares the memo across calls for one (host, guest) pair.
    With memoize=False a plain recursion with only floor(residual sum /
    k), replayed for the witness, runs instead (slow; a cross-check).
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
    solve = _make_solver(host, guest, memoize, cache)
    return OracleSolution(*solve(tuple(caps)))


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


@lru_cache(maxsize=256)
def _pair_steps(host: Graph, guest: Graph) -> tuple:
    """Per embedding index i, the terms of i + 1 as (R, k - c(R), slope):
    slope = a - r - (k - c(R)), where embedding i has a vertices in
    alive[i + 1] and r in R, is the factor of t in find's cut."""
    statics = _pair_statics(host, guest)
    steps = []
    for i, vs in enumerate(map(set, statics.verts)):
        a = len(vs.intersection(statics.alive[i + 1]))
        steps.append(tuple(
            (rs, div, a - len(vs.intersection(rs)) - div)
            for rs, div in statics.bound_terms[i + 1]
        ))
    return tuple(steps)


def _make_solver(host: Graph, guest: Graph, memoize: bool, cache: Optional[dict]):
    """solve(start) -> (count, multiplicities) for one (host, guest) pair."""
    statics = _pair_statics(host, guest)
    verts = statics.verts
    alive = statics.alive
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

        def replay(start: tuple[int, ...]):
            count = solve_plain(0, start)
            mults = []
            residual = start
            remaining = count
            for idx in range(m):
                vs = verts[idx]
                tmax = min(residual[v] for v in vs)
                for t in range(min(tmax, remaining), -1, -1):
                    work = list(residual)
                    for v in vs:
                        work[v] -= t
                    nxt = tuple(work)
                    if t + solve_plain(idx + 1, nxt) == remaining:
                        if t:
                            mults.append((idx, t))
                        residual = nxt
                        remaining -= t
                        break
            assert remaining == 0
            return count, tuple(mults)

        return replay

    memo = cache if cache is not None else {}
    steps = _pair_steps(host, guest)

    def find(idx: int, residual: tuple[int, ...], need: int, path: list) -> bool:
        """Whether verts[idx:] packs need >= 1 copies into residual; on
        success the (index, multiplicity) pairs used join path, deepest
        first, and on failure the memo learns the optimum is < need."""
        # the key packs the alive residuals into one int: entries stay
        # under 256 because total capacity is capped at 200; the nonzero
        # idx+1 prefix byte keeps keys of different lengths distinct
        key = idx + 1
        for v in alive[idx]:
            key = (key << 8) | residual[v]
        if memo.get(key, need) < need:
            return False
        vs = verts[idx]
        hi = need
        for v in vs:
            if residual[v] < hi:
                hi = residual[v]
        if not hi and idx + 1 < m:
            # embedding idx is unusable, so idx + 1 has this node's
            # residual; its own cut prunes the children there
            return find(idx + 1, residual, need, path)
        # t copies of embedding idx leave need - t copies to idx + 1, and
        # each subset-cover term there must allow them:
        # (total - residual(R) - t * (a - r)) // div >= need - t, that is
        # total - residual(R) - div * need >= t * slope, a cut on t
        lo = 0
        total = sum([residual[v] for v in alive[idx + 1]])
        for rs, div, slope in steps[idx]:
            d = total - div * need
            for v in rs:
                d -= residual[v]
            if slope > 0:
                if d < slope * hi:
                    hi = d // slope
            elif slope < 0:
                if d < slope * lo:
                    lo = -(d // -slope)
            elif d < 0:
                hi = -1
            if hi < lo:
                break
        work = list(residual)
        for v in vs:
            work[v] -= hi + 1
        for t in range(hi, lo - 1, -1):
            for v in vs:
                work[v] += 1
            if t == need or find(idx + 1, tuple(work), need - t, path):
                if t:
                    path.append((idx, t))
                return True
        memo[key] = need - 1
        return False

    def search(start: tuple[int, ...]):
        # the root bound: the smallest subset-cover term, or the first 0
        need = total = sum([start[v] for v in alive[0]])
        for rs, div in statics.bound_terms[0]:
            s = total
            for v in rs:
                s -= start[v]
            if s // div < need:
                need = s // div
                if not need:
                    break
        path: list = []
        while need and not find(0, start, need, path):
            need -= 1
        return need, tuple(reversed(path))

    return search


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
