"""Exact reference solver for small instances.

The solver enumerates every embedding of the guest shape in the host
graph and packs copies of them under the per-node capacities.  The
search is exhaustive: the closed-form evaluators are tested against it,
never the reverse.

The bound is the LP bound.  With the embeddings from idx on as the
packing's columns, every point y >= 0 with y(e) >= 1 for each of them
(y(e) the sum of y over e's vertices) is dual-feasible, so at most
residual . y copies fit.  The minimum over y is attained at a vertex of
that polyhedron, and each vertex, kept as integer weights W over a
denominator D, gives the term floor(sum(W_v * residual_v) / D); the
smallest term is floor(LP).  It is never above the subset-cover bound,
whose terms are dual-feasible points too.  On a complete host the root
bound is the clique bound, so there the first target already packs.
Double description finds the vertices for every suffix of the embedding
list once per (host, guest) pair (_pair_statics).  Each step's terms sit
one per field of an integer, so a multiply-add per host node evaluates
them all, and only the terms that bind are read back and divided.
The root bound is floor_lp, the root terms' minimum over unsigned
fields (_field_min); it is also the count of every pair of at most
MAX_ORACLE_VERTICES nodes but the 7 graph pairs, 34 id spellings, where
numacap.rounding refuses it (formulas.LP_GAPS).  So the search, and its
limit of MAX_ORACLE_TOTAL_CAPACITY on sum(b), serve only those pairs and
oracle_vmcap.

Each pair's solve is built once (pair_solver).  It runs the descending
target search: find(idx, residual, need) asks whether the embeddings
from idx on pack `need` copies, trying each multiplicity t from high to
low within the cuts W.residual - D * need >= t * slope of the next
index, and the count is the first target, from the root bound down,
that packs.

A node where find fails stores need - 1 in the memo under its key, the
index and the alive residuals.  Those fix the node's optimum, so the
entry bounds it whatever vector the search started from.  The memo
starts empty on every call, so nothing a call learns outlives it.
_plain_search answers the same question by a plain recursion bounded
only by floor(residual sum / k), with no LP term or memo: slow, but an
independent check of the search.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, NoReturn, Sequence

from .errors import ScaleLimitError
from .topology import MAX_CAPACITY, Graph, check_capacities, enumerate_embeddings

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


def refuse_host(*_) -> NoReturn:
    """The solver's refusal of a host past MAX_ORACLE_VERTICES nodes;
    ignores its arguments."""
    raise ScaleLimitError(f"oracle supports hosts up to {MAX_ORACLE_VERTICES} vertices")


def refuse_total(total: int) -> NoReturn:
    """The solver's refusal of sum(b) = total past MAX_ORACLE_TOTAL_CAPACITY."""
    raise ScaleLimitError(
        f"oracle supports total capacity up to {MAX_ORACLE_TOTAL_CAPACITY},"
        f" got {total}"
    )


def oracle_vmcap(
    host: Graph, guest: Graph, capacities: Sequence[int]
) -> OracleSolution:
    """Maximum simultaneous embeddings of guest into host under capacities,
    with a witness: the pair's solve (pair_solver) on the checked vector."""
    caps = check_capacities(capacities, host.vertex_count)
    return OracleSolution(*pair_solver(host, guest)(caps))


@dataclass(frozen=True)
class _PairStatics:
    """Capacity-independent search structures for one (host, guest) pair."""

    verts: tuple[tuple[int, ...], ...]  # 0-based copies of embeddings
    alive: tuple[tuple[int, ...], ...]  # vertices appearing in verts[i:]
    # per index i: the vertices of the covering dual P_i as (W, D), W the
    # nonzero (vertex, weight) pairs; each reads copies <= sum(W_v r_v) // D
    bound_terms: tuple
    # per index i: bound_terms[i + 1] packed by _pack, each term with its
    # slope W(verts[i]) - D, the factor of t in find's cut on embedding i
    cuts: tuple
    k: int


def _cut(rays: list, row: Sequence, bit: int, dim: int, label=None) -> list:
    """One double description step (Motzkin et al. 1953; Fukuda & Prodon
    1996): the extreme rays of a pointed cone in R^dim, cut by the
    inequality row . x >= 0, from the extreme rays of the cone before;
    row holds its nonzero (coordinate, coefficient) pairs.

    A ray is (vector, zero set, label), the vector primitive; the zero
    set has a bit for every inequality tight on the ray, and `bit` is the
    new one's.  Rays on the kept side stay, with their labels; each pair
    across the cut that is adjacent, no third ray being tight on every
    inequality both are tight on, yields the point where their edge
    crosses the hyperplane, labelled label(vector) (None with no label).
    """
    out, pos, neg = [], [], []
    for ray in rays:
        vec, zeros, tag = ray
        a = 0
        for j, c in row:
            a += c * vec[j]
        if a > 0:
            out.append(ray)
            pos.append((a, vec, zeros))
        elif a < 0:
            neg.append((a, vec, zeros))
        else:
            out.append((vec, zeros | bit, tag))
    zero_sets = [ray[1] for ray in rays]
    for ap, p, zp in pos:
        for an, q, zq in neg:
            common = zp & zq
            # adjacent rays share at least dim - 2 tight inequalities
            if common.bit_count() < dim - 2:
                continue
            tight = 0
            for zeros in zero_sets:
                if zeros & common == common:
                    tight += 1
            if tight > 2:
                continue
            vec = [ap * qv - an * pv for pv, qv in zip(p, q)]
            g = gcd(*vec)
            vec = tuple([x // g for x in vec])
            out.append((vec, common | bit, label(vec) if label else None))
    return out


def _term(vec: tuple[int, ...]) -> tuple:
    """The term (W, D) of a ray (y, s) of the dual cone with s > 0: the
    nonzero (vertex, y) pairs and s, coprime as the ray is primitive.
    Every ray a cut adds has s > 0, as the ray cut off has y(emb) < s."""
    return tuple([(v, y) for v, y in enumerate(vec[:-1]) if y]), vec[-1]


@lru_cache(maxsize=256)
def _pair_statics(host: Graph, guest: Graph) -> _PairStatics:
    n = host.vertex_count
    k = guest.vertex_count
    verts = tuple(
        tuple(v - 1 for v in emb) for emb in enumerate_embeddings(host, guest)
    )
    m = len(verts)
    # The vertices of P_i = {y >= 0 : y(e) >= 1 for e in verts[i:]} are
    # the extreme rays (y, s) with s > 0 of the cone {(y, s) >= 0 :
    # y(e) >= s}, scaled to s = 1; the rays with s = 0 are the unit
    # vectors of P_i's recession cone, the orthant.  With no embedding
    # the cone is the orthant of R^(n+1) itself, whose one vertex is
    # y = 0, and each step back adds one inequality.  Zero-set bits 0..n
    # are the signs, n + 1 + i is embedding i.
    dim = n + 1
    signs = (1 << dim) - 1
    rays = [
        (tuple(int(j == c) for j in range(dim)), signs ^ (1 << c), None)
        for c in range(n)
    ]
    rays.append(((0,) * n + (1,), signs ^ (1 << n), ((), 1)))
    alive: list[tuple[int, ...]] = [()] * (m + 1)
    bound_terms: list[tuple] = [(((), 1),)] * (m + 1)
    alive_mask = 0
    for i in range(m - 1, -1, -1):
        # y(emb) - s >= 0
        row = [(n, -1)]
        for v in verts[i]:
            row.append((v, 1))
            alive_mask |= 1 << v
        rays = _cut(rays, row, 1 << (dim + i), dim, _term)
        alive[i] = tuple(v for v in range(n) if alive_mask >> v & 1)
        bound_terms[i] = tuple([term for _, _, term in rays if term])
    # The field width _pack needs for these terms (W, D) on residuals that
    # sum to at most MAX_ORACLE_TOTAL_CAPACITY (the limit the memo key's
    # 8-bit fields rest on too).  A field holds W.r - D.need - hi.slope;
    # with sum(r), need and hi at most that total it is within total
    # times max(sum W, D) of 0, and one more bit holds the sign.
    biggest = max(max(sum(w for _, w in ws), div)
                  for ws, div in set().union(*bound_terms))
    width = (MAX_ORACLE_TOTAL_CAPACITY * biggest).bit_length() + 1
    cuts = tuple(
        _pack(terms, [sum(w for v, w in ws if v in vs) - div for ws, div in terms],
              width, n)
        for terms, vs in zip(bound_terms[1:], map(set, verts))
    )
    return _PairStatics(
        verts=verts,
        alive=tuple(alive),
        bound_terms=tuple(bound_terms),
        cuts=cuts,
        k=k,
    )


def floor_lp(host: Graph, guest: Graph) -> Callable[[Sequence[int]], int]:
    """The pair's floor(LP), b -> min over its root terms (W, D) of
    W.b // D, on any vector check_capacities passes: one _field_min.
    y = 1/k everywhere is dual-feasible, so the minimum is never above
    sum(b) // k, and that term is left out."""
    return _field_min(_pair_statics(host, guest).bound_terms[0], host.vertex_count)


def _field_min(terms: tuple, n: int) -> Callable[[Sequence[int]], int]:
    """b -> min over terms (W, D) of W.b // D, for b of n entries up to
    MAX_CAPACITY, by one dot product and one minimum taken in C.

    Over D* = lcm of the D, term j is W'_j = W_j * D* / D_j, and
    min_j floor(W_j.b / D_j) = floor(min_j W'_j.b / D*).  W'.b >= 0, so
    each term is one unsigned field of the integer sum(b_v * weights_v),
    weights_v holding W'_jv in field j, and the field minimum is taken
    over that integer's bytes cast to native unsigned ints.  A call uses
    16-bit fields where they hold sum(b) * max W', as on every vector of
    sum at most 156 for every pair of at most MAX_ORACLE_VERTICES nodes,
    and 64-bit fields otherwise; terms that 64 bits cannot hold at every
    vector raise ScaleLimitError here, before any call.
    """
    scale = lcm(*[div for _, div in terms])
    scaled = [[(v, w * (scale // div)) for v, w in ws] for ws, div in terms]
    top = max([w for ws in scaled for _, w in ws], default=1)
    need = (n * MAX_CAPACITY * top).bit_length()
    if need > 64:
        raise ScaleLimitError(
            f"floor(LP) fields hold up to 64 bits; these terms need {need}"
        )
    codes = {memoryview(bytes(8)).cast(code).itemsize: code for code in "HILQ"}
    kernels = []
    for size in (2, 8):
        width = 8 * size
        weights = [0] * n
        for shift, ws in zip(range(0, width * len(terms), width), scaled):
            for v, w in ws:
                weights[v] |= w << shift
        kernels.append((((1 << width) - 1) // top, tuple(weights),
                        size * len(terms), codes[size]))
    (short, w16, n16, c16), (_, w64, n64, c64) = kernels
    order = sys.byteorder

    def count(b: Sequence[int]) -> int:
        total = sum(b)
        if total <= short:
            x = sum(map(mul, b, w16)).to_bytes(n16, order)
            return min(memoryview(x).cast(c16)) // scale
        x = sum(map(mul, b, w64)).to_bytes(n64, order)
        return min(memoryview(x).cast(c64)) // scale

    return count


def _pack(terms: tuple, slopes: list, width: int, n: int) -> tuple:
    """Terms (W, D) and their slopes, one `width`-bit field per term, so a
    few big-integer operations evaluate them all (SIMD within a register;
    Fisher & Dietz 1998): per host node the weights W_jv << width*j, then
    D and the slopes >= 0 the same way, a bias of 2^(width-1) per field,
    and the masks of the top bits of the fields with slope >= 0 and < 0.
    """
    half = 1 << width - 1
    weights = [0] * n
    dpack = spack = hi_mask = 0
    shifts = range(0, width * len(terms), width)
    for (ws, div), slope, shift in zip(terms, slopes, shifts):
        for v, w in ws:
            weights[v] |= w << shift
        dpack |= div << shift
        if slope >= 0:
            spack |= slope << shift
            hi_mask |= half << shift
    # half in every field: (2^(width*L) - 1) / (2^width - 1) has a 1 in each
    base = half * ((1 << width * len(terms)) - 1) // ((1 << width) - 1)
    return (tuple(weights), base, dpack, spack, hi_mask, base ^ hi_mask,
            width, half, tuple(map(abs, slopes)))


def _cut_range(pack: tuple, residual: Sequence[int], need: int, hi: int):
    """(lo, hi) narrowed by each packed cut W.residual - D * need >= t * slope
    (an empty range once hi < lo).  A field reads the bias plus its term's
    value, so its top bit is clear exactly when the term binds, at t = hi
    for slope >= 0 and at t = 0 for slope < 0; only those are read back.
    """
    weights, base, dpack, spack, hi_mask, lo_mask, width, half, divs = pack
    x = sum(map(mul, residual, weights), base - need * dpack - hi * spack)
    field = (half << 1) - 1
    top = hi
    fails = ~x & hi_mask
    while fails:
        end = fails.bit_length()
        fails ^= half << end - width
        # W.residual - D * need - hi * slope < 0
        value = (x >> end - width & field) - half
        slope = divs[end // width - 1]
        cap = hi + value // slope if slope else -1
        if cap < top:
            top = cap
    lo = 0
    fails = ~x & lo_mask if top >= 0 else 0
    while fails:
        end = fails.bit_length()
        fails ^= half << end - width
        # W.residual - D * need < 0, so t >= its ceiling over slope
        value = (x >> end - width & field) - half
        cap = -(value // divs[end // width - 1])
        if cap > lo:
            lo = cap
    return lo, top


@lru_cache(maxsize=256)
def pair_solver(host: Graph, guest: Graph) -> Callable[[tuple[int, ...]], tuple]:
    """The pair's solve(b) -> (count, multiplicities), built once over its
    statics; b is a tuple in the host's labels that check_capacities has
    passed.  A host past MAX_ORACLE_VERTICES is refused before any
    statics are built, and solve refuses sum(b) > MAX_ORACLE_TOTAL_CAPACITY,
    except on a pair with no embedding, where it is (0, ()) at any vector.
    """
    if host.vertex_count > MAX_ORACLE_VERTICES:
        refuse_host()
    statics = _pair_statics(host, guest)
    if not statics.verts:
        return lambda b: (0, ())
    root = floor_lp(host, guest)

    def solve(b: tuple[int, ...]):
        total = sum(b)
        if total > MAX_ORACLE_TOTAL_CAPACITY:
            refuse_total(total)
        return _descend(statics, b, root(b), {})

    return solve


def _descend(statics: _PairStatics, start: tuple[int, ...], need: int, memo: dict):
    """(count, multiplicities): the first target from `need` down that the
    embeddings pack, by a depth-first search that tries each multiplicity
    from high to low and learns in `memo` where it fails."""
    verts = statics.verts
    alive = statics.alive
    cuts = statics.cuts
    m = len(verts)

    def key_of(idx: int, residual: tuple[int, ...]) -> int:
        # the alive residuals packed into one int: entries stay under 256
        # because total capacity is capped at 200, which the cut fields'
        # width rests on too, so raising that cap widens both; the nonzero
        # idx+1 prefix byte keeps keys of different lengths distinct
        key = idx + 1
        for v in alive[idx]:
            key = (key << 8) | residual[v]
        return key

    def find(idx: int, residual: tuple[int, ...], need: int, path: list) -> bool:
        """Whether verts[idx:] packs need >= 1 copies into residual; on
        success the (index, multiplicity) pairs used join path, deepest
        first, and on failure the memo learns the optimum is < need."""
        while True:
            vs = verts[idx]
            hi = need
            for v in vs:
                if residual[v] < hi:
                    hi = residual[v]
            if hi or idx + 1 == m:
                break
            # embedding idx is unusable, so idx + 1 has this node's
            # residual; such a pass-through stores nothing, and no entry
            # holds its key (an entry's node had residual on all of vs)
            idx += 1
        key = key_of(idx, residual) if memo else None
        if key is not None and memo.get(key, need) < need:
            return False
        if idx + 1 < m:
            # t copies of embedding idx leave need - t copies to idx + 1,
            # and each dual vertex (W, D) there must allow them:
            # (W.residual - t * W(idx)) // D >= need - t, that is
            # W.residual - D * need >= t * slope, a cut on t, all of them
            # evaluated together, one per field of an integer
            lo, hi = _cut_range(cuts[idx], residual, need, hi)
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
        elif hi == need:
            # the last embedding's one cut, from the term ((), 1) past
            # it, is t >= need: it takes every copy left or fails
            path.append((idx, need))
            return True
        memo[key_of(idx, residual) if key is None else key] = need - 1
        return False

    path: list = []
    while need and not find(0, start, need, path):
        need -= 1
    return need, tuple(reversed(path))


def _plain_search(statics: _PairStatics, start: tuple[int, ...]):
    """(count, multiplicities) by a plain recursion bounded only by
    floor(residual sum / k), replayed for the witness: no LP term and
    no memo, so it checks the search independently (slow)."""
    verts = statics.verts
    m = len(verts)
    solve_plain = _plain_solver(statics)
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


def _plain_solver(statics: _PairStatics) -> Callable[[int, tuple[int, ...]], int]:
    """solve_plain(idx, residual): how many copies verts[idx:] pack into
    residual, by the plain recursion _plain_search replays."""
    verts = statics.verts
    m = len(verts)
    k = statics.k

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
