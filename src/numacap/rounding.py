"""A proof, once per (host, guest) pair, that floor(LP) is the count.

Let f(b) be the pair's count and L(b) = min_j W_j.b / D_j its LP bound,
over the root terms (W_j, D_j) of _pair_statics(host, guest).bound_terms[0].
Each term is dual-feasible, so f <= floor(L) everywhere.  The prover
shows f = floor(L) at every b >= 0 by a finite check, the integer
rounding property of the pair (Baum & Trotter 1981; Schrijver, Theory of
Linear and Integer Programming, 1986, on cones and Hilbert bases):

- f is superadditive: packings for b and for d together pack b + d.
- L is linear on each cone C_j = {b >= 0 : term j is the minimum}.  Take
  a period p in C_j with L(p) an integer and f(p) = L(p).  For b in C_j
  with f(b) = floor(L(b)),
  floor(L(b + p)) = floor(L(b)) + L(p) = f(b) + f(p) <= f(b + p)
  <= floor(L(b + p)), so the equality carries from b to b + p.
- The full-dimensional cones cover the orthant, and each is split into
  simplicial cones by a pulling triangulation.  Each ray r of a simplex
  scales to the period lambda r, lambda = D_j / gcd(W_j.r, D_j).  Every
  lattice point of the simplex is a lattice point q of the half-open
  parallelepiped of its periods, a base point, plus a non-negative
  integer sum of the periods.

So f = floor(L) at every vector once it holds at every period and every
base point.  f comes from the plain search (oracle._plain_solver), which
reads no LP term, so the check does not assume the terms it proves.

The simplices are checked to tile each cone: every facet of a simplex
lies on the cone's boundary, or is shared with exactly one other simplex
whose remaining ray is on the other side, and one interior point lies in
exactly one simplex.  Crossing an inner facet then leaves the number of
simplices that hold a point unchanged, so it is 1 all over the cone.

The proof runs only in `numacap verify` and in the tests, never when a
pair is bound.  It holds on every solver pair but the 7 graph pairs of
numacap.formulas.LP_GAPS, which vmcap leaves to the search; a no-pair
`numacap verify` proves the other 225 (formulas.lp_pairs) in about 11 s.
"""

from __future__ import annotations

import time
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .oracle import MAX_ORACLE_VERTICES, _cut, _pair_statics, _plain_solver, refuse_host
from .topology import Graph


class Proof(NamedTuple):
    """What prove() checked for one pair.

    failures maps each period and base point, in the host's labels, at
    which the count is below floor(LP) to (floor(LP), count), in vector
    order; the pair is proved when there are none.  base_points counts
    each simplex's base points, so a point shared by two simplices
    counts twice.
    """

    cones: int
    simplices: int
    base_points: int
    seconds: float
    failures: dict[tuple[int, ...], tuple[int, int]]

    @property
    def proved(self) -> bool:
        return not self.failures


def prove(host: Graph, guest: Graph) -> Proof:
    """Check that floor(LP) is the count of guest copies in host at every
    vector, as the module docstring argues.  A host past the solver's
    node limit is refused as the solver refuses it.  A root term that is
    not dual-feasible, or simplices that do not tile their cone, raise
    ValueError: either is a fault of the prover's input, not a gap.
    """
    start = time.perf_counter()
    if host.vertex_count > MAX_ORACLE_VERTICES:
        refuse_host()
    statics = _pair_statics(host, guest)
    n = host.vertex_count
    terms = [_dense(ws, n) + (div,) for ws, div in statics.bound_terms[0]]
    for *w, div in terms:
        for emb in statics.verts:
            if sum(w[v] for v in emb) < div:
                raise ValueError(f"root term {w}/{div} is not dual-feasible on {emb}")
    plain = _plain_solver(statics)
    counts: dict[tuple[int, ...], int] = {}

    def count(b: tuple[int, ...]) -> int:
        got = counts.get(b)
        if got is None:
            got = counts[b] = plain(0, b)
        return got

    cones = simplices = base_points = 0
    failures = {}
    for *w, div in terms:
        rows = [_dense(((v, 1),), n) for v in range(n)]
        for *wi, di in terms:
            row = tuple(div * x - di * y for x, y in zip(wi, w))
            if any(row):
                rows.append(row)
        rays = _extreme_rays(rows, n)
        vectors = [vec for vec, _ in rays]
        if _rank(vectors) < n:
            continue
        cones += 1
        tight = {sum(1 << r for r, (_, zeros) in enumerate(rays) if zeros >> h & 1)
                 for h in range(len(rows))}
        cells = []
        for mask in _pulling(len(rays), tight, n):
            periods = []
            for r in _bits(mask):
                dot = sum(map(mul, w, vectors[r]))
                periods.append(tuple(x * (div // gcd(dot, div)) for x in vectors[r]))
            d, adj = _adjugate(periods)
            cells.append((mask, adj))
            points = _base_points(periods, d, adj)
            base_points += len(points)
            # in C_j, floor(L) is term j's floor
            for q in periods + points:
                got, lp = count(q), sum(map(mul, w, q)) // div
                if got < lp:
                    failures[q] = (lp, got)
        simplices += len(cells)
        _check_tiling(cells, vectors, tight)
    return Proof(cones, simplices, base_points, time.perf_counter() - start,
                 dict(sorted(failures.items())))


def _dense(weights: Sequence[tuple[int, int]], n: int) -> tuple[int, ...]:
    vec = [0] * n
    for v, x in weights:
        vec[v] = x
    return tuple(vec)


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _extreme_rays(rows: list, n: int) -> list:
    """The extreme rays (vector, zero set) of the pointed cone
    {x : a.x >= 0 for each a in rows}, rows[:n] the unit vectors, by the
    double description steps of oracle._cut: bit h of a zero set is set
    when rows[h] is tight on the ray.  Each vector is primitive.
    """
    signs = (1 << n) - 1
    rays = [(rows[v], signs ^ (1 << v), None) for v in range(n)]
    for h in range(n, len(rows)):
        row = [(j, c) for j, c in enumerate(rows[h]) if c]
        rays = _cut(rays, row, 1 << h, n)
    return [(vec, zeros) for vec, zeros, _ in rays]


def _rank(vectors: list) -> int:
    """The rank of integer vectors, by fraction-free row elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [top[col] * x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _facets(face: int, tight: set) -> list:
    """The facets of a face, as masks of ray indices: its maximal proper
    intersections with the tight sets, `tight` holding the rays each row
    is tight on as a mask."""
    found: list[int] = []
    for cut in sorted({face & t for t in tight} - {face},
                      key=int.bit_count, reverse=True):
        if all(cut & f != cut for f in found):
            found.append(cut)
    return found


def _pulling(count: int, tight: set, dim: int) -> list:
    """The simplices, as masks of ray indices, of the pulling
    triangulation of the cone on `count` rays: a face with as many rays
    as its dimension is a simplex, and any other is its lowest ray
    joined to the triangulation of each facet without that ray.
    """
    done: dict[int, list] = {}

    def pull(face: int, dim: int) -> list:
        if face.bit_count() == dim:
            return [face]
        got = done.get(face)
        if got is None:
            apex = face & -face
            got = done[face] = [
                cell | apex
                for facet in _facets(face, tight) if not facet & apex
                for cell in pull(facet, dim - 1)
            ]
        return got

    return pull((1 << count) - 1, dim)


def _adjugate(columns: list) -> tuple[int, list]:
    """(d, A) for the matrix P with these columns: d = |det P| > 0 and A
    an integer matrix with P A = d I, so row i of A reads d times the
    i-th coordinate of a vector in the basis of the columns.  By
    fraction-free Gauss-Jordan elimination (Bareiss 1968) of [P | I]."""
    n = len(columns)
    m = [[columns[c][r] for c in range(n)] + [int(r == c) for c in range(n)]
         for r in range(n)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise ValueError(f"the rays {columns} are not independent")
        m[k], m[pivot] = m[pivot], m[k]
        top = m[k]
        p = top[k]
        for r in range(n):
            if r != k:
                row = m[r]
                f = row[k]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    d = m[0][0]
    adj = [row[n:] for row in m]
    if d < 0:
        d = -d
        adj = [[-x for x in row] for row in adj]
    return d, adj


def _base_points(periods: list, d: int, adj: list) -> list:
    """The lattice points of the half-open parallelepiped of the periods,
    one per class of Z^n modulo their lattice: each class as its
    coordinates c in the basis of the periods, times d and reduced mod d,
    found by adding unit vectors from 0; the point is P c / d."""
    n = len(periods)
    steps = {tuple(adj[i][j] % d for i in range(n)) for j in range(n)}
    steps.discard((0,) * n)
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        grown = []
        for c in frontier:
            for s in steps:
                e = tuple([(x + y) % d for x, y in zip(c, s)])
                if e not in seen:
                    seen.add(e)
                    grown.append(e)
        frontier = grown
    return [
        tuple(sum(p[i] * x for p, x in zip(periods, c)) // d for i in range(n))
        for c in seen
    ]


def _check_tiling(cells: list, vectors: list, tight: set) -> None:
    """Raise ValueError unless the simplices (mask, adjugate) tile the
    cone on these ray vectors, by the facet and interior point checks of
    the module docstring.  A simplex's facet is on the cone's boundary
    when its rays lie in one of the cone's facets.  Row i of a simplex's
    adjugate is the normal of the facet without its i-th ray, positive
    on that ray."""
    walls = _facets((1 << len(vectors)) - 1, tight)
    shared: dict[int, list] = {}
    for mask, adj in cells:
        for i, r in enumerate(_bits(mask)):
            facet = mask ^ 1 << r
            if not any(facet & wall == facet for wall in walls):
                shared.setdefault(facet, []).append((adj[i], mask ^ facet))
    for facet, sides in shared.items():
        if len(sides) != 2:
            raise ValueError(f"{len(sides)} simplices share the inner facet {_bits(facet)}")
        (normal, _), (_, other) = sides
        if sum(map(mul, normal, vectors[other.bit_length() - 1])) >= 0:
            raise ValueError(f"two simplices lie on one side of the facet {_bits(facet)}")
    # sum(x^r v_r) is interior, as every weight is positive; for all but
    # finitely many x it lies on no facet's hyperplane
    x = 2
    while True:
        point = [sum(v[i] * x ** r for r, v in enumerate(vectors))
                 for i in range(len(vectors[0]))]
        coords = [[sum(map(mul, row, point)) for row in adj] for _, adj in cells]
        if all(all(c) for c in coords):
            break
        x += 1
    inside = sum(1 for c in coords if min(c) > 0)
    if inside != 1:
        raise ValueError(f"an interior point lies in {inside} simplices")

