"""Canonical NUMA interconnect graphs and embedding enumeration.

Every supported topology has a fixed 1-based vertex labeling, and all
capacity vectors, formulas, placements, and file formats index nodes in
that label order:

    c4      cycle 1-2-3-4-1
    k{n}    complete graph on 1..n
    l4      ladder: rungs (1,2) (3,4) (5,6) (7,8), rails 1-4-5-8 and 2-3-6-7
    cq3     the ladder plus cross links (1,7) and (2,8)
    q33     complete bipartite between odd labels {1,3,5,7} and even {2,4,6,8}
    k{m}_{n}  complete bipartite, left part 1..m, right part m+1..m+n
    star{n}   hub 1 with leaves 2..n+1
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, NoReturn, Optional, Sequence, Union

from .errors import (
    CapacityError,
    DimensionError,
    ScaleLimitError,
    TopologyError,
)

# Entries this small keep every sum and product in the package well inside
# 64-bit range, so plain int arithmetic never needs an overflow check.
MAX_CAPACITY = 2**32 - 1

# Embedding enumeration is a brute-force subset scan; keep it honest.
MAX_ENUMERATION_VERTICES = 12

# the slotted classes set their own fields past their refusing __setattr__
_set = object.__setattr__


def _frozen_set(self, name: str, value) -> NoReturn:
    """__setattr__ of the package's immutable slotted classes."""
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_del(self, name: str) -> NoReturn:
    """__delattr__ of the package's immutable slotted classes."""
    raise AttributeError(f"cannot delete field {name!r}")


def check_capacities(values: Sequence[int], expected_len: int) -> tuple[int, ...]:
    """Validate a capacity vector given in canonical label order 1..n."""
    vals = tuple(values)
    if len(vals) != expected_len:
        raise DimensionError(
            f"expected {expected_len} capacities, got {len(vals)}"
        )
    # fast path: plain ints in range; anything else (int subclasses
    # included) takes the per-entry loop, which names the entry at fault
    for v in vals:
        if type(v) is not int or v < 0 or v > MAX_CAPACITY:
            break
    else:
        return vals
    for i, v in enumerate(vals):
        if isinstance(v, bool) or not isinstance(v, int):
            raise CapacityError(
                f"capacity b{i + 1} must be an integer, got {v!r}", index=i
            )
        if v < 0 or v > MAX_CAPACITY:
            raise CapacityError(
                f"capacity b{i + 1}={v} outside [0, {MAX_CAPACITY}]", index=i
            )
    return vals


class Graph:
    """Immutable undirected simple graph on vertices 1..vertex_count.

    Edges are stored as (u, v) pairs with u < v; any iterable of pairs is
    accepted and normalized.  The name is informational and ignored by
    equality and hash.
    """

    __slots__ = ("vertex_count", "edges", "name", "_adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]],
                 name: str = ""):
        if vertex_count < 1:
            raise TopologyError("graph needs at least one vertex")
        norm = set()
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop at vertex {u}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise TopologyError(
                    f"edge ({u},{v}) outside vertex range 1..{vertex_count}"
                )
            norm.add((u, v) if u < v else (v, u))
        _set(self, "vertex_count", vertex_count)
        _set(self, "edges", frozenset(norm))
        _set(self, "name", name)

    __setattr__ = _frozen_set
    __delattr__ = _frozen_del

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return (f"Graph(vertex_count={self.vertex_count!r}, edges={self.edges!r},"
                f" name={self.name!r})")

    def __reduce__(self):
        return Graph, (self.vertex_count, self.edges, self.name)

    @property
    def adjacency(self) -> dict[int, frozenset[int]]:
        """Each vertex's neighbours, built on first use and kept."""
        try:
            return self._adjacency
        except AttributeError:
            pass
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        adjacency = {v: frozenset(s) for v, s in nbrs.items()}
        _set(self, "_adjacency", adjacency)
        return adjacency

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(self.adjacency[v]) for v in self.vertices()))

    def is_connected(self) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """Two-color the graph; None when an odd cycle makes that impossible."""
        color: dict[int, int] = {}
        for start in self.vertices():
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    elif color[w] == color[u]:
                        return None
        part0 = frozenset(v for v, c in color.items() if c == 0)
        part1 = frozenset(v for v, c in color.items() if c == 1)
        return part0, part1


_FIXED_KINDS = {"c4": 4, "l4": 8, "cq3": 8, "q33": 8}


class TopologyId:
    """Parsed topology identifier.

    kind is one of "kn", "km_n", "star", "c4", "l4", "cq3", "q33"; m/n hold
    the numeric parameters where the kind has any (kn and star use n only).
    Not a tuple: an id equals only another id, so a plain tuple never
    passes for one, in a memo or elsewhere.
    """

    __slots__ = ("kind", "m", "n")

    def __init__(self, kind: str, m: int = 0, n: int = 0):
        if kind in _FIXED_KINDS:
            if m or n:
                raise TopologyError(f"{kind} takes no parameters")
        elif kind == "kn":
            if m or n < 1:
                raise TopologyError("complete graph order must be >= 1")
        elif kind == "km_n":
            if m < 1 or n < 1:
                raise TopologyError("bipartite part sizes must be >= 1")
        elif kind == "star":
            if m or n < 1:
                raise TopologyError("star needs at least one leaf")
        else:
            raise TopologyError(f"unknown topology kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "m", m)
        _set(self, "n", n)

    __setattr__ = _frozen_set
    __delattr__ = _frozen_del

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.kind, self.m, self.n))

    def __repr__(self) -> str:
        return f"TopologyId(kind={self.kind!r}, m={self.m!r}, n={self.n!r})"

    def __reduce__(self):
        return TopologyId, (self.kind, self.m, self.n)

    @property
    def vertex_count(self) -> int:
        if self.kind in _FIXED_KINDS:
            return _FIXED_KINDS[self.kind]
        if self.kind == "kn":
            return self.n
        if self.kind == "km_n":
            return self.m + self.n
        return self.n + 1  # star: hub plus leaves

    def __str__(self) -> str:
        if self.kind in _FIXED_KINDS:
            return self.kind
        if self.kind == "kn":
            return f"k{self.n}"
        if self.kind == "km_n":
            return f"k{self.m}_{self.n}"
        return f"star{self.n}"


def kn(n: int) -> TopologyId:
    return TopologyId("kn", n=n)


def km_n(m: int, n: int) -> TopologyId:
    return TopologyId("km_n", m=m, n=n)


def star(leaves: int) -> TopologyId:
    return TopologyId("star", n=leaves)


K2 = kn(2)
K3 = kn(3)
K4 = kn(4)
C4 = TopologyId("c4")
L4 = TopologyId("l4")
CQ3 = TopologyId("cq3")
Q33 = TopologyId("q33")

_PARAMETRIC = (
    (re.compile(r"k(\d+)_(\d+)"), km_n),
    (re.compile(r"k(\d+)"), kn),
    (re.compile(r"star(\d+)"), star),
)


@lru_cache(maxsize=1024)
def parse_topology(text: str) -> TopologyId:
    """Parse a lowercase topology id such as "cq3", "k4", "k2_3", "star8".

    Memoised: ids are immutable and a state file repeats a few of them.
    """
    s = text.strip().lower()
    if s in _FIXED_KINDS:
        return TopologyId(s)
    for pattern, build in _PARAMETRIC:
        m = pattern.fullmatch(s)
        if m:
            try:
                params = [int(digits) for digits in m.groups()]
            except ValueError:
                # past the interpreter's limit on the digits int() reads
                raise TopologyError(
                    f"topology id {s[:10]}... has too many digits"
                ) from None
            if max(params) > MAX_CAPACITY:
                # no count reaches a host or guest this large, and a later
                # error that printed the parameter would run to kilobytes
                raise TopologyError(
                    f"topology id parameters must be at most {MAX_CAPACITY}"
                )
            return build(*params)
    raise TopologyError(f"unknown topology id {text!r}")


def as_topology_id(value: Union[TopologyId, str]) -> TopologyId:
    if isinstance(value, TopologyId):
        return value
    if isinstance(value, str):
        return parse_topology(value)
    raise TopologyError(f"expected topology id or string, got {value!r}")


def canonical_id(topology: Union[TopologyId, str]) -> TopologyId:
    """The one id of a graph up to relabelling, so that a graph pair has
    one key however its ids are spelled.

    kM_N is kN_M, smaller side first; k1_N, kN_1 and starN are starN, and
    k2 for N = 1; k2_2 is c4 and k4_4 is q33.  Every other id is its own
    canonical form, and no two canonical ids name isomorphic graphs.  The
    canonical id may number the nodes differently (k2_2's 4-cycle is
    1-3-2-4), so only label-free questions, such as which guest shape is
    asked for or which proof covers a pair, may swap one id for the other.
    """
    tid = as_topology_id(topology)
    if tid.kind == "star":
        return K2 if tid.n == 1 else tid
    if tid.kind != "km_n":
        return tid
    m, n = sorted((tid.m, tid.n))
    if m == 1:
        return K2 if n == 1 else star(n)
    if m == n and m in (2, 4):
        return C4 if m == 2 else Q33
    return tid if tid.m == m else km_n(m, n)


def every_id(max_nodes: int) -> list[TopologyId]:
    """Every id the grammar parses with at most max_nodes nodes, each
    spelling of a graph apart: the fixed kinds, then kN, kM_N and starN."""
    return ([TopologyId(kind) for kind, n in _FIXED_KINDS.items() if n <= max_nodes]
            + [kn(n) for n in range(1, max_nodes + 1)]
            + [km_n(m, n) for m in range(1, max_nodes)
               for n in range(1, max_nodes - m + 1)]
            + [star(n) for n in range(1, max_nodes)])


_L4_EDGES = (
    (1, 2), (3, 4), (5, 6), (7, 8),       # rungs
    (1, 4), (4, 5), (5, 8),               # odd rail
    (2, 3), (3, 6), (6, 7),               # even rail
)
_CQ3_EDGES = _L4_EDGES + ((1, 7), (2, 8))


def expand_topology(topology: Union[TopologyId, str]) -> Graph:
    """Materialize a topology id as a labeled graph, memoised on the id."""
    return _expand(as_topology_id(topology))


@lru_cache(maxsize=256)
def _expand(tid: TopologyId) -> Graph:
    if tid.kind == "kn":
        edges: Iterable[tuple[int, int]] = combinations(range(1, tid.n + 1), 2)
        return Graph(tid.n, frozenset(edges), name=str(tid))
    if tid.kind == "c4":
        return Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}), name="c4")
    if tid.kind == "l4":
        return Graph(8, frozenset(_L4_EDGES), name="l4")
    if tid.kind == "cq3":
        return Graph(8, frozenset(_CQ3_EDGES), name="cq3")
    if tid.kind == "q33":
        edges = ((o, e) for o in (1, 3, 5, 7) for e in (2, 4, 6, 8))
        return Graph(8, frozenset(edges), name="q33")
    # km_n and star share the complete-bipartite construction
    m = 1 if tid.kind == "star" else tid.m
    n = tid.n
    edges = ((a, b) for a in range(1, m + 1) for b in range(m + 1, m + n + 1))
    return Graph(m + n, frozenset(edges), name=str(tid))


def refuse_enumeration(vertex_count: int, *_) -> NoReturn:
    """enumerate_embeddings' refusal of a host; ignores later arguments."""
    raise ScaleLimitError(
        f"embedding enumeration supports at most "
        f"{MAX_ENUMERATION_VERTICES} vertices, got {vertex_count}"
    )


@lru_cache(maxsize=1024)
def enumerate_embeddings(
    big: Graph, small: Graph
) -> tuple[tuple[int, ...], ...]:
    """All vertex subsets of `big` that carry a copy of `small`.

    A subset qualifies when some bijection onto it maps every edge of
    `small` to an edge of `big` (extra edges inside the subset are fine).
    Subsets come out in lexicographic order, each sorted ascending.
    Results are cached; graphs are immutable.
    """
    if small.vertex_count < 2 or not small.is_connected():
        raise TopologyError("embedded graph must be connected with >= 2 vertices")
    if small.vertex_count > big.vertex_count:
        return ()
    if big.vertex_count > MAX_ENUMERATION_VERTICES:
        refuse_enumeration(big.vertex_count)
    small_edges = tuple(small.edges)
    big_edges = big.edges
    found = []
    for subset in combinations(big.vertices(), small.vertex_count):
        for perm in permutations(subset):
            ok = True
            for a, b in small_edges:
                u, v = perm[a - 1], perm[b - 1]
                if ((u, v) if u < v else (v, u)) not in big_edges:
                    ok = False
                    break
            if ok:
                found.append(subset)
                break
    return tuple(found)


def merge_twin_vertices(
    graph: Graph, capacities: Sequence[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Collapse non-adjacent vertices with identical neighborhoods.

    Twins can share any pair assignment, so pooling their capacities
    changes nothing about how many pairs fit.  Groups are relabeled
    1..k in order of their smallest original label, capacities summed.
    """
    caps = check_capacities(capacities, graph.vertex_count)
    groups: dict[frozenset[int], list[int]] = {}
    for v in graph.vertices():
        groups.setdefault(graph.neighbors(v), []).append(v)
    ordered = sorted(groups.values(), key=min)
    label_of = {}
    for idx, members in enumerate(ordered, start=1):
        for v in members:
            label_of[v] = idx
    new_edges = set()
    for u, v in graph.edges:
        a, b = label_of[u], label_of[v]
        # vertices with equal open neighborhoods cannot be adjacent
        assert a != b
        new_edges.add((a, b) if a < b else (b, a))
    merged_caps = tuple(sum(caps[v - 1] for v in members) for members in ordered)
    merged = Graph(len(ordered), frozenset(new_edges), name=f"merged({graph.name})")
    return merged, merged_caps
