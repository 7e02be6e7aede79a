"""Graph shapes, canonical labelings, and embedding enumeration."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import numacap as nc
from numacap.topology import MAX_CAPACITY, every_id

# every id of the grammar up to 8 nodes, spellings of one graph apart
GRAMMAR = every_id(8)


def test_check_capacities_accepts_and_normalizes():
    assert nc.check_capacities([0, 3, 7], 3) == (0, 3, 7)
    assert nc.check_capacities((5,), 1) == (5,)


def test_check_capacities_rejects_bad_input():
    with pytest.raises(nc.DimensionError):
        nc.check_capacities([1, 2], 3)
    with pytest.raises(nc.CapacityError):
        nc.check_capacities([1, -1, 2], 3)
    with pytest.raises(nc.CapacityError):
        nc.check_capacities([1, True, 2], 3)
    with pytest.raises(nc.CapacityError):
        nc.check_capacities([1, MAX_CAPACITY + 1, 2], 3)
    with pytest.raises(nc.CapacityError):
        nc.check_capacities([1, 2.0, 3], 3)


@pytest.mark.parametrize(
    "value,message",
    [
        (True, "capacity b2 must be an integer, got True"),
        (2.0, "capacity b2 must be an integer, got 2.0"),
        (-1, "capacity b2=-1 outside [0, 4294967295]"),
        (MAX_CAPACITY + 1, "capacity b2=4294967296 outside [0, 4294967295]"),
    ],
)
def test_check_capacities_messages(value, message):
    with pytest.raises(nc.CapacityError) as info:
        nc.check_capacities([1, value, 2], 3)
    assert str(info.value) == message
    assert info.value.index == 1


def test_check_capacities_accepts_int_subclass():
    class Count(int):
        pass

    vals = nc.check_capacities([Count(3), 4, MAX_CAPACITY], 3)
    assert vals == (3, 4, MAX_CAPACITY)
    assert type(vals[0]) is Count


class TestGraph:
    def test_edges_are_normalized(self):
        g = nc.Graph(3, [(2, 1), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(nc.TopologyError):
            nc.Graph(3, [(1, 1)])
        with pytest.raises(nc.TopologyError):
            nc.Graph(3, [(1, 4)])
        with pytest.raises(nc.TopologyError):
            nc.Graph(0, [])

    def test_neighbors_and_degrees(self):
        g = nc.expand_topology(nc.L4)
        assert g.neighbors(1) == frozenset({2, 4})
        assert g.neighbors(5) == frozenset({4, 6, 8})
        assert g.degree_sequence() == (2, 2, 2, 2, 3, 3, 3, 3)

    def test_connectivity(self):
        assert nc.expand_topology(nc.CQ3).is_connected()
        assert not nc.Graph(3, [(1, 2)]).is_connected()
        assert nc.Graph(1, []).is_connected()

    def test_bipartition(self):
        left, right = nc.expand_topology(nc.C4).bipartition()
        assert {left, right} == {frozenset({1, 3}), frozenset({2, 4})}
        # odd cycle: no two-coloring
        c5 = nc.Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert c5.bipartition() is None


class TestCanonicalShapes:
    def test_cycle(self):
        g = nc.expand_topology(nc.C4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})

    def test_ladder_rungs_and_rails(self):
        g = nc.expand_topology(nc.L4)
        rungs = {(1, 2), (3, 4), (5, 6), (7, 8)}
        rails = {(1, 4), (4, 5), (5, 8), (2, 3), (3, 6), (6, 7)}
        assert g.edges == frozenset(rungs | rails)
        assert g.bipartition() == (frozenset({1, 3, 5, 7}), frozenset({2, 4, 6, 8}))

    def test_cross_linked_ladder_is_ladder_plus_diagonals(self):
        l4 = nc.expand_topology(nc.L4)
        cq3 = nc.expand_topology(nc.CQ3)
        assert cq3.edges == l4.edges | {(1, 7), (2, 8)}
        assert cq3.degree_sequence() == (3,) * 8
        assert cq3.bipartition() is None

    def test_crossbar_is_complete_bipartite_on_odds_and_evens(self):
        g = nc.expand_topology(nc.Q33)
        odds, evens = {1, 3, 5, 7}, {2, 4, 6, 8}
        assert g.edges == frozenset(
            (min(a, b), max(a, b)) for a in odds for b in evens
        )
        assert g.degree_sequence() == (4,) * 8

    def test_complete_and_bipartite_and_star(self):
        assert len(nc.expand_topology(nc.kn(5)).edges) == 10
        g = nc.expand_topology(nc.km_n(2, 3))
        assert g.edges == frozenset(
            {(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
        )
        s = nc.expand_topology(nc.star(4))
        assert s.edges == frozenset({(1, 2), (1, 3), (1, 4), (1, 5)})

    def test_vertex_counts(self):
        assert nc.C4.vertex_count == 4
        assert nc.L4.vertex_count == 8
        assert nc.star(6).vertex_count == 7
        assert nc.km_n(3, 4).vertex_count == 7


def relabelling(tid):
    """A map from tid's labels to canonical_id(tid)'s, written per family."""
    n = tid.vertex_count
    same = {v: v for v in range(1, n + 1)}
    if tid.kind != "km_n":
        return same
    m = tid.m
    if (tid.m, tid.n) == (2, 2):
        # k2_2's sides {1, 2} and {3, 4} are c4's diagonals
        return {1: 1, 2: 3, 3: 2, 4: 4}
    if (tid.m, tid.n) == (4, 4):
        # q33's sides are its odd and its even labels
        return {v: 2 * v - 1 if v <= 4 else 2 * (v - 4) for v in same}
    if tid.m > tid.n:
        # the smaller side first; for kN_1 that puts the hub on label 1
        return {v: v + tid.n if v <= m else v - m for v in same}
    return same


def isomorphic(a, b):
    if a.degree_sequence() != b.degree_sequence():
        return False
    return any({tuple(sorted((p[u - 1], p[v - 1]))) for u, v in a.edges} == b.edges
               for p in permutations(b.vertices()))


class TestParsing:
    @pytest.mark.parametrize(
        "text", ["c4", "l4", "cq3", "q33", "k2", "k7", "k2_3", "k4_4", "star3"]
    )
    def test_round_trip(self, text):
        assert str(nc.parse_topology(text)) == text

    def test_case_insensitive(self):
        assert nc.parse_topology("CQ3") == nc.CQ3
        assert nc.parse_topology(" K4 ") == nc.K4

    @pytest.mark.parametrize("text", ["", "c5", "k0", "k1_0", "star0", "q44", "l8", "2"])
    def test_rejects_unknown(self, text):
        with pytest.raises(nc.TopologyError):
            nc.parse_topology(text)

    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("k2_2", "c4"),
            ("k1_1", "k2"),
            ("star1", "k2"),
            ("k1_5", "star5"),
            ("k2_3", "k2_3"),
            ("k3_2", "k2_3"),
            ("k4_1", "star4"),
            ("k4_4", "q33"),
            ("c4", "c4"),
            ("star3", "star3"),
        ],
    )
    def test_canonical_id(self, text, canonical):
        assert str(nc.canonical_id(text)) == canonical
        expanded = nc.expand_topology(text)
        twin = nc.expand_topology(nc.canonical_id(text))
        assert expanded.degree_sequence() == twin.degree_sequence()
        assert len(expanded.edges) == len(twin.edges)

    @pytest.mark.parametrize("tid", GRAMMAR, ids=str)
    def test_canonical_id_relabels_every_id(self, tid):
        # an explicit map from tid's labels onto its canonical id's, which
        # carries every edge onto an edge
        canon = nc.canonical_id(tid)
        assert nc.canonical_id(canon) == canon
        mapping = relabelling(tid)
        graph, twin = nc.expand_topology(tid), nc.expand_topology(canon)
        assert sorted(mapping) == sorted(mapping.values()) == list(twin.vertices())
        assert list(graph.vertices()) == list(twin.vertices())
        assert {tuple(sorted((mapping[u], mapping[v]))) for u, v in graph.edges} \
            == twin.edges

    def test_distinct_canonical_ids_are_not_isomorphic(self):
        canon = sorted({nc.canonical_id(tid) for tid in GRAMMAR}, key=str)
        assert len(canon) == 25
        for a, b in combinations(canon, 2):
            assert not isomorphic(nc.expand_topology(a), nc.expand_topology(b)), (a, b)

    @pytest.mark.parametrize("fields,message", [
        (("c4", 0, 1), "c4 takes no parameters"),
        (("zz",), "unknown topology kind 'zz'"),
    ])
    def test_rejects_bad_fields(self, fields, message):
        with pytest.raises(nc.TopologyError, match=message):
            nc.TopologyId(*fields)

    def test_as_topology_id_passthrough(self):
        assert nc.as_topology_id(nc.CQ3) is nc.CQ3
        assert nc.as_topology_id("k3") == nc.K3

    def test_expand_is_memoised_on_the_parsed_id(self):
        assert nc.expand_topology(" CQ3") is nc.expand_topology(nc.CQ3)
        for bad in (["c4"], {"c4": 1}):
            with pytest.raises(nc.TopologyError):
                nc.expand_topology(bad)


class TestEmbeddingEnumeration:
    @pytest.mark.parametrize(
        "pname,gname,count",
        [
            ("c4", "k2", 4),
            ("k4", "k2", 6),
            ("k4", "k3", 4),
            ("l4", "k2", 10),
            ("cq3", "k2", 12),
            ("cq3", "c4", 4),
            ("q33", "k2", 16),
            ("q33", "c4", 36),
        ],
    )
    def test_counts(self, pname, gname, count):
        host = nc.expand_topology(nc.parse_topology(pname))
        guest = nc.expand_topology(nc.parse_topology(gname))
        assert len(nc.enumerate_embeddings(host, guest)) == count

    def test_edge_guests_enumerate_host_edges(self):
        for name in ("c4", "l4", "cq3", "q33", "k4"):
            host = nc.expand_topology(nc.parse_topology(name))
            found = nc.enumerate_embeddings(host, nc.expand_topology(nc.K2))
            assert found == tuple(sorted(host.edges))

    def test_cycle_guests_in_cross_linked_ladder(self):
        host = nc.expand_topology(nc.CQ3)
        guest = nc.expand_topology(nc.C4)
        assert nc.enumerate_embeddings(host, guest) == (
            (1, 2, 3, 4),
            (1, 2, 7, 8),
            (3, 4, 5, 6),
            (5, 6, 7, 8),
        )

    def test_results_are_sorted_vertex_sets(self):
        host = nc.expand_topology(nc.Q33)
        guest = nc.expand_topology(nc.C4)
        found = nc.enumerate_embeddings(host, guest)
        assert found == tuple(sorted(found))
        for group in found:
            assert list(group) == sorted(group)
            assert len(set(group)) == len(group)

    def test_clique_guests_enumerate_subsets(self):
        from itertools import combinations

        host = nc.expand_topology(nc.kn(6))
        guest = nc.expand_topology(nc.K3)
        assert nc.enumerate_embeddings(host, guest) == tuple(
            combinations(range(1, 7), 3)
        )

    def test_oversized_guest_has_no_embeddings(self):
        host = nc.expand_topology(nc.K2)
        guest = nc.expand_topology(nc.C4)
        assert nc.enumerate_embeddings(host, guest) == ()

    def test_rejects_trivial_or_disconnected_guests(self):
        host = nc.expand_topology(nc.K4)
        with pytest.raises(nc.TopologyError):
            nc.enumerate_embeddings(host, nc.Graph(1, []))
        with pytest.raises(nc.TopologyError):
            nc.enumerate_embeddings(host, nc.Graph(3, [(1, 2)]))

    def test_rejects_oversized_host(self):
        host = nc.expand_topology(nc.kn(13))
        with pytest.raises(nc.ScaleLimitError):
            nc.enumerate_embeddings(host, nc.expand_topology(nc.K2))


class TestTwinMerge:
    def test_cycle_collapses_to_edge(self):
        merged, caps = nc.merge_twin_vertices(
            nc.expand_topology(nc.C4), (1, 2, 3, 4)
        )
        assert merged.vertex_count == 2
        assert merged.edges == frozenset({(1, 2)})
        assert caps == (4, 6)

    def test_crossbar_collapses_to_edge(self):
        merged, caps = nc.merge_twin_vertices(
            nc.expand_topology(nc.Q33), (1, 2, 3, 4, 5, 6, 7, 8)
        )
        assert merged.vertex_count == 2
        assert caps == (16, 20)

    def test_star_leaves_collapse(self):
        merged, caps = nc.merge_twin_vertices(
            nc.expand_topology(nc.star(4)), (9, 1, 2, 3, 4)
        )
        assert merged.vertex_count == 2
        assert caps == (9, 10)

    def test_clique_has_no_twins(self):
        g = nc.expand_topology(nc.K4)
        merged, caps = nc.merge_twin_vertices(g, (1, 2, 3, 4))
        assert merged.vertex_count == 4
        assert merged.edges == g.edges
        assert caps == (1, 2, 3, 4)

    def test_ladder_has_no_twins(self):
        g = nc.expand_topology(nc.L4)
        merged, _ = nc.merge_twin_vertices(g, (1,) * 8)
        assert merged.vertex_count == 8

    @given(st.lists(st.integers(0, 50), min_size=8, max_size=8))
    def test_merge_preserves_total_capacity(self, caps):
        g = nc.expand_topology(nc.Q33)
        _, merged_caps = nc.merge_twin_vertices(g, tuple(caps))
        assert sum(merged_caps) == sum(caps)
