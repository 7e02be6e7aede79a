"""Closed-form capacity formulas and the dispatch front end."""

import math
import pickle

from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import numacap as nc
from numacap import formulas
from numacap.oracle import _pair_statics, pair_solver
from conftest import (
    clear_bindings,
    CQ3_SWAP,
    LARGE_PAIRS,
    SMALL_PAIRS,
    apply_vertex_map,
    check_pair_witness,
    count_graphs,
    full_range_vectors,
    random_vectors,
)

# (label, evaluator, host size, guest size); used by the property tests
EVALUATORS = [
    ("c4/k2", nc.vmcap_c4_k2, 4, 2),
    ("k4/k2", nc.vmcap_k4_k2, 4, 2),
    ("k4/k3", nc.vmcap_k4_k3, 4, 3),
    ("k6/k3", lambda b: nc.vmcap_kn_kk_min(6, 3, b), 6, 3),
    ("l4/k2", nc.vmcap_l4_k2, 8, 2),
    ("cq3/k2", nc.vmcap_cq3_k2, 8, 2),
    ("cq3/c4", nc.vmcap_cq3_c4, 8, 4),
    ("q33/c4", nc.vmcap_q33_c4, 8, 4),
    ("k3_4/k2", lambda b: nc.vmcap_kmn_k2(3, 4, b), 7, 2),
]

IDS = [label for label, *_ in EVALUATORS]


def caps_vectors(length, max_cap=60):
    return st.lists(st.integers(0, max_cap), min_size=length, max_size=length)


class TestFrozenValues:
    def test_ring(self):
        assert nc.vmcap_c4_k2((2, 5, 3, 1)) == 5
        assert nc.vmcap_c4_k2((1, 1, 1, 1)) == 2
        assert nc.vmcap_c4_k2((0, 5, 0, 5)) == 0
        assert nc.vmcap_c4_k2((3, 7, 10, 6)) == 13

    def test_cliques(self):
        assert nc.vmcap_kn_kk_rec(4, 2, (10, 1, 1, 1)) == 3
        assert nc.vmcap_kn_kk_rec(4, 2, (3, 2, 1, 0)) == 3
        assert nc.vmcap_kn_kk_rec(4, 3, (10, 1, 1, 1)) == 1
        assert nc.vmcap_kn_kk_rec(4, 3, (3, 3, 3, 3)) == 4
        assert nc.vmcap_kn_kk_rec(5, 4, (2, 2, 2, 2, 2)) == 2
        assert nc.vmcap_kn_kk_rec(2, 2, (7, 4)) == 4
        assert nc.vmcap_kn_kk_rec(6, 6, (0, 9, 9, 9, 9, 9)) == 0
        assert nc.vmcap_k4_k2((1, 1, 1, 1)) == 2
        assert nc.vmcap_k4_k2((5, 5, 5, 1)) == 8
        assert nc.vmcap_k4_k2((0, 0, 5, 0)) == 0
        assert nc.vmcap_k4_k3((3, 3, 3, 3)) == 4
        assert nc.vmcap_k4_k3((1, 1, 1, 0)) == 1

    def test_ladder(self):
        assert nc.vmcap_l4_k2((1,) * 8) == 4
        assert nc.vmcap_l4_k2((10, 1, 0, 0, 0, 0, 0, 0)) == 1
        assert nc.vmcap_l4_k2((10, 10, 10, 10, 10, 10, 10, 10)) == 40

    def test_cross_linked_ladder(self):
        assert nc.vmcap_cq3_k2((1,) * 8) == 4
        assert nc.vmcap_cq3_k2((3, 1, 1, 1, 1, 1, 1, 1)) == 5
        assert nc.vmcap_cq3_k2((5, 0, 0, 0, 0, 0, 5, 0)) == 5
        assert nc.vmcap_cq3_c4((1,) * 8) == 2
        assert nc.vmcap_cq3_c4((1, 2, 3, 4, 5, 6, 7, 8)) == 6

    def test_crossbar_and_bipartite(self):
        assert nc.vmcap_q33_c4((1,) * 8) == 2
        assert nc.vmcap_q33_c4((1, 2, 3, 4, 5, 6, 7, 8)) == 8
        assert nc.vmcap_kmn_k2(1, 3, (5, 1, 2, 3)) == 5
        assert nc.vmcap_kmn_k2(4, 4, (1, 3, 5, 7, 2, 4, 6, 8)) == 16

    def test_dimension_checks(self):
        with pytest.raises(nc.DimensionError):
            nc.vmcap_c4_k2((1, 1, 1))
        with pytest.raises(nc.DimensionError):
            nc.vmcap_cq3_k2((1,) * 7)
        with pytest.raises(nc.TopologyError):
            nc.vmcap_kn_kk_rec(3, 4, (1, 1, 1))
        with pytest.raises(nc.DimensionError, match="expected 5 capacities, got 4"):
            nc.vmcap_kn_kk_rec(5, 2, (1,) * 4)
        with pytest.raises(nc.DimensionError):
            nc.vmcap_kmn_k2(2, 2, (1, 1, 1))
        with pytest.raises(nc.TopologyError):
            nc.vmcap_kmn_k2(0, 3, (1,) * 3)


class TestCliqueFormulaEquivalence:
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, n),
                st.lists(st.integers(0, 50), min_size=n, max_size=n),
            )
        )
    )
    def test_recursion_matches_min_form(self, case):
        n, k, b = case
        assert nc.vmcap_kn_kk_rec(n, k, b) == nc.vmcap_kn_kk_min(n, k, b)

    @given(caps_vectors(4))
    def test_special_cases_match_general_form(self, b):
        assert nc.vmcap_k4_k2(b) == nc.vmcap_kn_kk_min(4, 2, b)
        assert nc.vmcap_k4_k3(b) == nc.vmcap_kn_kk_min(4, 3, b)

    @given(caps_vectors(5))
    def test_k1_counts_everything(self, b):
        assert nc.vmcap_kn_kk_rec(5, 1, b) == sum(b)

    @given(caps_vectors(6))
    def test_kn_is_bottleneck_min(self, b):
        assert nc.vmcap_kn_kk_rec(6, 6, b) == min(b)


class TestSharedProperties:
    @pytest.mark.parametrize("label,fn,n,k", EVALUATORS, ids=IDS)
    def test_upper_bound_and_examples(self, label, fn, n, k):
        for b in random_vectors(f"{label} bound", 300, n, 40):
            count = fn(b)
            assert 0 <= count <= sum(b) // k, (label, b)

    @pytest.mark.parametrize("label,fn,n,k", EVALUATORS, ids=IDS)
    def test_monotone_in_each_slot(self, label, fn, n, k):
        for b in random_vectors(f"{label} monotone", 120, n, 25):
            base = fn(b)
            for i in range(n):
                grown = list(b)
                grown[i] += 1
                assert fn(grown) >= base, (label, b, i)

    @pytest.mark.parametrize("label,fn,n,k", EVALUATORS, ids=IDS)
    def test_superadditive(self, label, fn, n, k):
        vecs = random_vectors(f"{label} superadd", 240, n, 25)
        for b, c in zip(vecs[::2], vecs[1::2]):
            total = tuple(x + y for x, y in zip(b, c))
            assert fn(total) >= fn(b) + fn(c), (label, b, c)

    @pytest.mark.parametrize("label,fn,n,k", EVALUATORS, ids=IDS)
    def test_zero_vector(self, label, fn, n, k):
        assert fn((0,) * n) == 0


class TestSymmetry:
    @given(caps_vectors(4))
    def test_ring_rotation_and_reflection(self, b):
        assert nc.vmcap_c4_k2(b) == nc.vmcap_c4_k2(b[1:] + b[:1])
        assert nc.vmcap_c4_k2(b) == nc.vmcap_c4_k2(b[::-1])

    @given(caps_vectors(4))
    def test_clique_permutation(self, b):
        assert nc.vmcap_k4_k2(b) == nc.vmcap_k4_k2(sorted(b))
        assert nc.vmcap_k4_k3(b) == nc.vmcap_k4_k3(sorted(b, reverse=True))

    @given(caps_vectors(8))
    def test_ladder_reversal(self, b):
        assert nc.vmcap_l4_k2(b) == nc.vmcap_l4_k2(b[::-1])

    @given(caps_vectors(8))
    def test_cross_linked_ladder_swap(self, b):
        image = apply_vertex_map(CQ3_SWAP, b)
        assert nc.vmcap_cq3_k2(b) == nc.vmcap_cq3_k2(image)
        assert nc.vmcap_cq3_c4(b) == nc.vmcap_cq3_c4(image)

    @given(caps_vectors(8))
    def test_crossbar_side_exchange(self, b):
        # swapping the odd and even halves relabels the complete bipartite core
        swapped = b[4:] + b[:4]
        assert nc.vmcap_kmn_k2(4, 4, b) == nc.vmcap_kmn_k2(4, 4, swapped)

    @given(caps_vectors(8))
    def test_crossbar_within_side_permutation(self, b):
        shuffled = sorted(b[:4]) + sorted(b[4:], reverse=True)
        assert nc.vmcap_kmn_k2(4, 4, b) == nc.vmcap_kmn_k2(4, 4, shuffled)


class TestNormalization:
    def test_examples(self):
        c4 = nc.expand_topology(nc.C4)
        assert nc.normalize_capacities(c4, (9, 2, 0, 2)) == (4, 2, 0, 2)
        assert nc.normalize_capacities(c4, (9, 2, 50, 2)) == (4, 2, 4, 2)
        assert nc.normalize_capacities(c4, (1, 1, 1, 1)) == (1, 1, 1, 1)

    def test_subset_limits_the_clip(self):
        c4 = nc.expand_topology(nc.C4)
        assert nc.normalize_capacities(c4, (9, 2, 50, 2), subset={3}) == (9, 2, 4, 2)

    def test_leaves_clip_against_the_hub(self):
        star = nc.expand_topology(nc.star(2))
        assert nc.normalize_capacities(star, (1, 9, 9)) == (1, 1, 1)

    def test_errors(self):
        c4 = nc.expand_topology(nc.C4)
        with pytest.raises(nc.DimensionError):
            nc.normalize_capacities(c4, (1, 1, 1))
        with pytest.raises(nc.TopologyError):
            nc.normalize_capacities(c4, (1, 1, 1, 1), subset={9})

    @given(caps_vectors(8, max_cap=200))
    @settings(max_examples=60, deadline=None)
    def test_never_increases_and_preserves_counts(self, b):
        for tid, fn in [
            (nc.L4, nc.vmcap_l4_k2),
            (nc.CQ3, nc.vmcap_cq3_k2),
            (nc.CQ3, nc.vmcap_cq3_c4),
        ]:
            g = nc.expand_topology(tid)
            clipped = nc.normalize_capacities(g, b)
            assert all(x <= y for x, y in zip(clipped, b))
            assert fn(clipped) == fn(b)


class TestPartialMeans:
    def test_example(self):
        assert nc.partial_means([1, 2, 3, 4], 3) == [
            Fraction(10, 3),
            Fraction(3),
            Fraction(3),
        ]

    def test_connects_to_clique_formula(self):
        for b in random_vectors("means vs min", 200, 6, 30):
            ordered = sorted(b)
            for k in range(1, 7):
                means = nc.partial_means(ordered, k)
                assert nc.vmcap_kn_kk_min(6, k, ordered) == min(
                    math.floor(m) for m in means
                )

    def test_input_validation(self):
        with pytest.raises(nc.DimensionError):
            nc.partial_means([3, 1], 2)
        with pytest.raises(nc.TopologyError):
            nc.partial_means([1, 2, 3], 0)
        with pytest.raises(nc.TopologyError):
            nc.partial_means([1, 2, 3], 4)


class TestDispatch:
    def test_closed_form_pairs(self):
        assert nc.vmcap("c4", "k2", (2, 5, 3, 1)) == nc.VmcapResult(5, "closed-form")
        assert nc.vmcap("k4", "k2", (5, 5, 5, 1)).count == 8
        assert nc.vmcap("k9", "k2", (1,) * 9).count == 4
        assert nc.vmcap("q33", "k2", (1, 2, 3, 4, 5, 6, 7, 8)).count == 16
        assert nc.vmcap("star3", "k2", (2, 9, 9, 9)).count == 2
        assert nc.vmcap("k2_3", "k2", (4, 4, 1, 1, 1)).count == 3
        assert nc.vmcap("cq3", "c4", (1, 2, 3, 4, 5, 6, 7, 8)).count == 6

    def test_oracle_fallback(self):
        res = nc.vmcap("l4", "c4", (1,) * 8)
        assert res == nc.VmcapResult(2, "oracle")
        assert nc.vmcap("k2_3", "c4", (1, 1, 1, 1, 1)).via == "oracle"

    def test_guest_larger_than_host(self):
        assert nc.vmcap("k2", "c4", (3, 3)).count == 0
        assert nc.vmcap("k3", "k4", (9, 9, 9)).count == 0
        assert nc.vmcap("c4", "k5", (1, 1, 1, 1)) == nc.VmcapResult(0)
        assert nc.place_vnuma("c4", "k5", (1, 1, 1, 1)) == nc.Placement(())
        assert nc.place_vnuma("k3", "k4", (9, 9, 9)) == nc.Placement(())
        with pytest.raises(nc.TopologyError):
            nc.place_vnuma("c4", "k1", (1, 1, 1, 1))

    def test_single_node_guest_is_rejected(self):
        with pytest.raises(nc.TopologyError):
            nc.vmcap("c4", "k1", (1, 1, 1, 1))

    def test_single_node_guest_has_one_error(self):
        messages = []
        for front_end in (nc.vmcap, nc.place_vnuma):
            with pytest.raises(nc.TopologyError, match="sum of node capacities") as exc:
                front_end("c4", "k1", (1, 1, 1, 1))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_solver_pairs_are_bound_once(self, monkeypatch):
        # after a warm-up call the solver binding reuses its graphs and its
        # pair's solver, and looks up neither that nor the solver's table
        pairs = [("cq3", "k1_2"), ("l4", "c4")]
        for pname, gname in pairs:
            nc.vmcap(pname, gname, (1,) * 8)
        built = count_graphs(monkeypatch)
        statics = _pair_statics.cache_info()
        solvers = pair_solver.cache_info()
        for pname, gname in pairs:
            for b in random_vectors(f"{pname}/{gname} bound once", 50, 8, 6):
                assert nc.vmcap(pname, gname, b).via == "oracle"
            for b in random_vectors(f"{pname}/{gname} placed once", 5, 8, 6):
                nc.place_vnuma(pname, gname, b)
        assert built == [0]
        assert _pair_statics.cache_info() == statics
        assert pair_solver.cache_info() == solvers

    def test_binding_a_solver_pair_builds_no_graph(self, monkeypatch):
        # resolving, or rejecting b, must not build a host graph whose
        # size the id alone sets (k300_300 has 90,000 edges)
        clear_bindings()
        nc.topology._expand.cache_clear()
        built = count_graphs(monkeypatch)
        assert nc.closed_form_evaluator("k300_300", "c4") is None
        with pytest.raises(nc.DimensionError):
            nc.vmcap("k300_300", "c4", (1,) * 5)
        with pytest.raises(nc.DimensionError):
            nc.place_vnuma("k300_300", "c4", (1,) * 5)
        assert built == [0]

    @pytest.mark.parametrize("front_end,pnuma,vnuma,message", [
        # the solver's count, and its witness, which enumerates first
        (nc.vmcap, "k40_40", "c4", "oracle supports hosts up to 8 vertices"),
        (nc.place_vnuma, "k5_5", "c4", "oracle supports hosts up to 8 vertices"),
        (nc.place_vnuma, "k40_40", "c4",
         "embedding enumeration supports at most 12 vertices, got 80"),
        # a wrap-around witness answers, past any node limit
        (nc.place_vnuma, "k40_40", "k2", None),
    ])
    def test_a_host_past_a_node_limit_builds_no_graph(
        self, monkeypatch, front_end, pnuma, vnuma, message
    ):
        clear_bindings()
        nc.topology._expand.cache_clear()
        built = count_graphs(monkeypatch)
        n = nc.parse_topology(pnuma).vertex_count
        for _ in range(2):
            if message is None:
                placement = front_end(pnuma, vnuma, (1,) * n)
                assert placement.count == 40
                check_pair_witness(placement, 40, (1,) * n)
                continue
            with pytest.raises(nc.ScaleLimitError) as info:
                front_end(pnuma, vnuma, (1,) * n)
            assert str(info.value) == message
        assert built == [0]
        assert nc.topology._expand.cache_info().currsize == 0

    def test_a_guest_larger_than_its_host_places_nothing_unbuilt(self, monkeypatch):
        clear_bindings()
        built = count_graphs(monkeypatch)
        assert nc.place_vnuma("k13", "k14", (1,) * 13) == nc.Placement(())
        assert nc.place_vnuma("c4", "k5", (1,) * 4) == nc.Placement(())
        assert built == [0]

    def test_oracle_fallback_scale_limit(self):
        with pytest.raises(nc.ScaleLimitError):
            nc.vmcap("star8", "k1_2", (1,) * 9)

    def test_bound_solver_count_keeps_the_limit_messages(self):
        # the count bound to the pair's solver refuses what oracle_vmcap
        # refuses, with the same words
        # a solver pair is counted by floor(LP), with no sum limit, so
        # the count's case is a pair in LP_GAPS
        assert (nc.CQ3, nc.star(3)) in formulas.LP_GAPS
        count = formulas.bind_solver(nc.CQ3, nc.star(3))
        assert count((25,) * 8) == nc.oracle_vmcap(
            nc.expand_topology("cq3"), nc.expand_topology("k1_3"), (25,) * 8
        ).count
        # the search's count, not floor(LP) = 2
        assert count((1,) * 8) == 1
        l4_c4 = partial(
            nc.oracle_vmcap, nc.expand_topology("l4"), nc.expand_topology("c4")
        )
        for refuse in (count, partial(nc.vmcap, "cq3", "k1_3"), l4_c4):
            with pytest.raises(nc.ScaleLimitError) as info:
                refuse((26,) * 7 + (19,))
            assert str(info.value) == "oracle supports total capacity up to 200, got 201"
        # so does the solver's witness, on a pair outside the table
        with pytest.raises(nc.ScaleLimitError) as info:
            nc.place_vnuma("cq3", "k1_3", (26,) * 8)
        assert str(info.value) == "oracle supports total capacity up to 200, got 208"
        # l4/c4 is in the table: its count passes the limit, and so does
        # its witness, peeled from that count
        assert formulas.bind_solver(nc.L4, nc.C4)((26,) * 8) == 52
        assert nc.vmcap("l4", "c4", (26,) * 8) == (52, "oracle")
        placement = nc.place_vnuma("l4", "c4", (26,) * 8)
        assert placement.count == 52
        nc.verify_placement(
            nc.expand_topology("l4"), nc.expand_topology("c4"), (26,) * 8, placement
        )
        nine = formulas.bind_solver(nc.km_n(4, 5), nc.C4)
        k4_5_c4 = partial(
            nc.oracle_vmcap, nc.expand_topology("k4_5"), nc.expand_topology("c4")
        )
        statics = _pair_statics.cache_info()
        for refuse in (nine, partial(nc.vmcap, "k4_5", "c4"), k4_5_c4):
            with pytest.raises(nc.ScaleLimitError) as info:
                refuse((1,) * 9)
            assert str(info.value) == "oracle supports hosts up to 8 vertices"
        # the host is refused before the pair's statics are looked up
        assert _pair_statics.cache_info() == statics

    def test_capacity_validation(self):
        with pytest.raises(nc.DimensionError):
            nc.vmcap("c4", "k2", (1, 1))
        with pytest.raises(nc.CapacityError):
            nc.vmcap("c4", "k2", (1, -2, 1, 1))

    def test_dispatch_agrees_with_oracle_on_samples(self):
        host = nc.expand_topology(nc.parse_topology("k5"))
        guest = nc.expand_topology(nc.K3)
        for b in random_vectors("k5/k3 dispatch", 50, 5, 10):
            res = nc.vmcap("k5", "k3", b)
            assert res.via == "closed-form"
            assert res.count == nc.oracle_vmcap(host, guest, b).count


class TestEvaluatorTable:
    CLOSED = [
        ("c4", "k2"),
        ("l4", "k2"),
        ("cq3", "k2"),
        ("cq3", "c4"),
        ("q33", "k2"),
        ("q33", "c4"),
        ("k4", "k2"),
        ("k4", "k3"),
        ("k7", "k3"),
        ("k2_3", "k2"),
        ("star5", "k2"),
        ("c4", "c4"),
        ("k4", "c4"),
    ]
    OPEN = [("l4", "c4"), ("cq3", "k3"), ("q33", "k3")]

    @pytest.mark.parametrize("pname,gname", CLOSED)
    def test_registered_pairs(self, pname, gname):
        fn = nc.closed_form_evaluator(
            nc.parse_topology(pname), nc.parse_topology(gname)
        )
        assert fn is not None

    @pytest.mark.parametrize("pname,gname", OPEN)
    def test_unregistered_pairs(self, pname, gname):
        fn = nc.closed_form_evaluator(
            nc.parse_topology(pname), nc.parse_topology(gname)
        )
        assert fn is None

    def test_conftest_pairs_are_registry_instances(self):
        registered = {(host, guest) for host, guest, _ in formulas.INSTANCES}
        assert set(SMALL_PAIRS + LARGE_PAIRS) <= registered

    def test_evaluator_reflects_patched_formula(self, patch_formula):
        fn = nc.closed_form_evaluator(nc.C4, nc.K2)
        assert fn((2, 5, 3, 1)) == 5
        patch_formula("c4", "k2", lambda b: 99)
        fn = nc.closed_form_evaluator(nc.C4, nc.K2)
        assert fn((2, 5, 3, 1)) == 99


class TestCompiledDispatch:
    """vmcap() resolves each (host, guest) pair once and reuses it."""

    def test_invalid_id_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(nc.TopologyError):
                nc.vmcap("pentagon", "k2", (1, 1, 1, 1))
            with pytest.raises(nc.TopologyError):
                nc.vmcap("c4", "k0", (1, 1, 1, 1))

    @pytest.mark.parametrize(
        "pnuma,vnuma", [(["c4"], "k2"), ("c4", ["k2"]), ({"c4": 1}, "k2")]
    )
    def test_unhashable_id_is_a_topology_error(self, pnuma, vnuma):
        with pytest.raises(nc.TopologyError):
            nc.vmcap(pnuma, vnuma, (1, 1, 1, 1))
        with pytest.raises(nc.TopologyError):
            nc.place_vnuma(pnuma, vnuma, (1, 1, 1, 1))
        with pytest.raises(nc.TopologyError):
            nc.closed_form_evaluator(pnuma, vnuma)

    def test_a_tuple_of_an_ids_fields_is_refused_once_the_id_is_bound(self):
        # the memo must not match a plain tuple to an id it holds
        for front_end in (nc.vmcap, nc.place_vnuma):
            front_end(nc.C4, nc.K2, (1, 1, 1, 1))
            for pnuma, vnuma in ((("c4", 0, 0), nc.K2), (nc.C4, ("kn", 0, 2))):
                with pytest.raises(nc.TopologyError, match="expected topology id"):
                    front_end(pnuma, vnuma, (1, 1, 1, 1))

    def test_vmcap_sees_a_patched_formula(self, patch_formula):
        assert nc.vmcap("c4", "k2", (2, 5, 3, 1)).count == 5
        patch_formula("c4", "k2", lambda b: 99)
        assert nc.vmcap("c4", "k2", (2, 5, 3, 1)).count == 99

    def test_string_and_parsed_ids_agree(self):
        b = (1, 2, 3, 4, 5, 6, 7, 8)
        assert nc.vmcap("cq3", "k2", b) == nc.vmcap(nc.CQ3, nc.K2, b)
        assert nc.vmcap(" CQ3 ", "K2", b) == nc.vmcap(nc.CQ3, nc.K2, b)


# Pairs that canonical guest ids close: k2_2 is c4, k1_1 and star1 are k2,
# k1_N is starN, and a guest shaped like its host takes min(b).
NEWLY_CLOSED_SMALL = [
    ("c4", "c4"),
    ("c4", "k2_2"),
    ("k2_2", "c4"),
    ("k2_2", "k2_2"),
    ("c4", "k1_1"),
    ("k4", "k1_1"),
    ("k2_2", "k1_1"),
    ("k4", "star1"),
    ("k3", "k1_1"),
    ("star3", "k1_3"),
    ("k1_3", "star3"),
    ("k1_3", "k1_3"),
    ("star3", "star3"),
    ("k2_3", "k1_1"),
    ("star5", "k1_5"),
]
NEWLY_CLOSED_LARGE = [
    ("q33", "k2_2"),
    ("cq3", "k2_2"),
    ("l4", "k1_1"),
    ("cq3", "k1_1"),
    ("q33", "k1_1"),
    ("l4", "l4"),
    ("cq3", "cq3"),
    ("q33", "q33"),
]


def solver_mismatches(pname, gname, vectors):
    host = nc.expand_topology(pname)
    guest = nc.expand_topology(gname)
    bad = []
    for b in vectors:
        result = nc.vmcap(pname, gname, b)
        assert result.via == "closed-form"
        if result.count != nc.oracle_vmcap(host, guest, b).count:
            bad.append(b)
    return bad


class TestCanonicalIds:
    def test_isomorphic_guests_leave_the_solver(self):
        assert nc.vmcap("c4", "k2_2", (60,) * 4) == nc.VmcapResult(60)
        assert nc.vmcap("c4", "c4", (60, 70, 80, 90)) == nc.VmcapResult(60)
        assert nc.vmcap("q33", "k2_2", (30,) * 8).count == nc.vmcap_q33_c4(
            (30,) * 8
        )
        assert nc.vmcap("k4", "k1_1", (60,) * 4).count == 120
        big = nc.MAX_CAPACITY
        assert nc.vmcap("l4", "l4", (big,) * 7 + (5,)).count == 5

    def test_same_shape_evaluator_checks_the_dimension(self):
        fn = nc.closed_form_evaluator("c4", "k2_2")
        assert fn((4, 3, 9, 7)) == 3
        with pytest.raises(nc.DimensionError):
            fn((4, 3))

    def test_host_keeps_its_own_labels(self):
        # k2_2 pairs 1,2 with 3,4; read as a c4 vector this would give 5
        assert nc.vmcap("k2_2", "k2", (5, 5, 0, 0)).count == 0
        assert nc.vmcap("k2_2", "k1_1", (5, 5, 0, 0)).count == 0
        assert nc.vmcap("k2_2", "c4", (5, 5, 0, 0)).count == 0

    @pytest.mark.parametrize("pname,gname", NEWLY_CLOSED_SMALL)
    def test_small_pairs_match_solver_exhaustively(self, pname, gname):
        n = nc.parse_topology(pname).vertex_count
        assert solver_mismatches(pname, gname, product(range(6), repeat=n)) == []

    @pytest.mark.parametrize("pname,gname", NEWLY_CLOSED_LARGE)
    def test_large_pairs_match_solver(self, pname, gname):
        # [0..5]^8 is 1.7M solver runs; [0..2]^8 plus a sample stands in
        vectors = list(product(range(3), repeat=8))
        vectors += random_vectors(f"{pname}/{gname} canonical", 2000, 8, 5)
        assert solver_mismatches(pname, gname, vectors) == []

    @pytest.mark.parametrize("pname,gname", NEWLY_CLOSED_LARGE)
    def test_solver_sees_the_canonical_pair(self, pname, gname):
        # the solver reads only the embedding list, so equal lists mean
        # equal solver counts for every b
        host = nc.expand_topology(pname)
        twin = nc.expand_topology(nc.canonical_id(gname))
        guest = nc.expand_topology(gname)
        assert nc.enumerate_embeddings(host, guest) == nc.enumerate_embeddings(
            host, twin
        )


# guest shapes used across the tests; on a kN host each one that fits
# takes the clique count
COMPLETE_HOST_PAIRS = [
    (pname, gname)
    for pname in ("k4", "k5", "k6")
    for gname in ("k2", "k3", "k4", "k5", "k6", "k1_2", "k1_3", "k1_4",
                  "k1_5", "c4", "k2_2", "k2_3", "star3", "l4")
    if nc.parse_topology(gname).vertex_count
    <= nc.parse_topology(pname).vertex_count
]


class TestCompleteHost:
    @pytest.mark.parametrize("pname,gname", COMPLETE_HOST_PAIRS)
    def test_matches_solver_with_a_witness(self, pname, gname):
        host = nc.expand_topology(pname)
        guest = nc.expand_topology(gname)
        for b in random_vectors(f"{pname}/{gname} complete", 300,
                                host.vertex_count, 12):
            result = nc.vmcap(pname, gname, b)
            assert result.via == "closed-form"
            assert result.count == nc.oracle_vmcap(host, guest, b).count, b
            placement = nc.place_vnuma(pname, gname, b)
            nc.verify_placement(host, guest, b, placement)
            assert placement.count == result.count, b

    def test_beyond_the_solver_range(self):
        assert nc.vmcap("k6", "c4", (300,) * 6) == nc.VmcapResult(450)


# the twelve closed pairs the vmcap-closed benchmark workload calls
BENCHMARK_CLOSED_PAIRS = [
    ("c4", "k2"), ("k4", "k2"), ("k6", "k2"), ("l4", "k2"), ("cq3", "k2"),
    ("q33", "k2"), ("k2_3", "k2"), ("star5", "k2"), ("k4", "k3"),
    ("k6", "k4"), ("cq3", "c4"), ("q33", "c4"),
]
# those, every registry instance, and c4's own shape under its other guest id
BOUND_PAIRS = sorted(
    set(BENCHMARK_CLOSED_PAIRS)
    | {(host, guest) for host, guest, _ in formulas.INSTANCES}
    | {("c4", "k2_2")}
)


def side_sums(m):
    return lambda b: min(sum(b[:m]), sum(b[m:]))


def reference_count(pname, gname):
    """A count for the pair that does not go through its registry body.

    Complete hosts and guests of their host's shape take the branch-free
    clique form, bipartite hosts their two side sums, and q33/c4 the
    lesser of the K4 pair counts on its odd and on its even nodes.  c4/k2,
    l4/k2, cq3/k2 and cq3/c4 bind their public formula itself, so it is
    the reference there; the solver tests cover those formulas.
    """
    host = nc.parse_topology(pname)
    guest = nc.canonical_id(nc.parse_topology(gname))
    n, k = host.vertex_count, guest.vertex_count
    if k > n:
        return lambda b: 0
    if host.kind == "kn" or guest == nc.canonical_id(host):
        return lambda b: nc.vmcap_kn_kk_min(n, k, b)
    if host.kind == "star":
        return side_sums(1)
    if host.kind == "km_n":
        return side_sums(host.m)
    return {
        ("q33", "k2"): lambda b: side_sums(4)(b[0::2] + b[1::2]),
        ("q33", "c4"): lambda b: min(nc.vmcap_k4_k2(b[0::2]),
                                     nc.vmcap_k4_k2(b[1::2])),
        ("c4", "k2"): nc.vmcap_c4_k2,
        ("l4", "k2"): nc.vmcap_l4_k2,
        ("cq3", "k2"): nc.vmcap_cq3_k2,
        ("cq3", "c4"): nc.vmcap_cq3_c4,
    }[pname, gname]


class TestBoundBodies:
    """Each pair's bound count trusts a checked vector; these hold it to a
    second method over the whole entry range, tuples and lists alike."""

    @pytest.mark.parametrize("pname,gname", BOUND_PAIRS)
    def test_full_range_against_a_reference(self, pname, gname):
        n = nc.parse_topology(pname).vertex_count
        want = reference_count(pname, gname)
        _, body, via, _ = formulas._resolve(pname, gname)
        assert via == "closed-form"
        for b in full_range_vectors(f"{pname}/{gname} full range", n):
            expected = want(b)
            assert nc.vmcap(pname, gname, b).count == expected, b
            assert nc.vmcap(pname, gname, list(b)).count == expected, b
            # peel hands the bound count lists of its residuals
            assert body(list(b)) == expected, b

    @pytest.mark.parametrize("fn,n", [
        (nc.vmcap_c4_k2, 4), (nc.vmcap_k4_k2, 4), (nc.vmcap_k4_k3, 4),
        (nc.vmcap_l4_k2, 8), (nc.vmcap_cq3_k2, 8), (nc.vmcap_cq3_c4, 8),
        (nc.vmcap_q33_k2, 8), (nc.vmcap_q33_c4, 8),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_public_formulas_check_their_length(self, fn, n):
        for length in (0, n - 1, n + 1):
            with pytest.raises(nc.DimensionError,
                               match=f"expected {n} capacities, got {length}"):
                fn((1,) * length)


class TestCheckedEvaluator:
    """closed_form_evaluator checks b as vmcap does, with one callable a pair."""

    @pytest.mark.parametrize("pname,gname", BOUND_PAIRS)
    def test_rejects_bad_vectors(self, pname, gname):
        n = nc.parse_topology(pname).vertex_count
        fn = nc.closed_form_evaluator(pname, gname)
        with pytest.raises(nc.DimensionError):
            fn((1,) * (n - 1))
        for bad in (-1, nc.MAX_CAPACITY + 1):
            with pytest.raises(nc.CapacityError):
                fn((1,) * (n - 1) + (bad,))
        assert fn([0] * n) == 0

    @pytest.mark.parametrize("pname,gname", BOUND_PAIRS)
    def test_one_callable_per_pair(self, pname, gname):
        first = nc.closed_form_evaluator(pname, gname)
        assert nc.closed_form_evaluator(pname, gname) is first


class TestVmcapResult:
    """vmcap builds its result without NamedTuple's __new__; the type holds."""

    @pytest.mark.parametrize("pname,gname,b,count,via", [
        ("cq3", "k2", (1, 2, 3, 4, 5, 6, 7, 8), 18, "closed-form"),
        ("l4", "c4", (1,) * 8, 2, "oracle"),
    ])
    def test_public_type(self, pname, gname, b, count, via):
        result = nc.vmcap(pname, gname, b)
        assert type(result) is nc.VmcapResult
        assert result._fields == ("count", "via")
        assert (result.count, result.via) == (count, via)
        assert result == nc.VmcapResult(count, via)
        again = pickle.loads(pickle.dumps(result))
        assert type(again) is nc.VmcapResult and again == result
