"""Witness constructions behind each closed-form count."""

import json

import pytest

import numacap as nc
from numacap import cli, formulas
from conftest import random_vectors


def expanded(name):
    return nc.expand_topology(nc.parse_topology(name))


def check(pname, gname, caps, placement):
    nc.verify_placement(expanded(pname), expanded(gname), caps, placement)


class TestCliquePlacement:
    def test_greedy_trace(self):
        pl = nc.place_kn_kk(4, 2, (3, 2, 1, 0))
        assert pl.as_lists() == [[1, 2], [1, 2], [1, 3]]
        assert pl.count == 3

    def test_singletons(self):
        assert nc.place_kn_kk(3, 1, (2, 0, 1)).as_lists() == [[1], [1], [3]]

    def test_full_cliques(self):
        pl = nc.place_kn_kk(4, 4, (2, 3, 2, 2))
        assert pl.as_lists() == [[1, 2, 3, 4], [1, 2, 3, 4]]

    def test_empty(self):
        assert nc.place_kn_kk(4, 2, (0, 0, 0, 0)).count == 0
        assert nc.place_kn_kk(4, 2, (5, 0, 0, 0)).count == 0

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2), (7, 5), (8, 4)])
    def test_matches_formula_and_is_valid(self, n, k):
        for caps in random_vectors(f"kn placement {n}/{k}", 80, n, 30):
            pl = nc.place_kn_kk(n, k, caps)
            assert pl.count == nc.vmcap_kn_kk_min(n, k, caps), caps
            if k >= 2:
                check(f"k{n}", f"k{k}", caps, pl)

    def test_batch_sizes_follow_capacity_gaps(self):
        # first batch drains the top pair down to the third-largest level
        pl = nc.place_kn_kk(3, 2, (5, 5, 2))
        assert pl.as_lists() == [[1, 2]] * 4 + [[1, 3], [2, 3]]

    def test_wide_host_checked_directly(self):
        caps = tuple(range(1, 41))
        pl = nc.place_kn_kk(40, 20, caps)
        assert pl.count == nc.vmcap_kn_kk_min(40, 20, caps) == 41
        used = [0] * 40
        for group in pl.matches:
            assert len(set(group)) == 20 and set(group) <= set(range(1, 41))
            for v in group:
                used[v - 1] += 1
        assert all(u <= c for u, c in zip(used, caps))
        # one run of groups per lane change, not one group per copy
        assert len(set(pl.matches)) <= 40 + 1


class TestEdgeGuestPlacement:
    PAIRS = [
        ("c4", 4),
        ("k4", 4),
        ("k6", 6),
        ("l4", 8),
        ("cq3", 8),
        ("q33", 8),
        ("k2_3", 5),
        ("star4", 5),
    ]

    @pytest.mark.parametrize("pname,length", PAIRS)
    def test_matches_formula_and_is_valid(self, pname, length):
        for caps in random_vectors(f"{pname} pairs", 120, length, 25):
            pl = nc.place_k2(pname, caps)
            assert pl.count == nc.vmcap(pname, "k2", caps).count, caps
            check(pname, "k2", caps, pl)

    def test_cross_edges_carry_the_imbalance(self):
        pl = nc.place_k2("cq3", (5, 0, 0, 0, 0, 0, 5, 0))
        assert pl.as_lists() == [[1, 7]] * 5

    def test_ring_example(self):
        pl = nc.place_k2("c4", (2, 5, 3, 1))
        assert pl.count == 5
        check("c4", "k2", (2, 5, 3, 1), pl)

    def test_ladder_end_clipping(self):
        pl = nc.place_k2("l4", (10, 1, 0, 0, 0, 0, 0, 0))
        assert pl.as_lists() == [[1, 2]]

    def test_dimension_error(self):
        with pytest.raises(nc.DimensionError):
            nc.place_k2("k2_3", (1, 1, 1))


class TestRingGuestPlacement:
    @pytest.mark.parametrize("pname", ["cq3", "q33"])
    def test_matches_formula_and_is_valid(self, pname):
        fn = nc.vmcap_cq3_c4 if pname == "cq3" else nc.vmcap_q33_c4
        for caps in random_vectors(f"{pname} rings", 120, 8, 25):
            pl = nc.place_c4_vnuma(pname, caps)
            assert pl.count == fn(caps), caps
            check(pname, "c4", caps, pl)

    def test_known_counts(self):
        assert nc.place_c4_vnuma("cq3", (1, 2, 3, 4, 5, 6, 7, 8)).count == 6
        assert nc.place_c4_vnuma("q33", (1, 2, 3, 4, 5, 6, 7, 8)).count == 8

    def test_groups_are_host_cycles(self):
        pl = nc.place_c4_vnuma("cq3", (2, 2, 2, 2, 2, 2, 2, 2))
        allowed = {(1, 2, 3, 4), (1, 2, 7, 8), (3, 4, 5, 6), (5, 6, 7, 8)}
        assert set(pl.matches) <= allowed

    def test_unsupported_host(self):
        # no closed form: the solver's witness
        assert nc.place_c4_vnuma("l4", (1,) * 8).as_lists() == [
            [1, 2, 3, 4], [5, 6, 7, 8]
        ]
        for host in ("c4", "k2_2"):
            for b in ((1, 1, 1, 1), (3, 5, 2, 4)):
                assert nc.place_c4_vnuma(host, b).matches == (
                    ((1, 2, 3, 4),) * min(b)
                )


# every registry instance, pairs closed through canonical guest ids or the
# same-shape rule, and guests that only the complete-host rule covers
WITNESS_PAIRS = sorted(
    {(host, guest) for host, guest, _ in formulas.INSTANCES}
    | {("c4", "c4"), ("c4", "k2_2"), ("q33", "k2_2"), ("k4", "k1_1"),
       ("star3", "k1_3"), ("l4", "l4"), ("k6", "c4"), ("k5", "k2_3")}
)


class TestEveryClosedPair:
    @pytest.mark.parametrize("pname,gname", WITNESS_PAIRS)
    def test_cli_and_library_witnesses(self, capsys, pname, gname):
        n = nc.parse_topology(pname).vertex_count
        # entries to 256, then past the solver's range
        for caps in random_vectors(f"{pname}/{gname} witness", 20, n, 256) + (
            random_vectors(f"{pname}/{gname} large", 10, n, 10**4)
        ):
            want = nc.vmcap(pname, gname, caps).count
            code = cli.main(["place", "--topology", pname, "--vnuma", gname,
                             "--caps", ",".join(map(str, caps))])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["count"] == want, caps
            printed = nc.Placement(tuple(tuple(m) for m in doc["matches"]))
            for pl in (printed, nc.place_vnuma(pname, gname, caps)):
                check(pname, gname, caps, pl)
                assert pl.count == want, caps


# hosts of every k2 or c4 witness pair, and both ids of the 4-cycle
FRONT_END_HOSTS = sorted(
    {host for host, guest in WITNESS_PAIRS if guest in ("k2", "c4", "k2_2")}
    | {"c4", "k2_2"}
)


def witness_or_error(front, *args):
    try:
        return front(*args)
    except nc.NumacapError as exc:
        return type(exc)


class TestFrontEndsAgree:
    """place_k2 and place_c4_vnuma answer as place_vnuma does."""

    @pytest.mark.parametrize("pname", FRONT_END_HOSTS)
    def test_same_answer(self, pname):
        n = nc.parse_topology(pname).vertex_count
        for caps in random_vectors(f"{pname} front ends", 10, n, 256):
            for front, guest in ((nc.place_k2, "k2"), (nc.place_c4_vnuma, "c4")):
                assert witness_or_error(front, pname, caps) == witness_or_error(
                    nc.place_vnuma, pname, guest, caps
                ), (guest, caps)


class TestPeel:
    """Witnesses read off the count over the pair's embeddings."""

    def test_overclaiming_count_is_caught(self, capsys, patch_formula):
        real = formulas.vmcap_cq3_k2
        patch_formula("cq3", "k2", lambda b: real(b) + 1)
        caps = (3, 1, 4, 1, 5, 9, 2, 6)
        with pytest.raises(nc.PlacementError, match="overclaims"):
            nc.place_vnuma("cq3", "k2", caps)
        code = cli.main(["place", "--topology", "cq3", "--vnuma", "k2",
                         "--caps", ",".join(map(str, caps))])
        assert code == 2
        assert "overclaims" in capsys.readouterr().err

    @pytest.mark.parametrize("pname,gname,key", [
        ("cq3", "k2", "cq3"), ("l4", "k2", "l4"), ("q33", "c4", "q33"),
        ("cq3", "c4", "cq3"), ("k2_3", "k2", "km_n"),
    ])
    def test_count_calls_are_bounded(self, patch_formula, pname, gname, key):
        real = formulas.PAIRS[key, nc.parse_topology(gname)].count
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        patch_formula(key, gname, counted)
        m = len(nc.enumerate_embeddings(expanded(pname), expanded(gname)))
        n = nc.parse_topology(pname).vertex_count
        for caps in random_vectors(f"{pname}/{gname} calls", 100, n, 300):
            calls = 0
            pl = nc.place_vnuma(pname, gname, caps)
            assert calls <= 1 + m * (1 + max(caps).bit_length()), caps
            assert pl.count == nc.vmcap(pname, gname, caps).count, caps

    def test_host_past_the_enumeration_limit(self):
        caps = (1,) * 14
        assert nc.vmcap("k7_7", "k2", caps).count == 7
        with pytest.raises(nc.ScaleLimitError, match="at most 12 vertices"):
            nc.place_vnuma("k7_7", "k2", caps)


class TestVerification:
    def test_rejects_non_embedding_group(self):
        bogus = nc.Placement(((1, 3),))
        with pytest.raises(nc.PlacementError):
            check("c4", "k2", (5, 5, 5, 5), bogus)

    def test_rejects_overuse(self):
        bogus = nc.Placement(((1, 2), (1, 2)))
        with pytest.raises(nc.PlacementError):
            check("c4", "k2", (1, 5, 5, 5), bogus)

    def test_accepts_valid(self):
        check("c4", "k2", (1, 5, 5, 5), nc.Placement(((1, 2), (2, 3))))


class TestPlacementValue:
    def test_count_and_lists(self):
        pl = nc.Placement(((1, 2), (1, 2), (3, 4)))
        assert pl.count == 3
        assert pl.as_lists() == [[1, 2], [1, 2], [3, 4]]
        assert nc.Placement(()).count == 0
