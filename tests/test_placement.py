"""Witness constructions behind each closed-form count."""

import json
import pickle
import random
import tracemalloc
from bisect import bisect_right
from functools import partial

import pytest

import numacap as nc
from numacap import cli, formulas, oracle
from numacap.placement import MAX_EXPANDED_GROUPS, greedy, wrap
from numacap.topology import every_id
from conftest import (
    clear_bindings,
    all_vectors,
    check_pair_witness,
    count_graphs,
    full_range_vectors,
    random_vectors,
)


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
        # one run per lane change, not one group per copy
        assert len(pl.runs) <= 40


def bisect_layout(n, k, b):
    """Runs of the clique layout that finds each lane's node at each cut
    by bisecting the nodes' run ends: the reference that place_kn_kk's
    offset sweep must match run for run."""
    slots = nc.vmcap_kn_kk_rec(n, k, b)
    if not slots:
        return ()
    cells = k * slots
    labels, ends = [], []
    filled = 0
    for v, c in enumerate(b, 1):
        if c and filled < cells:
            filled = min(filled + min(c, slots), cells)
            labels.append(v)
            ends.append(filled)
    cuts = sorted({0, *[end % slots for end in ends]})
    return tuple(
        (tuple(labels[bisect_right(ends, cell)]
               for cell in range(lo, cells, slots)), hi - lo)
        for lo, hi in zip(cuts, cuts[1:] + [slots])
    )


# each registry entry that names sides, with the instances its sweeps
# run, then family hosts past the solver's and the enumeration's limits
SIDES_CASES = [
    pytest.param(pair, host, guest, id=f"{host}/{guest}")
    for pair in (*formulas.PAIRS.values(), formulas.SAME_SHAPE, formulas.NONE_FIT)
    if pair.sides is not None
    for host, guest, _ in pair.instances
] + [
    pytest.param(formulas.PAIRS[key], host, guest, id=f"{host}/{guest}")
    for key, host, guest in (
        (("km_n", nc.K2), "k7_7", "k2"), (("km_n", nc.K2), "k3_9", "k2"),
        (("star", nc.K2), "star12", "k2"), (("kn", None), "k13", "k4"),
        (("kn", None), "k9", "c4"),
    )
] + [pytest.param(formulas.SAME_SHAPE, "c4", "k2_2", id="c4/k2_2")]


def bound_sides(pair, host, guest):
    """(count, sides) as the binding takes them from the entry."""
    pid = nc.parse_topology(host)
    args = () if pair.params is None else pair.params(
        pid, nc.canonical_id(nc.parse_topology(guest)))
    return partial(pair.count, *args), pair.sides(*args)


class TestWrap:
    """Every complete and complete-bipartite witness is one wrap-around
    layout of its count."""

    @pytest.mark.parametrize("pair,host,guest", SIDES_CASES)
    def test_count_is_the_least_side_clique_count(self, pair, host, guest):
        # what makes the layout exact: each side fills its lanes at the count
        count, sides = bound_sides(pair, host, guest)
        labels = [v for side, _ in sides for v in side]
        assert len(set(labels)) == len(labels)
        n = nc.parse_topology(host).vertex_count
        for b in full_range_vectors(f"{host}/{guest} sides", n, 20):
            want = min((formulas._cliques(len(side), lanes, [b[v - 1] for v in side])
                        for side, lanes in sides), default=0)
            assert count(b) == want, b

    @pytest.mark.parametrize("pair,host,guest", SIDES_CASES)
    def test_one_copy_past_the_count_is_refused(self, pair, host, guest):
        count, sides = bound_sides(pair, host, guest)
        n = nc.parse_topology(host).vertex_count
        for b in full_range_vectors(f"{host}/{guest} past", n, 5):
            assert wrap(sides, count(b), b).count == count(b)
            with pytest.raises(nc.PlacementError, match="overclaims"):
                wrap(sides, count(b) + 1, b)

    @pytest.mark.parametrize("n,k", [
        (2, 2), (3, 1), (4, 2), (4, 3), (5, 3), (6, 2), (6, 4), (7, 5),
        (8, 4), (8, 8), (13, 4), (40, 20),
    ])
    def test_clique_runs_match_the_bisected_layout(self, n, k):
        for caps in peel_vectors(f"k{n}/k{k} layout", n, 60):
            assert nc.place_kn_kk(n, k, caps).runs == bisect_layout(n, k, caps), caps


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


# every registry instance, and c4's own shape under its other guest id
INSTANCE_PAIRS = sorted({(host, guest) for host, guest, _ in formulas.INSTANCES}
                        | {("c4", "k2_2")})
# those, pairs closed through canonical guest ids or the same-shape rule,
# and guests that only the complete-host rule covers
WITNESS_PAIRS = sorted(
    set(INSTANCE_PAIRS)
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
            printed = nc.Placement.from_runs(doc["runs"])
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
    """Witnesses bound to the pair's count: one past it is refused, and a
    host past the enumeration limit builds no graph."""

    def test_overclaiming_count_is_caught(self, capsys, patch_formula):
        caps = (3, 1, 4, 1, 5, 9, 2, 6)
        for pname, gname, real in (("l4", "k2", formulas.vmcap_l4_k2),
                                   ("cq3", "k2", formulas.vmcap_cq3_k2),
                                   ("cq3", "c4", formulas.vmcap_cq3_c4)):
            patch_formula(pname, gname, lambda b, real=real: real(b) + 1)
            with pytest.raises(nc.PlacementError, match="overclaims"):
                nc.place_vnuma(pname, gname, caps)
            code = cli.main(["place", "--topology", pname, "--vnuma", gname,
                             "--caps", ",".join(map(str, caps))])
            assert code == 2
            assert "overclaims" in capsys.readouterr().err

    def test_host_past_the_enumeration_limit(self, monkeypatch):
        # laid out by wrap-around, with no graph built
        clear_bindings()
        built = count_graphs(monkeypatch)
        for caps in ((1,) * 14, (5, 0, 3, 2, 7, 1, 4) + (9, 2, 0, 6, 1, 3, 8)):
            pl = nc.place_vnuma("k7_7", "k2", caps)
            assert pl.count == nc.vmcap("k7_7", "k2", caps).count
            check_pair_witness(pl, 7, caps)
        assert built == [0]


# each greedy pair and the groups its layout may emit: cq3/k2 sends its
# offset over a crossing edge first
GREEDY_GROUPS = {
    ("l4", "k2"): formulas.LADDER_ORDER,
    ("cq3", "k2"): ((1, 7), (2, 8)) + formulas.LADDER_ORDER,
    ("cq3", "c4"): formulas.CQ3_C4_ORDER,
}
GREEDY_PAIRS = sorted(GREEDY_GROUPS)


class TestGreedy:
    """The ladder's and crossed cube's witnesses: one pass over an order."""

    @pytest.mark.parametrize("pname,gname", GREEDY_PAIRS)
    def test_count_is_reached_everywhere(self, pname, gname):
        vectors = list(all_vectors(8, 3)) + full_range_vectors(
            f"{pname}/{gname} greedy", 8, 200)
        for caps in vectors:
            assert (nc.place_vnuma(pname, gname, caps).count
                    == nc.vmcap(pname, gname, caps).count), caps

    @pytest.mark.parametrize("pname,gname", GREEDY_PAIRS)
    def test_witness_is_valid_and_canonical(self, pname, gname):
        # with (0, ...) or a balanced vector the cq3/k2 offset clamps to
        # 0, and no 0-copy crossing run may be emitted
        vectors = random_vectors(f"{pname}/{gname} canonical", 300, 8, 40) + [
            (0, 1, 5, 1, 5, 1, 5, 1), (1, 0, 1, 5, 1, 5, 1, 5), (2,) * 8,
            (5, 5, 0, 0, 0, 0, 0, 0), (9, 0, 0, 0, 0, 0, 0, 9), (0,) * 8,
        ]
        allowed = set(GREEDY_GROUPS[pname, gname])
        for caps in vectors:
            pl = nc.place_vnuma(pname, gname, caps)
            check(pname, gname, caps, pl)
            assert nc.Placement.from_runs(pl.runs) == pl, caps
            assert {group for group, _ in pl.runs} <= allowed, caps

    @pytest.mark.parametrize("pname,gname", GREEDY_PAIRS)
    def test_one_copy_past_the_count_is_refused(self, pname, gname):
        entry = formulas.PAIRS[pname, nc.parse_topology(gname)]

        def layout(caps, want):
            if entry.split is None:
                return greedy(entry.order, caps, want)
            return greedy(entry.order, *entry.split(caps, want))

        for caps in full_range_vectors(f"{pname}/{gname} past", 8, 20):
            want = nc.vmcap(pname, gname, caps).count
            assert layout(caps, want).count == want
            with pytest.raises(nc.PlacementError, match="overclaims"):
                layout(caps, want + 1)

    @pytest.mark.parametrize("pname,gname", GREEDY_PAIRS)
    def test_groups_are_embeddings(self, pname, gname):
        groups = GREEDY_GROUPS[pname, gname]
        assert len(set(groups)) == len(groups)
        embeddings = set(nc.enumerate_embeddings(expanded(pname), expanded(gname)))
        assert set(groups) <= embeddings

    def test_runs_follow_on_from_given_runs(self):
        pl = greedy(((1, 2), (3, 4)), (2, 1, 5, 5), 4, (((2, 3), 1),))
        assert pl.runs == (((2, 3), 1), ((1, 2), 1), ((3, 4), 3))
        with pytest.raises(nc.PlacementError, match="1 of 2 copies"):
            greedy(((1, 2),), (1, 1), 2)


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


TOP = 2**32 - 1
# entries of 9 to 32 bits; a host of n nodes takes the first n
MIXED = (511, 70_001, 2**20 + 3, TOP, 1_000, 2**24 + 7, 300, 2**31 + 5)


class TestRunLength:
    """A placement costs time and memory per distinct group, not per copy."""

    @pytest.mark.parametrize("pname,gname", INSTANCE_PAIRS)
    def test_every_instance_at_the_top_entries(self, pname, gname):
        n = nc.parse_topology(pname).vertex_count
        m = len(nc.enumerate_embeddings(expanded(pname), expanded(gname)))
        for caps in ((TOP,) * n, MIXED[:n],
                     *full_range_vectors(f"{pname}/{gname} top", n, 5)):
            pl = nc.place_vnuma(pname, gname, caps)
            check(pname, gname, caps, pl)
            assert pl.count == nc.vmcap(pname, gname, caps).count, caps
            assert len(pl.runs) <= m, caps

    def test_peak_memory_does_not_follow_the_entries(self):
        caps = (TOP,) * 4
        nc.place_vnuma("k4", "k2", (1,) * 4)  # resolve the pair first
        tracemalloc.start()
        try:
            pl = nc.place_vnuma("k4", "k2", caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pl.count == nc.vmcap("k4", "k2", caps).count == 2 * TOP
        assert peak < 2**20

    def test_constructors_agree(self):
        groups = [(1, 2), (1, 2), (3, 4), (1, 2), (1, 2), (1, 2)]
        folded = nc.Placement(groups)
        runs = nc.Placement.from_runs(
            [([1, 2], 1), ((1, 2), 1), ((3, 4), 1), ((1, 2), 3)]
        )
        assert folded == runs
        assert folded.runs == runs.runs == (((1, 2), 2), ((3, 4), 1), ((1, 2), 3))
        assert hash(folded) == hash(runs)
        assert pickle.loads(pickle.dumps(runs)) == folded
        assert folded.matches == tuple(groups) and folded.count == 6
        assert nc.Placement(()) == nc.Placement.from_runs([])

    @pytest.mark.parametrize("copies", [0, -1, 1.0, True])
    def test_run_copies_are_positive_ints(self, copies):
        with pytest.raises(nc.PlacementError, match="positive int"):
            nc.Placement.from_runs([((1, 2), copies)])

    def test_expansion_past_the_limit(self):
        pl = nc.Placement.from_runs([((1, 2), MAX_EXPANDED_GROUPS), ((3, 4), 1)])
        assert pl.count == MAX_EXPANDED_GROUPS + 1
        for expand in (lambda: pl.as_lists(), lambda: pl.matches):
            with pytest.raises(nc.ScaleLimitError,
                               match=f"MAX_EXPANDED_GROUPS = {MAX_EXPANDED_GROUPS}"):
                expand()

    def test_verification_reads_each_run_once(self):
        # one run over a node's budget is caught by its copies
        pl = nc.Placement.from_runs([((1, 2), TOP), ((3, 4), TOP)])
        check("c4", "k2", (TOP,) * 4, pl)
        with pytest.raises(nc.PlacementError, match="node 2 used"):
            check("c4", "k2", (TOP, TOP - 1, TOP, TOP), pl)


def bisection_peel(count, embeddings, b):
    """Runs peeled from an exact count by probing it: for each embedding
    e in turn, the most copies t with count(r - t·e) == count(r) - t, r
    the residual, found by probing t at its top and bisecting below it.
    The reference the one-pass floor(LP) layout must match run for run.
    """
    residual = list(b)
    left = count(residual)

    def fits(e, t):
        trial = residual[:]
        for v in e:
            trial[v - 1] -= t
        return count(trial) == left - t

    runs = []
    for e in embeddings:
        if not left:
            break
        top = min([left] + [residual[v - 1] for v in e])
        if not top:
            continue
        if fits(e, top):
            t = top
        else:
            t, bad = 0, top
            while bad - t > 1:
                mid = (t + bad) // 2
                if fits(e, mid):
                    t = mid
                else:
                    bad = mid
            if not t:
                continue
        runs.append((e, t))
        for v in e:
            residual[v - 1] -= t
        left -= t
    if left:
        raise nc.PlacementError("count overclaims")
    return tuple(runs)


def peel_vectors(seed, n, count=40):
    """Zeros, entries to 300 and entries to 2^32-1, mixed in each vector."""
    rng = random.Random(seed)
    return [
        tuple(rng.choice((0, rng.randint(0, 300), rng.randint(0, TOP)))
              for _ in range(n))
        for _ in range(count)
    ]


def solver_spelling(host, guest):
    """An id of host's graph that binds the solver for guest: the host
    itself, or another spelling where the host has a formula (k4_4/c4
    where q33/c4 has one)."""
    return next(pid for pid in [host, *every_id(oracle.MAX_ORACLE_VERTICES)]
                if nc.canonical_id(pid) == host and formulas._entry(pid, guest) is None)


class TestFloorLpLayout:
    """The witness of every pair counted by floor(LP): one pass over the
    embeddings, each capped by the root LP terms."""

    def test_runs_match_the_bisection_peel(self):
        for host, guest in formulas.lp_pairs():
            pid = solver_spelling(host, guest)
            h, g = nc.expand_topology(pid), nc.expand_topology(guest)
            count = oracle.floor_lp(h, g)
            embeddings = nc.enumerate_embeddings(h, g)
            n = pid.vertex_count
            for caps in peel_vectors(f"{pid}/{guest} layout", n, 12) + [
                (0,) * n, (TOP,) * n,
            ]:
                runs = nc.place_vnuma(pid, guest, caps).runs
                assert runs == bisection_peel(count, embeddings, caps), (pid, caps)

    def test_gap_pair_overclaims(self):
        # cq3/star3's floor(LP) is one above its count at each vector its
        # proof refuses, so the layout leaves a copy over
        layout = oracle.floor_lp_layout(expanded("cq3"), expanded("star3"))
        for caps in ((1,) * 8, (1, 1, 1, 1, 2, 2, 2, 2), (1, 1, 2, 2, 2, 2, 1, 1),
                     (2, 2, 1, 1, 1, 1, 2, 2), (2, 2, 2, 2, 1, 1, 1, 1)):
            with pytest.raises(nc.PlacementError, match="overclaims"):
                layout(caps)
            assert nc.place_vnuma("cq3", "star3", caps).count == (
                nc.vmcap("cq3", "star3", caps).count)


def composition(seed, n, total):
    """A seeded vector of n entries that sum to total."""
    rng = random.Random(seed)
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


# every id pair that spells a graph pair of oracle.LP_GAPS
GAP_SPELLINGS = [(h, g) for h in every_id(oracle.MAX_ORACLE_VERTICES)
                 for g in every_id(oracle.MAX_ORACLE_VERTICES)
                 if (nc.canonical_id(h), nc.canonical_id(g)) in oracle.LP_GAPS]


class TestSolverBinding:
    """A pair with no formula takes its count and its witness from one
    binding, oracle.bind, whichever way its ids are spelt."""

    def test_gap_spellings_place_their_count(self):
        assert len(GAP_SPELLINGS) == 34
        for pid, gid in GAP_SPELLINGS:
            n = pid.vertex_count
            for caps in ((1,) * n, composition(f"{pid}/{gid} sum 40", n, 40)):
                result = nc.vmcap(pid, gid, caps)
                assert result.via == "oracle", (pid, gid)
                placement = nc.place_vnuma(pid, gid, caps)
                assert placement.count == result.count, (pid, gid, caps)
                nc.verify_placement(nc.expand_topology(pid), nc.expand_topology(gid),
                                    caps, placement)
            caps = composition(f"{pid}/{gid} sum 201", n, 201)
            for front_end in (nc.vmcap, nc.place_vnuma):
                with pytest.raises(nc.ScaleLimitError) as info:
                    front_end(pid, gid, caps)
                assert str(info.value) == (
                    "oracle supports total capacity up to 200, got 201")

    def test_star_spellings_place_the_same_count_at_full_range(self):
        # star3/star2 is counted by floor(LP), with no sum limit
        caps = (TOP,) * 4
        counts = {nc.vmcap(pname, "k1_2", caps) for pname in ("star3", "k1_3", "k3_1")}
        assert counts == {(TOP, "oracle")}
        for pname in ("star3", "k1_3", "k3_1"):
            placement = nc.place_vnuma(pname, "k1_2", caps)
            assert placement.count == TOP, pname
            check(pname, "k1_2", caps, placement)


class TestShortfallPeel:
    """An inexact count is laid out in full or refused, never short, and
    read once."""

    @pytest.mark.parametrize("inexact", [
        lambda b: 999,
        lambda b: nc.vmcap_cq3_k2(b) + 1,
    ], ids=["constant", "plus-one"])
    def test_inexact_count_overclaims_within_the_bound(self, inexact, patch_formula):
        calls = []

        def counted(b):
            assert min(b) >= 0, b
            calls.append(b)
            return inexact(b)

        patch_formula("cq3", "k2", counted)
        refused = 0
        for caps in peel_vectors("cq3/k2 inexact", 8, 20) + [(0,) * 8]:
            calls.clear()
            if inexact(caps) > nc.vmcap_cq3_k2(caps):
                with pytest.raises(nc.PlacementError, match="overclaims"):
                    nc.place_vnuma("cq3", "k2", caps)
                refused += 1
            else:
                # 999 under a larger count: the pass places the copies claimed
                pl = nc.place_vnuma("cq3", "k2", caps)
                assert pl.count == inexact(caps), caps
                nc.verify_placement(expanded("cq3"), expanded("k2"), caps, pl)
            # cq3/k2's greedy pass reads the count once, probing no residual
            assert calls == [caps], caps
        assert refused >= 2
