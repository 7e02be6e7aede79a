"""Exhaustive-search reference oracle and its cross-checks."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import numacap as nc
from numacap.formulas import vmcap_kn_kk_rec
from numacap import oracle
from numacap.oracle import _cut_range, _cuts, _pack, _pair_statics
from conftest import (
    CQ3_SWAP,
    LARGE_PAIRS,
    SMALL_PAIRS,
    all_vectors,
    apply_vertex_map,
    bounded_sum_vectors,
    clear_bindings,
    random_vectors,
)


def expanded(name):
    return nc.expand_topology(nc.parse_topology(name))


def search_cuts(statics, n):
    """The search's packed cuts, built as pair_solver builds them."""
    return _cuts(statics.bound_terms[1:], statics.verts,
                 oracle.MAX_ORACLE_TOTAL_CAPACITY, n)


def plain(host, guest, caps):
    """(count, multiplicities) by the plain recursion, which shares no
    bound or memo with the solver."""
    statics = _pair_statics(host, guest)
    return oracle._plain_search(statics, nc.check_capacities(caps, host.vertex_count))


def usage_from_witness(host, guest, solution):
    used = [0] * host.vertex_count
    groups = nc.enumerate_embeddings(host, guest)
    for idx, mult in solution.multiplicities:
        assert mult > 0
        for v in groups[idx]:
            used[v - 1] += mult
    return used


class TestOracleBasics:
    def test_known_small_counts(self):
        assert nc.oracle_vmcap(expanded("c4"), expanded("k2"), (2, 5, 3, 1)).count == 5
        assert nc.oracle_vmcap(expanded("cq3"), expanded("k2"), (1,) * 8).count == 4
        assert nc.oracle_vmcap(expanded("cq3"), expanded("k2"), (3, 1, 1, 1, 1, 1, 1, 1)).count == 5
        assert nc.oracle_vmcap(expanded("cq3"), expanded("k2"), (5, 0, 0, 0, 0, 0, 5, 0)).count == 5
        assert nc.oracle_vmcap(expanded("l4"), expanded("k2"), (10, 1, 0, 0, 0, 0, 0, 0)).count == 1
        assert nc.oracle_vmcap(expanded("k4"), expanded("k3"), (10, 1, 1, 1)).count == 1
        assert nc.oracle_vmcap(expanded("q33"), expanded("c4"), (1, 2, 3, 4, 5, 6, 7, 8)).count == 8

    def test_zero_vector(self):
        sol = nc.oracle_vmcap(expanded("c4"), expanded("k2"), (0, 0, 0, 0))
        assert sol.count == 0
        assert sol.multiplicities == ()

    def test_single_embedding(self):
        sol = nc.oracle_vmcap(expanded("k4"), expanded("k3"), (1, 1, 1, 0))
        assert sol.count == 1
        assert sol.multiplicities == ((0, 1),)

    def test_guest_without_embeddings(self):
        sol = nc.oracle_vmcap(expanded("c4"), expanded("k3"), (5, 5, 5, 5))
        assert sol.count == 0

    @pytest.mark.parametrize("pname,gname,caps", [
        ("c4", "k3", (60,) * 4), ("k1_4", "c4", (50,) * 5),
        ("c4", "k3", (nc.MAX_CAPACITY,) * 4),
    ])
    def test_no_embedding_counts_zero_past_the_sum_limit(self, pname, gname, caps):
        assert nc.vmcap(pname, gname, caps) == (0, "oracle")
        sol = nc.oracle_vmcap(expanded(pname), expanded(gname), caps)
        assert (sol.count, sol.multiplicities) == (0, ())
        assert nc.place_vnuma(pname, gname, caps) == nc.Placement(())

    @pytest.mark.parametrize("pname,gname", SMALL_PAIRS + LARGE_PAIRS)
    def test_witness_accounts_for_count(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        n = host.vertex_count
        for caps in random_vectors(f"{pname}/{gname} witness", 25, n, 6):
            sol = nc.oracle_vmcap(host, guest, caps)
            assert sum(m for _, m in sol.multiplicities) == sol.count
            used = usage_from_witness(host, guest, sol)
            assert all(u <= c for u, c in zip(used, caps))

    def test_scale_limits(self):
        with pytest.raises(nc.ScaleLimitError) as info:
            nc.oracle_vmcap(nc.expand_topology(nc.kn(9)), expanded("k2"), (1,) * 9)
        assert str(info.value) == "oracle supports hosts up to 8 vertices"
        with pytest.raises(nc.ScaleLimitError) as info:
            nc.oracle_vmcap(expanded("c4"), expanded("k2"), (100, 100, 1, 0))
        assert str(info.value) == "oracle supports total capacity up to 200, got 201"

    def test_capacity_validation(self):
        with pytest.raises(nc.DimensionError):
            nc.oracle_vmcap(expanded("c4"), expanded("k2"), (1, 1))
        with pytest.raises(nc.CapacityError):
            nc.oracle_vmcap(expanded("c4"), expanded("k2"), (1, -1, 1, 1))


class TestMemoizationInvariants:
    @pytest.mark.parametrize("pname,gname", SMALL_PAIRS)
    def test_plain_search_agrees_exhaustively(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        for caps in all_vectors(host.vertex_count, 2):
            fast = nc.oracle_vmcap(host, guest, caps).count
            slow = plain(host, guest, caps)[0]
            assert fast == slow, caps

    @pytest.mark.parametrize("pname,gname", LARGE_PAIRS)
    def test_plain_search_agrees_on_samples(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        for caps in random_vectors(f"{pname}/{gname} plain", 100, 8, 3):
            fast = nc.oracle_vmcap(host, guest, caps).count
            slow = plain(host, guest, caps)[0]
            assert fast == slow, caps


class TestSymmetry:
    @given(st.lists(st.integers(0, 4), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_cross_linked_ladder_swap(self, caps):
        host, guest = expanded("cq3"), expanded("k2")
        image = apply_vertex_map(CQ3_SWAP, caps)
        assert (
            nc.oracle_vmcap(host, guest, tuple(caps)).count
            == nc.oracle_vmcap(host, guest, image).count
        )

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_cycle_rotation(self, caps):
        host, guest = expanded("c4"), expanded("k2")
        rotated = tuple(caps[1:] + caps[:1])
        assert (
            nc.oracle_vmcap(host, guest, tuple(caps)).count
            == nc.oracle_vmcap(host, guest, rotated).count
        )


class TestMatchingExpansion:
    def test_expansion_shape(self):
        g = nc.expand_to_simple_matching(expanded("c4"), (2, 1, 1, 1))
        assert g.vertex_count == 5
        assert g.edges == frozenset(
            {(1, 3), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)}
        )

    def test_unit_capacities_reproduce_host(self):
        host = expanded("l4")
        g = nc.expand_to_simple_matching(host, (1,) * 8)
        assert g.vertex_count == 8
        assert len(g.edges) == len(host.edges)

    def test_expansion_limits(self):
        with pytest.raises(nc.ScaleLimitError):
            nc.expand_to_simple_matching(expanded("c4"), (4, 4, 4, 1))
        with pytest.raises(nc.ScaleLimitError):
            nc.expand_to_simple_matching(expanded("c4"), (0, 0, 0, 0))

    def test_matching_sizes(self):
        assert nc.maximum_matching_size(expanded("c4")) == 2
        assert nc.maximum_matching_size(expanded("k4")) == 2
        assert nc.maximum_matching_size(expanded("cq3")) == 4
        assert nc.maximum_matching_size(nc.Graph(3, [(1, 2), (2, 3)])) == 1
        c5 = nc.Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert nc.maximum_matching_size(c5) == 2
        assert nc.maximum_matching_size(nc.Graph(2, [])) == 0

    @pytest.mark.parametrize("pname", ["c4", "k4"])
    def test_matching_equals_edge_guest_oracle(self, pname):
        host = expanded(pname)
        guest = expanded("k2")
        for caps in bounded_sum_vectors(4, 8):
            reference = nc.oracle_vmcap(host, guest, caps).count
            if sum(caps) == 0:
                assert reference == 0
                continue
            blown_up = nc.expand_to_simple_matching(host, caps)
            assert nc.maximum_matching_size(blown_up) == reference, caps


# five pairs with no closed form and five with one (cq3/k2, q33/c4 and
# the complete hosts k5/c4, k6/k2_3, k6/c4); the tests below call the
# solver directly, so all ten reach it
SOLVER_PAIRS = [
    ("l4", "c4"),
    ("k5", "c4"),
    ("k6", "k2_3"),
    ("k6", "c4"),
    ("star4", "k1_2"),
    ("cq3", "k1_2"),
    ("l4", "k1_2"),
    ("k2_3", "c4"),
    ("cq3", "k2"),
    ("q33", "c4"),
]


def root_terms(host, guest, caps):
    """Value of every dual-vertex term (W, D) at the root of the search:
    copies <= sum(W_v * b_v) // D."""
    statics = _pair_statics(host, guest)
    return [
        sum(w * caps[v] for v, w in weights) // div
        for weights, div in statics.bound_terms[0]
    ]


def closed_sets_by_definition(statics, idx):
    """(R, k - c(R)) for every closed R at idx, straight from the definition:
    c(R) is the most vertices one remaining embedding has in R, and R is
    closed when adding any alive vertex raises c(R)."""
    k = statics.k
    remaining = [set(vs) for vs in statics.verts[idx:]]
    alive = sorted(set().union(*remaining))

    def cover(r):
        return max((len(s & r) for s in remaining), default=0)

    out = set()
    for size in range(len(alive) + 1):
        for sub in combinations(alive, size):
            r = set(sub)
            c = cover(r)
            if c < k and all(cover(r | {v}) > c for v in alive if v not in r):
                out.add((sub, k - c))
    return out


def solve_exactly(rows, n):
    """The unique y with a.y = c for every (a, c) in rows, or None."""
    m = [[*a, c] for a, c in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = Fraction(m[r][col]) / m[col][col]
                m[r] = [x - f * y if y else x for x, y in zip(m[r], m[col])]
    return [Fraction(m[r][n]) / m[r][r] for r in range(n)]


def dual_vertices_by_definition(statics, n, idx):
    """(W, D) for every vertex of {y >= 0 : y(e) >= 1 for e in verts[idx:]}:
    each choice of n constraints taken tight, solved in Fraction, kept
    when the point is unique and meets every constraint."""
    rows = [([int(v == u) for v in range(n)], 0) for u in range(n)]
    rows += [([int(v in e) for v in range(n)], 1) for e in statics.verts[idx:]]
    found = set()
    for pick in combinations(rows, n):
        y = solve_exactly(pick, n)
        if y is None or any(
            sum(x for a, x in zip(row, y) if a) < c for row, c in rows
        ):
            continue
        div = math.lcm(*(x.denominator for x in y))
        weights = tuple((v, int(x * div)) for v, x in enumerate(y) if x)
        found.add((weights, div))
    return found


class TestSubsetCoverBound:
    @pytest.mark.parametrize(
        "pname,gname",
        # k2_3/k1_2 and k5/k3 have pairs of rays across a cut that pass
        # the zero-set size test but are not adjacent
        [("c4", "k2"), ("k4", "k3"), ("star4", "k1_2"), ("l4", "c4"),
         ("k2_3", "c4"), ("k6", "k2_3"), ("k2_3", "k1_2"), ("k5", "k3")],
    )
    def test_terms_are_the_dual_vertices(self, pname, gname):
        host = expanded(pname)
        statics = _pair_statics(host, expanded(gname))
        for idx in range(len(statics.verts) + 1):
            terms = statics.bound_terms[idx]
            assert len(set(terms)) == len(terms), idx
            assert set(terms) == dual_vertices_by_definition(
                statics, host.vertex_count, idx
            ), idx

    @pytest.mark.parametrize("pname,gname", SOLVER_PAIRS)
    def test_every_term_is_dual_feasible(self, pname, gname):
        statics = _pair_statics(expanded(pname), expanded(gname))
        for idx, terms in enumerate(statics.bound_terms):
            for weights, div in terms:
                assert div > 0 and all(w > 0 for _, w in weights)
                w = dict(weights)
                assert math.gcd(div, *w.values()) == 1, (idx, weights, div)
                for emb in statics.verts[idx:]:
                    assert sum(w.get(v, 0) for v in emb) >= div, (idx, emb)

    @pytest.mark.parametrize("pname,gname", SOLVER_PAIRS)
    def test_root_bound_is_at_most_the_subset_cover_bound(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        statics = _pair_statics(host, guest)
        closed = closed_sets_by_definition(statics, 0)
        alive = sorted(set().union(*statics.verts))
        for caps in random_vectors(f"{pname}/{gname} lp", 40, host.vertex_count, 30):
            total = sum(caps[v] for v in alive)
            cover = min(
                (total - sum(caps[v] for v in vs)) // div for vs, div in closed
            )
            assert min(root_terms(host, guest, caps)) <= cover, caps

    @pytest.mark.parametrize("pname,gname", SOLVER_PAIRS)
    def test_memoized_search_matches_plain_search(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        for caps in random_vectors(f"{pname}/{gname} cover", 60, host.vertex_count, 4):
            fast = nc.oracle_vmcap(host, guest, caps).count
            slow = plain(host, guest, caps)[0]
            assert fast == slow, caps

    @pytest.mark.parametrize("pname,gname", SOLVER_PAIRS)
    def test_every_root_term_bounds_the_optimum(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        for caps in random_vectors(f"{pname}/{gname} terms", 40, host.vertex_count, 20):
            best = nc.oracle_vmcap(host, guest, caps).count
            assert all(term >= best for term in root_terms(host, guest, caps)), caps

    @pytest.mark.parametrize(
        "n,gname",
        [(4, "k2"), (4, "k3"), (4, "k1_2"), (4, "c4"), (5, "k3"), (5, "c4"),
         (5, "k4"), (6, "k3"), (6, "c4"), (6, "k2_3"), (6, "k5")],
    )
    def test_root_bound_is_the_clique_formula(self, n, gname):
        host, guest = expanded(f"k{n}"), expanded(gname)
        k = guest.vertex_count
        for top in (6, 200, nc.MAX_CAPACITY):
            for caps in random_vectors(f"k{n}/{gname} clique {top}", 200, n, top):
                assert min(root_terms(host, guest, caps)) == vmcap_kn_kk_rec(
                    n, k, caps
                ), caps

    def test_hard_inputs_stay_small(self, monkeypatch):
        # the search under the earlier bound family stored more than two
        # million memo entries on the first five and did not finish the
        # third; the exact-value search under the subset-cover bound
        # stored 2.33 million on the sixth, whose root bound is 54, and the
        # target search under that bound read 66, 66 and 64 on the last
        # three and took 40 s and more on each
        cases = [
            ("cq3", "k1_2", (16, 1, 31, 5, 3, 9, 19, 36), 27),
            ("cq3", "k1_2", (2, 30, 66, 28, 45, 1, 16, 12), 43),
            ("cq3", "k1_2", (81, 29, 33, 40, 8, 4, 5, 0), 59),
            ("l4", "k1_2", (15, 19, 6, 9, 12, 78, 14, 7), 31),
            ("l4", "k1_2", (0, 18, 29, 11, 7, 31, 16, 48), 41),
            ("cq3", "k1_2", (35, 13, 21, 24, 7, 7, 13, 80), 51),
            ("cq3", "k1_2", (13, 11, 46, 16, 24, 29, 15, 46), 59),
            ("cq3", "k1_2", (18, 5, 55, 21, 31, 27, 14, 29), 60),
            ("cq3", "k1_2", (14, 47, 8, 15, 25, 50, 20, 21), 55),
        ]
        real = oracle._descend
        states = 0

        def spy(verts, cuts, start, need, memo):
            nonlocal states
            result = real(verts, cuts, start, need, memo)
            states += len(memo)
            return result

        monkeypatch.setattr(oracle, "_descend", spy)
        for pname, gname, caps, want in cases:
            host, guest = expanded(pname), expanded(gname)
            sol = nc.oracle_vmcap(host, guest, caps)
            assert sol.count == want, caps
            assert sum(m for _, m in sol.multiplicities) == want
            used = usage_from_witness(host, guest, sol)
            assert all(u <= c for u, c in zip(used, caps)), caps
        assert states <= 50_000
        # these need no search to trust: each witness meets the root bound,
        # the floor of the LP optimum
        cq3, path = expanded("cq3"), expanded("k1_2")
        for _, _, caps, want in cases[2:3] + cases[5:]:
            assert min(root_terms(cq3, path, caps)) == want, caps


def compositions(seed: str, count: int, total: int, parts: int):
    """Uniform random compositions of total into parts, drawn as
    capbench/gen.py draws the solver-fallback vectors."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
        out.append(tuple(b - a for a, b in zip((0, *cuts), (*cuts, total))))
    return out


def cut_by_terms(statics, idx, residual, need, terms=None):
    """find's (lo, hi) at idx, one dual-vertex term of bound_terms[idx + 1]
    (or of `terms`) at a time: each term (W, D) with slope
    s = W(verts[idx]) - D allows the t with W.residual - D * need >= t * s."""
    vs = statics.verts[idx]
    lo, hi = 0, min(need, *(residual[v] for v in vs))
    for weights, div in statics.bound_terms[idx + 1] if terms is None else terms:
        slope = sum(w for v, w in weights if v in vs) - div
        d = sum(w * residual[v] for v, w in weights) - div * need
        if slope > 0:
            hi = min(hi, d // slope)
        elif slope < 0:
            lo = max(lo, -(-d // slope))
        elif d < 0:
            hi = min(hi, -1)
    return lo, hi


class TestPackedCuts:
    # the ten solver pairs, plus q33/k1_3, k3_5/k1_3 and k8/k1_4, whose
    # table is the widest (163 terms at one index)
    @pytest.mark.parametrize(
        "pname,gname",
        SOLVER_PAIRS + [("q33", "k1_3"), ("k3_5", "k1_3"), ("k8", "k1_4")],
    )
    def test_packed_cut_is_the_per_term_cut(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        statics = _pair_statics(host, guest)
        n = host.vertex_count
        cuts = search_cuts(statics, n)
        top = nc.oracle.MAX_ORACLE_TOTAL_CAPACITY
        rng = random.Random(f"{pname}/{gname} packed")
        drawn = [
            compositions(f"{pname}/{gname} packed {total}", 1, total, n)[0]
            for total in range(0, top + 1, 8)
        ]
        for idx, vs in enumerate(statics.verts):
            one_node = [0] * n
            one_node[idx % n] = top
            spread = [0] * n
            for j, v in enumerate(vs):
                spread[v] = top // len(vs) + (j < top % len(vs))
            cases = [(tuple(spread), need) for need in range(1, top + 1)]
            cases += [(tuple(one_node), need) for need in (1, top // 2, top)]
            cases += [(b, rng.randint(1, top)) for b in rng.sample(drawn, 4)]
            for residual, need in cases:
                hi = min(need, *(residual[v] for v in vs))
                lo, hi = _cut_range(cuts[idx], residual, need, hi)
                want_lo, want_hi = cut_by_terms(statics, idx, residual, need)
                # once hi < lo no t passes, and lo may stop short
                assert (lo, hi) == (want_lo, want_hi) or (
                    hi < lo and want_hi < want_lo and hi == want_hi
                ), (idx, residual, need)
        # the search's root bound is floor_lp, the root terms' minimum
        root = oracle.floor_lp(host, guest)
        for caps in drawn:
            assert root(caps) == min(root_terms(host, guest, caps)), caps

    # q33/k2_3, and q33/k3_4, the lp_pairs() pair with the most root terms
    @pytest.mark.parametrize("pname,gname,terms", [
        ("q33", "k2_3", 131), ("q33", "k3_4", 247),
    ])
    def test_root_cut_is_the_per_term_cut_at_any_magnitude(self, pname, gname, terms):
        # the floor(LP) layout's packs: the root terms at every embedding,
        # in fields that hold any need up to sum(residual), which bounds
        # the layout's copies left; on q33/k3_4 a field one bit narrower
        # overflows at the all-MAX_CAPACITY vector
        host, guest = expanded(pname), expanded(gname)
        statics = _pair_statics(host, guest)
        n = host.vertex_count
        root = statics.bound_terms[0]
        assert len(root) == terms
        packs = _cuts([root] * len(statics.verts), statics.verts,
                      n * nc.MAX_CAPACITY, n)
        count = oracle.floor_lp(host, guest)
        rng = random.Random(f"{pname}/{gname} root cuts")
        top = nc.MAX_CAPACITY
        vectors = [(top,) * n] + [
            tuple(top if v == full else 0 for v in range(n)) for full in range(n)
        ] + [
            tuple(rng.randint(0, (1 << rng.randint(0, 32)) - 1) for _ in range(n))
            for _ in range(6)
        ]
        for b in vectors:
            total = sum(b)
            for need in {1, count(b), total // statics.k, total} - {0}:
                for idx, vs in enumerate(statics.verts):
                    hi = min(need, *(b[v] for v in vs))
                    lo, hi = _cut_range(packs[idx], b, need, hi)
                    want_lo, want_hi = cut_by_terms(statics, idx, b, need, root)
                    assert (lo, hi) == (want_lo, want_hi) or (
                        hi < lo and want_hi < want_lo and hi == want_hi
                    ), (idx, b, need)


FULL_RANGE_SUMS = (40, 80, 120, 160, 200)
# Counts on compositions(f"{host}/{guest} parity {total}", 10, total, n)
# for each sum above, every vector kept whatever its run time; one row per
# sum.  The first five pairs' rows come from the exact-value search that
# the target search replaced (it stored each node's optimum), the last
# four from the target search when it still evaluated its cuts one term
# at a time.
EXACT_VALUE_COUNTS = {
    ("l4", "c4"): (
        (6, 3, 4, 4, 2, 3, 3, 0, 4, 1),
        (10, 7, 7, 4, 0, 1, 5, 7, 10, 2),
        (9, 12, 9, 9, 12, 8, 14, 2, 2, 3),
        (24, 5, 16, 4, 5, 9, 7, 22, 9, 5),
        (8, 18, 10, 3, 17, 6, 16, 10, 18, 4),
    ),
    ("star4", "k1_2"): (
        (0, 12, 7, 11, 7, 1, 0, 4, 6, 9),
        (4, 19, 22, 24, 24, 11, 14, 19, 26, 20),
        (30, 26, 32, 15, 12, 22, 16, 15, 35, 28),
        (41, 1, 40, 46, 3, 34, 4, 20, 29, 23),
        (4, 10, 52, 23, 57, 1, 39, 37, 34, 17),
    ),
    ("cq3", "k1_2"): (
        (13, 10, 4, 10, 9, 11, 7, 11, 9, 10),
        (14, 23, 22, 15, 21, 16, 24, 12, 16, 13),
        (40, 26, 40, 14, 33, 37, 21, 32, 37, 20),
        (53, 46, 53, 48, 41, 53, 43, 51, 33, 53),
        (48, 66, 34, 66, 38, 58, 40, 52, 27, 66),
    ),
    ("l4", "k1_2"): (
        (11, 2, 10, 8, 8, 6, 9, 11, 5, 6),
        (23, 26, 15, 18, 21, 23, 19, 26, 26, 18),
        (35, 21, 30, 35, 25, 11, 12, 40, 34, 16),
        (53, 33, 32, 29, 53, 44, 44, 36, 24, 32),
        (31, 31, 39, 27, 38, 62, 65, 29, 55, 58),
    ),
    ("k2_3", "c4"): (
        (2, 4, 2, 3, 3, 5, 5, 7, 0, 7),
        (2, 0, 5, 6, 17, 3, 11, 2, 9, 15),
        (3, 17, 15, 16, 3, 14, 20, 5, 6, 3),
        (12, 15, 9, 24, 6, 26, 8, 9, 24, 29),
        (14, 1, 27, 7, 10, 17, 2, 5, 20, 31),
    ),
    ("q33", "k1_2"): (
        (13, 12, 13, 13, 12, 10, 10, 13, 12, 12),
        (26, 26, 26, 26, 26, 26, 26, 16, 17, 18),
        (19, 32, 38, 40, 40, 40, 21, 20, 30, 40),
        (38, 41, 53, 53, 53, 53, 51, 53, 39, 51),
        (66, 66, 66, 60, 66, 59, 66, 63, 35, 62),
    ),
    ("q33", "k2_3"): (
        (7, 1, 6, 7, 3, 3, 0, 3, 5, 4),
        (14, 8, 10, 8, 12, 12, 6, 14, 7, 8),
        (12, 12, 20, 14, 15, 22, 18, 21, 11, 12),
        (18, 26, 24, 13, 15, 14, 15, 19, 27, 18),
        (22, 20, 21, 24, 13, 21, 22, 14, 32, 22),
    ),
    ("k3_5", "k1_2"): (
        (5, 11, 13, 6, 9, 9, 13, 13, 13, 13),
        (26, 26, 26, 26, 13, 26, 24, 24, 26, 26),
        (40, 40, 11, 31, 36, 8, 12, 39, 31, 40),
        (42, 33, 53, 48, 44, 46, 53, 41, 51, 47),
        (64, 25, 60, 46, 66, 58, 55, 40, 16, 35),
    ),
    ("cq3", "k1_3"): (
        (7, 6, 3, 7, 5, 5, 3, 6, 6, 5),
        (14, 6, 10, 11, 14, 5, 10, 15, 7, 8),
        (16, 11, 6, 2, 17, 16, 17, 20, 22, 11),
        (13, 14, 26, 24, 26, 38, 17, 33, 12, 26),
        (12, 38, 25, 40, 24, 13, 17, 28, 39, 13),
    ),
}


class TestFullRange:
    # the nine pairs have no closed form, so vmcap and place_vnuma answer
    # through the solver binding and must agree with the solver itself
    @pytest.mark.parametrize("pname,gname", list(EXACT_VALUE_COUNTS))
    def test_counts_match_the_exact_value_search(self, pname, gname):
        host, guest = expanded(pname), expanded(gname)
        n = host.vertex_count
        rows = EXACT_VALUE_COUNTS[pname, gname]
        assert nc.closed_form_evaluator(pname, gname) is None
        for total, counts in zip(FULL_RANGE_SUMS, rows):
            vectors = compositions(f"{pname}/{gname} parity {total}", 10, total, n)
            for caps, want in zip(vectors, counts):
                sol = nc.oracle_vmcap(host, guest, caps)
                assert sol.count == want, caps
                assert sum(m for _, m in sol.multiplicities) == want, caps
                indices = [idx for idx, _ in sol.multiplicities]
                assert indices == sorted(set(indices)), caps
                used = usage_from_witness(host, guest, sol)
                assert all(u <= c for u, c in zip(used, caps)), caps
                assert nc.vmcap(pname, gname, caps) == nc.VmcapResult(want, "oracle")
                placement = nc.place_vnuma(pname, gname, caps)
                nc.verify_placement(host, guest, caps, placement)
                assert placement.count == want, caps

    def test_lp_bound_one_above_the_count(self):
        # floor(LP) is 30 here, so the search must refute 30 before 29 packs
        host, guest = expanded("q33"), expanded("k1_3")
        caps = (15, 10, 20, 16, 5, 11, 27, 16)
        assert min(root_terms(host, guest, caps)) == 30
        # the first branch from 30 stops short, and the memo learns where
        memo = {}
        statics = _pair_statics(host, guest)
        cuts = search_cuts(statics, host.vertex_count)
        assert oracle._descend(statics.verts, cuts, caps, 30, memo)[0] == 29
        assert memo
        sol = nc.oracle_vmcap(host, guest, caps)
        assert sol.count == 29
        assert sum(m for _, m in sol.multiplicities) == 29
        used = usage_from_witness(host, guest, sol)
        assert all(u <= c for u, c in zip(used, caps))

    # exact counts where floor(LP) is one above the count, so cq3/k1_3
    # is in oracle.LP_GAPS; the counts are the plain search's
    @pytest.mark.parametrize("caps,count,lp", [
        ((1,) * 8, 1, 2),
        ((2, 2, 2, 2, 1, 1, 1, 1), 2, 3),
    ])
    def test_cq3_k1_3_gap_rows(self, caps, count, lp):
        host, guest = expanded("cq3"), expanded("k1_3")
        assert plain(host, guest, caps)[0] == count
        assert min(root_terms(host, guest, caps)) == lp
        assert nc.oracle_vmcap(host, guest, caps).count == count
        assert nc.vmcap("cq3", "k1_3", caps) == nc.VmcapResult(count, "oracle")

    # exact counts of two gap pairs at the search's sum wall, where the
    # memo keys pack the largest entries; cq3/star3's 49 is the plain
    # search's, which takes over a minute there, so only k3_3/star3 is
    # checked against it here
    @pytest.mark.parametrize("pname,caps,count,lp,checked", [
        ("cq3", (25,) * 8, 49, 50, False),
        ("k3_3", (34, 33, 33, 34, 33, 33), 50, 50, True),
    ], ids=["cq3_star3", "k3_3_star3"])
    def test_gap_rows_at_the_sum_wall(self, pname, caps, count, lp, checked):
        host, guest = expanded(pname), expanded("star3")
        assert sum(caps) == oracle.MAX_ORACLE_TOTAL_CAPACITY
        assert min(root_terms(host, guest, caps)) == lp
        if checked:
            assert plain(host, guest, caps)[0] == count
        assert nc.vmcap(pname, "star3", caps) == nc.VmcapResult(count, "oracle")
        placement = nc.place_vnuma(pname, "star3", caps)
        nc.verify_placement(host, guest, caps, placement)
        assert placement.count == count
        over = (caps[0] + 1,) + caps[1:]
        with pytest.raises(nc.ScaleLimitError) as info:
            nc.vmcap(pname, "star3", over)
        assert str(info.value) == "oracle supports total capacity up to 200, got 201"


# capbench's solver-fallback pool
POOL_PAIRS = [
    ("l4", "c4"), ("k5", "c4"), ("k6", "k2_3"), ("k6", "c4"),
    ("star4", "k1_2"), ("cq3", "k1_2"), ("l4", "k1_2"), ("k2_3", "c4"),
    ("c4", "k2_2"), ("q33", "k2_2"),
]


# the pool's five pairs with no formula, all counted by floor(LP)
FLOOR_LP_POOL = [
    ("l4", "c4"), ("star4", "k1_2"), ("cq3", "k1_2"), ("l4", "k1_2"), ("k2_3", "c4"),
]


def test_floor_lp_pairs_build_no_search_state(monkeypatch):
    # a fresh solver cache, and every pair bound anew, so each pair's
    # first count and witness are watched: neither builds a solve
    solvers = lru_cache(maxsize=256)(oracle.pair_solver.__wrapped__)
    monkeypatch.setattr(oracle, "pair_solver", solvers)
    clear_bindings()
    for pname, gname in FLOOR_LP_POOL:
        host, guest = expanded(pname), expanded(gname)
        caps = compositions(f"{pname}/{gname} no search", 1, 120, host.vertex_count)[0]
        count = oracle.floor_lp(host, guest)(caps)
        assert nc.vmcap(pname, gname, caps) == nc.VmcapResult(count, "oracle")
        placement = nc.place_vnuma(pname, gname, caps)
        nc.verify_placement(host, guest, caps, placement)
        assert placement.count == count
        assert _pair_statics(host, guest)._fields == ("verts", "bound_terms", "k")
    assert solvers.cache_info().currsize == 0


def gap_vectors(count):
    """k3_5/k1_3 vectors, entries 0..6, on which the search's first
    branch from floor(LP) fails, so it stores memo entries."""
    host, guest = expanded("k3_5"), expanded("k1_3")
    statics, root = _pair_statics(host, guest), oracle.floor_lp(host, guest)
    cuts = search_cuts(statics, host.vertex_count)
    out = []
    for caps in random_vectors("k3_5/k1_3 gap", 2000, 8, 6):
        memo = {}
        oracle._descend(statics.verts, cuts, caps, root(caps), memo)
        if memo:
            out.append(caps)
            if len(out) == count:
                return out
    raise AssertionError(f"found {len(out)} gap vectors, wanted {count}")


def dive(verts, cuts, start, need):
    """find's first branch alone: at each index the top of _cut_range,
    with no memo and no backtracking.  The (index, multiplicity) pairs
    once `need` copies are placed, or None where a range is empty."""
    residual, path = list(start), []
    for idx, vs in enumerate(verts):
        hi = min([need] + [residual[v] for v in vs])
        if idx == len(verts) - 1:
            # the last embedding takes every copy left or fails
            return path + [(idx, need)] if hi == need else None
        if not hi:
            continue
        lo, hi = _cut_range(cuts[idx], residual, need, hi)
        if hi < lo:
            return None
        if hi:
            path.append((idx, hi))
            if hi == need:
                return path
            need -= hi
            for v in vs:
                residual[v] -= hi
    return None


class TestDive:
    @pytest.mark.parametrize(
        "pname,gname,label,per_sum",
        [(p, g, "pool", 4) for p, g in POOL_PAIRS]
        + [(p, g, "parity", 10) for p, g in EXACT_VALUE_COUNTS],
    )
    def test_search_alone_gives_the_dive_answer(self, pname, gname, label, per_sum):
        # the dive is find's first branch: where it places floor(LP)
        # copies, the search returns its count and multiplicities, and
        # every answer is vmcap's count; the parity vectors are those of
        # EXACT_VALUE_COUNTS
        host, guest = expanded(pname), expanded(gname)
        statics, root = _pair_statics(host, guest), oracle.floor_lp(host, guest)
        cuts = search_cuts(statics, host.vertex_count)
        dived = 0
        for caps in [
            caps
            for total in FULL_RANGE_SUMS
            for caps in compositions(f"{pname}/{gname} {label} {total}", per_sum,
                                     total, host.vertex_count)
        ]:
            answer = nc.oracle_vmcap(host, guest, caps)
            need = root(caps)
            path = dive(statics.verts, cuts, caps, need) if need else []
            if path is not None:
                dived += 1
                assert answer == nc.OracleSolution(need, tuple(path)), caps
            assert nc.vmcap(pname, gname, caps).count == answer.count, caps
        assert dived
    def test_memo_is_empty_when_each_call_starts(self, monkeypatch):
        gaps = gap_vectors(20)
        nc.vmcap("k3_5", "k1_3", gaps[0])
        real = oracle._descend
        entries, learned = [], []

        def spy(verts, cuts, start, need, memo):
            entries.append(len(memo))
            result = real(verts, cuts, start, need, memo)
            learned.append(len(memo))
            return result

        monkeypatch.setattr(oracle, "_descend", spy)
        for i in range(1000):
            nc.vmcap("k3_5", "k1_3", gaps[i % len(gaps)])
        assert entries == [0] * 1000
        # each call's search did store entries, so a shared memo would show
        assert min(learned) > 0

    def test_last_embedding_refuses_a_short_residual(self):
        # every cut made the subset-cover term, W = 1 on every node and
        # D = k: valid but looser than the LP terms, and constant along
        # find's first branch (each copy takes k units of residual and one
        # of need), so that branch never turns back before the last
        # embedding, whose own cut is the only one that can refuse
        host, guest = expanded("cq3"), expanded("k1_2")
        exact = _pair_statics(host, guest)
        n, k = host.vertex_count, exact.k
        cuts = search_cuts(exact, n)
        width = cuts[0][6]  # _pack's field width
        root = oracle.floor_lp(host, guest)
        cover = ((tuple((v, 1) for v in range(n)), k),)
        loose = tuple(_pack(cover, [0], width, n) for _ in cuts)
        refused = 0
        for caps in random_vectors("cq3/k1_2 loose cuts", 300, n, 4):
            need = root(caps)
            if not need:
                continue
            want = nc.oracle_vmcap(host, guest, caps).count
            memo = {}
            count, mults = oracle._descend(exact.verts, loose, caps, need, memo)
            refused += bool(memo)
            assert count == want, caps
            sol = nc.OracleSolution(count, mults)
            assert sum(m for _, m in mults) == count, caps
            used = usage_from_witness(host, guest, sol)
            assert all(u <= c for u, c in zip(used, caps)), caps
        assert refused >= 100
