"""Acceptance sweep: every guarantee the package makes, checked end to end.

Each test prints a single [criterion N] PASS or FAIL line; run with
`pytest -s tests/test_acceptance.py` to stream them.  The module is also
runnable directly:

    python3 tests/test_acceptance.py
"""

import random
import time

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numacap as nc
from conftest import (
    LARGE_PAIRS,
    SMALL_PAIRS,
    all_vectors,
    bounded_sum_vectors,
    closed_form,
    random_vectors,
)

_RESULTS = []


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL"
              f" ({time.perf_counter() - start:.1f}s)")
        _RESULTS.append((number, False))
        raise
    print(f"[criterion {number}] {label}: PASS"
          f" ({time.perf_counter() - start:.1f}s)")
    _RESULTS.append((number, True))


def expanded(name):
    return nc.expand_topology(nc.parse_topology(name))


def sweep_mismatches(pname, gname, vectors):
    """Count closed-form-vs-solver disagreements over an iterable."""
    host, guest = expanded(pname), expanded(gname)
    fn = closed_form(pname, gname)
    bad = 0
    for caps in vectors:
        if fn(caps) != nc.oracle_vmcap(host, guest, caps).count:
            bad += 1
    return bad


def test_criterion_1_small_hosts_exhaustive():
    with criterion(1, "4-node hosts: closed form == solver on [0..5]^4"):
        start = time.perf_counter()
        bad = 0
        for pname, gname in SMALL_PAIRS:
            bad += sweep_mismatches(pname, gname, all_vectors(4, 5))
        elapsed = time.perf_counter() - start
        assert bad == 0
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_large_hosts_exhaustive_plus_fuzz():
    with criterion(2, "8-node hosts: exhaustive [0..2]^8 + 10k fuzz each"):
        start = time.perf_counter()
        bad = 0
        for pname, gname in LARGE_PAIRS:
            bad += sweep_mismatches(pname, gname, all_vectors(8, 2))
            bad += sweep_mismatches(
                pname,
                gname,
                random_vectors(f"{pname}/{gname} acceptance fuzz", 10_000, 8, 20),
            )
        elapsed = time.perf_counter() - start
        assert bad == 0
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_3_clique_formula_agreement():
    with criterion(3, "cliques: recursion == prefix-mean min == solver"):
        bad = 0
        for n in range(1, 6):
            host = expanded(f"k{n}")
            for k in range(1, n + 1):
                guest = expanded(f"k{k}") if k >= 2 else None
                for caps in all_vectors(n, 4):
                    rec = nc.vmcap_kn_kk_rec(n, k, caps)
                    flat = nc.vmcap_kn_kk_min(n, k, caps)
                    # a single-node guest just fills every slot
                    if guest is None:
                        want = sum(caps)
                    else:
                        want = nc.oracle_vmcap(host, guest, caps).count
                    if not rec == flat == want:
                        bad += 1
        rng = random.Random("clique rec vs min fuzz")
        for _ in range(10_000):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            caps = tuple(rng.randint(0, 50) for _ in range(n))
            if nc.vmcap_kn_kk_rec(n, k, caps) != nc.vmcap_kn_kk_min(n, k, caps):
                bad += 1
        assert bad == 0


def count_edges(g):
    return sum(
        1 for u, v in combinations(range(1, g.vertex_count + 1), 2) if g.has_edge(u, v)
    )


def count_triangles(g):
    return sum(
        1
        for a, b, c in combinations(range(1, g.vertex_count + 1), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def count_four_cycles(g):
    """Vertex sets carrying a spanning 4-cycle, found by ring orderings."""
    found = 0
    for quad in combinations(range(1, g.vertex_count + 1), 4):
        a, b, c, d = quad
        for ring in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if all(
                g.has_edge(ring[i], ring[(i + 1) % 4]) for i in range(4)
            ):
                found += 1
                break
    return found


def test_criterion_4_embedding_tables():
    with criterion(4, "embedding tables match independent recounts"):
        expected = {
            ("c4", "k2"): 4,
            ("k4", "k2"): 6,
            ("k4", "k3"): 4,
            ("l4", "k2"): 10,
            ("cq3", "k2"): 12,
            ("cq3", "c4"): 4,
            ("q33", "k2"): 16,
            ("q33", "c4"): 36,
        }
        counters = {"k2": count_edges, "k3": count_triangles, "c4": count_four_cycles}
        for (pname, gname), want in expected.items():
            host, guest = expanded(pname), expanded(gname)
            listed = len(nc.enumerate_embeddings(host, guest))
            recounted = counters[gname](host)
            assert listed == recounted == want, (pname, gname, listed, recounted)


def placement_violations(pname, gname, caps, placement):
    fn = closed_form(pname, gname)
    if placement.count != fn(caps):
        return 1
    try:
        nc.verify_placement(expanded(pname), expanded(gname), caps, placement)
    except nc.PlacementError:
        return 1
    return 0


def test_criterion_5_placements_attain_the_counts():
    with criterion(5, "witness placements attain every closed-form count"):
        bad = 0
        for caps in all_vectors(4, 5):
            bad += placement_violations("c4", "k2", caps, nc.place_k2("c4", caps))
            bad += placement_violations(
                "k4", "k2", caps, nc.place_kn_kk(4, 2, caps)
            )
            bad += placement_violations(
                "k4", "k3", caps, nc.place_kn_kk(4, 3, caps)
            )
        for caps in all_vectors(8, 2):
            for pname in ("cq3", "l4", "q33"):
                bad += placement_violations(
                    pname, "k2", caps, nc.place_k2(pname, caps)
                )
            for pname in ("cq3", "q33"):
                bad += placement_violations(
                    pname, "c4", caps, nc.place_c4_vnuma(pname, caps)
                )
        rng = random.Random("clique placement fuzz")
        for _ in range(1_000):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            caps = tuple(rng.randint(0, 100) for _ in range(n))
            placement = nc.place_kn_kk(n, k, caps)
            if placement.count != nc.vmcap_kn_kk_min(n, k, caps):
                bad += 1
                continue
            if k >= 2:
                try:
                    nc.verify_placement(
                        expanded(f"k{n}"), expanded(f"k{k}"), caps, placement
                    )
                except nc.PlacementError:
                    bad += 1
            else:
                used = [0] * n
                for group in placement.matches:
                    assert len(group) == 1
                    used[group[0] - 1] += 1
                if any(u > c for u, c in zip(used, caps)):
                    bad += 1
        assert bad == 0


def six_term_with_imbalance(caps, delta):
    """Cross-edge construction: route delta pairs over the diagonals,
    then fill the remaining ladder."""
    lo, hi = -min(caps[1], caps[7]), min(caps[0], caps[6])
    delta = max(lo, min(hi, delta))
    x, y = max(delta, 0), max(-delta, 0)
    rest = list(caps)
    rest[0] -= x
    rest[6] -= x
    rest[1] -= y
    rest[7] -= y
    return x + y + nc.vmcap_l4_k2(rest)


def test_criterion_6_reduction_invariants():
    with criterion(6, "normalize, twin merge, expansion, rounding invariants"):
        violations = 0

        # capping a node by its neighbor sums never changes any count
        norm_cases = [
            (pname, gname, 4, list(all_vectors(4, 5)))
            for pname, gname in SMALL_PAIRS
        ] + [
            (pname, gname, 8, list(all_vectors(8, 2)))
            for pname, gname in LARGE_PAIRS
        ]
        for pname, gname, n, vectors in norm_cases:
            fn = closed_form(pname, gname)
            host = expanded(pname)
            extra = random_vectors(f"{pname}/{gname} normalize", 2_000, n, 20)
            for caps in vectors + extra:
                clipped = nc.normalize_capacities(host, caps)
                if fn(clipped) != fn(caps):
                    violations += 1

        # vertices with identical neighborhoods merge into one fat vertex
        c4 = expanded("c4")
        for caps in all_vectors(4, 3):
            _, merged = nc.merge_twin_vertices(c4, caps)
            want = nc.oracle_vmcap(c4, expanded("k2"), caps).count
            if nc.vmcap_kn_kk_rec(2, 2, merged) != want:
                violations += 1
        q33 = expanded("q33")
        fn = closed_form("q33", "k2")
        for caps in all_vectors(8, 3):
            _, merged = nc.merge_twin_vertices(q33, caps)
            if nc.vmcap_kn_kk_rec(2, 2, merged) != fn(caps):
                violations += 1

        # vertex blow-up turns capacitated matching into plain matching
        for pname, n in (("c4", 4), ("k4", 4), ("l4", 8)):
            fn = closed_form(pname, "k2")
            host = expanded(pname)
            for caps in bounded_sum_vectors(n, 10):
                if sum(caps) == 0:
                    if fn(caps) != 0:
                        violations += 1
                    continue
                blown = nc.expand_to_simple_matching(host, caps)
                if nc.maximum_matching_size(blown) != fn(caps):
                    violations += 1

        # rounding the half-imbalance either way gives the same count
        rounding_cases = list(all_vectors(8, 2)) + random_vectors(
            "imbalance rounding", 10_000, 8, 20
        )
        for caps in rounding_cases:
            odd = caps[0] + caps[2] + caps[4] + caps[6]
            even = caps[1] + caps[3] + caps[5] + caps[7]
            floor_d = (odd - even) // 2
            ceil_d = -((even - odd) // 2)
            want = nc.vmcap_cq3_k2(caps)
            if not (
                six_term_with_imbalance(caps, floor_d)
                == six_term_with_imbalance(caps, ceil_d)
                == want
            ):
                violations += 1

        # no diagonal split beats the closed form's choice
        for caps in all_vectors(8, 2):
            best = max(
                x
                + y
                + nc.vmcap_l4_k2(
                    (
                        caps[0] - x,
                        caps[1] - y,
                        caps[2],
                        caps[3],
                        caps[4],
                        caps[5],
                        caps[6] - x,
                        caps[7] - y,
                    )
                )
                for x in range(min(caps[0], caps[6]) + 1)
                for y in range(min(caps[1], caps[7]) + 1)
            )
            if best != nc.vmcap_cq3_k2(caps):
                violations += 1

        assert violations == 0


def test_criterion_7_prefix_means_are_valley_shaped():
    with criterion(7, "prefix means dip once then rise, in exact rationals"):
        rng = random.Random("partial means unimodality")
        for _ in range(1_000):
            n = rng.randint(2, 32)
            values = sorted(rng.randint(0, 60) for _ in range(n))
            for k in range(1, n + 1):
                means = nc.partial_means(values, k)
                assert all(isinstance(m, Fraction) for m in means)
                rising = False
                for prev, cur in zip(means, means[1:]):
                    if cur >= prev:
                        rising = True
                    else:
                        assert not rising, (values, k, means)


def test_criterion_8_hot_path_throughput():
    with criterion(8, "10^6 hot-path evaluations in under a second"):
        rng = random.Random("hot path pool")
        pool = [tuple(rng.randint(0, 30) for _ in range(8)) for _ in range(256)]
        fn = nc.vmcap_cq3_k2
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            i = 0
            for _ in range(1_000_000):
                fn(pool[i & 255])
                i += 1
            best = min(best, time.perf_counter() - start)
        assert best < 1.0, f"best of 3 runs took {best:.3f}s"


def test_criterion_9_worked_server_scenario():
    with criterion(9, "4-socket ring server fits 13 pair guests end to end"):
        caps = (3, 7, 10, 6)
        host, guest = expanded("c4"), expanded("k2")
        assert nc.oracle_vmcap(host, guest, caps).count == 13
        assert nc.vmcap_c4_k2(caps) == 13
        result = nc.vmcap("c4", "k2", caps)
        assert result == nc.VmcapResult(13, "closed-form")

        # 3 + 4 + 6 around the ring is a feasible split
        split = nc.Placement(((1, 2),) * 3 + ((2, 3),) * 4 + ((3, 4),) * 6)
        nc.verify_placement(host, guest, caps, split)

        produced = nc.place_k2("c4", caps)
        assert produced.count == 13
        nc.verify_placement(host, guest, caps, produced)

        # resource vectors reproduce the same capacity vector
        server = nc.ServerState(
            "ring",
            (
                nc.ServerComponent(
                    topology="c4",
                    nodes=(
                        {"cpu": 6, "ram": 3},
                        {"cpu": 14, "ram": 7},
                        {"cpu": 20, "ram": 10},
                        {"cpu": 12, "ram": 6},
                    ),
                ),
            ),
        )
        flavor = nc.Flavor("pair", "k2", {"cpu": 2, "ram": 1})
        assert nc.server_capacity(server, flavor) == 13
        rows, total = nc.cluster_capacity([server], flavor)
        assert total == 13 and rows[0].error is None


if __name__ == "__main__":
    for fn in [
        test_criterion_1_small_hosts_exhaustive,
        test_criterion_2_large_hosts_exhaustive_plus_fuzz,
        test_criterion_3_clique_formula_agreement,
        test_criterion_4_embedding_tables,
        test_criterion_5_placements_attain_the_counts,
        test_criterion_6_reduction_invariants,
        test_criterion_7_prefix_means_are_valley_shaped,
        test_criterion_8_hot_path_throughput,
        test_criterion_9_worked_server_scenario,
    ]:
        try:
            fn()
        except AssertionError:
            pass
    raise SystemExit(0 if all(ok for _, ok in _RESULTS) else 1)
