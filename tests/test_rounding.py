"""The floor(LP) prover, and the solver pairs whose count is the root term."""

import os
import random
import re
import subprocess
import sys
from math import lcm

import pytest

import numacap as nc
from numacap import formulas, oracle, rounding
from numacap.oracle import _pair_statics
from conftest import proved

# solver pairs counted by floor(LP), bipartite hosts with either side
# first, and star4 also spelled k1_4 and k4_1
LISTED = sorted([
    (nc.L4, nc.C4), (nc.star(4), nc.star(2)), (nc.km_n(1, 4), nc.star(2)),
    (nc.km_n(4, 1), nc.star(2)), (nc.CQ3, nc.star(2)), (nc.L4, nc.star(2)),
    (nc.km_n(2, 3), nc.C4), (nc.km_n(3, 2), nc.C4), (nc.Q33, nc.star(2)),
    (nc.km_n(3, 5), nc.star(2)), (nc.km_n(5, 3), nc.star(2)),
], key=str)
# each registry instance once, its guest as vmcap binds it
REGISTRY = sorted({(host, str(nc.canonical_id(guest)))
                   for host, guest, _ in formulas.INSTANCES})
# pairs with no proof, whose floor(LP) the field minimum still computes:
# three spellings of gap pairs, and k8/k7, whose terms need the widest fields
UNPROVED = [("cq3", "k1_3"), ("q33", "k1_3"), ("k4_4", "k1_3"), ("k8", "k7")]
# each LP_GAPS pair, and how many periods and base points its proof fails at
GAPS = [
    ("cq3", "star3", 5), ("k3_3", "star3", 1), ("k3_4", "star3", 22),
    ("k3_5", "star3", 177), ("q33", "k2_4", 16), ("q33", "star3", 254),
    ("q33", "star4", 3),
]


def graphs(host, guest):
    return nc.expand_topology(host), nc.expand_topology(guest)


def proof(host, guest):
    return proved(*graphs(host, guest))


def floor_lp(host, guest, b):
    """min over the unpacked root terms (W, D) of W.b // D."""
    return min(
        sum(w * b[v] for v, w in weights) // div
        for weights, div in _pair_statics(*graphs(host, guest)).bound_terms[0]
    )


def wide_vectors(seed, n):
    """Vectors with entries up to 2^32-1, each of a uniform bit length,
    plus the all-MAX_CAPACITY and all-zero vectors."""
    rng = random.Random(seed)
    out = [(nc.MAX_CAPACITY,) * n, (0,) * n]
    for _ in range(200):
        out.append(tuple(rng.getrandbits(rng.randint(0, 32)) for _ in range(n)))
    return out


@pytest.mark.parametrize("host,guest", LISTED, ids=lambda tid: str(tid))
def test_listed_pairs_are_proved(host, guest):
    # prove() raises unless its simplices tile every full-dimensional cone
    checked = proof(host, guest)
    assert checked.proved, list(checked.failures)[:5]
    assert checked.simplices >= checked.cones > 0
    assert checked.base_points >= checked.simplices


@pytest.mark.parametrize("host,guest", REGISTRY)
def test_registry_instances_are_proved(host, guest):
    # numacap verify sweeps each formula against floor(LP), which this
    # proves is the count
    checked = proof(host, guest)
    assert checked.proved, list(checked.failures)[:5]
    assert checked.simplices >= checked.cones > 0


@pytest.mark.parametrize("host,guest,b,count", [
    # the hosts of k2_3/c4, k1_4/k1_2 and k3_5/k1_2 with their sides swapped
    ("k3_2", "c4", (50,) * 5, 50),
    ("k4_1", "k1_2", (50,) * 5, 50),
    ("k5_3", "k1_2", (50,) * 8, 133),
])
def test_side_swapped_hosts_are_counted_past_the_solver(host, guest, b, count):
    assert nc.vmcap(host, guest, b) == (count, "oracle")
    placement = nc.place_vnuma(host, guest, b)
    assert placement.count == count
    nc.verify_placement(*graphs(host, guest), b, placement)


@pytest.mark.parametrize("host,guest", [
    ("l4", "k2_1"), ("k2_3", "k2_1"), ("k3_2", "c4"), ("k4_4", "star2"),
])
def test_every_spelling_takes_the_canonical_count(host, guest):
    # one graph pair, one answer: each spelling is counted by floor(LP),
    # with no sum limit, as its canonical spelling is
    h, g = graphs(host, guest)
    canonical = [str(nc.canonical_id(tid)) for tid in (host, guest)]
    assert canonical != [host, guest]
    for b in [(50,) * h.vertex_count, (nc.MAX_CAPACITY,) * h.vertex_count]:
        got = nc.vmcap(host, guest, b)
        assert got == nc.vmcap(*canonical, b) and got.via == "oracle", b
        placement = nc.place_vnuma(host, guest, b)
        assert placement.count == got.count, b
        nc.verify_placement(h, g, b, placement)


def test_k1_4_is_counted_as_star4():
    # one graph under both ids, hub on label 1; each is counted by floor(LP)
    assert graphs("k1_4", "k1_2") == graphs("star4", "k1_2")
    for b in [(50,) * 5, (nc.MAX_CAPACITY,) * 5]:
        got = nc.vmcap("k1_4", "k1_2", b)
        assert got == nc.vmcap("star4", "k1_2", b) == (b[0], "oracle"), b
        for host in ("k1_4", "star4"):
            placement = nc.place_vnuma(host, "k1_2", b)
            assert placement.count == got.count, (host, b)
            nc.verify_placement(*graphs(host, "k1_2"), b, placement)


@pytest.mark.parametrize("masks,fault", [
    ([0b101, 0b110], None),
    # a simplex missing: the inner facet on ray 2 has one side
    ([0b101], "1 simplices share the inner facet [2]"),
    # both on one side of that facet
    ([0b101, 0b101], "two simplices lie on one side of the facet [2]"),
    # the whole cone twice: every facet is on the boundary
    ([0b011, 0b011], "an interior point lies in 2 simplices"),
])
def test_tiling_check_refuses_a_bad_cover(masks, fault):
    # the orthant of R^2 on the rays (1, 0), (0, 1) and (1, 1); x >= 0 is
    # tight on ray 1 and y >= 0 on ray 0
    vectors = [(1, 0), (0, 1), (1, 1)]
    tight = {0b010, 0b001}
    cells = [
        (mask, rounding._adjugate([vectors[r] for r in rounding._bits(mask)])[1])
        for mask in masks
    ]
    if fault is None:
        rounding._check_tiling(cells, vectors, tight)
    else:
        with pytest.raises(ValueError, match=re.escape(fault)):
            rounding._check_tiling(cells, vectors, tight)


@pytest.mark.parametrize("host,guest,failing", GAPS)
def test_gap_pairs_are_refused(host, guest, failing):
    # each failure is a base point or period where the plain search's
    # count is below floor(LP); the proof lists them all, with both
    failures = proof(host, guest).failures
    assert len(failures) == failing
    assert list(failures) == sorted(failures)
    plain = oracle._plain_solver(_pair_statics(*graphs(host, guest)))
    for b, (lp, count) in failures.items():
        assert (lp, count) == (floor_lp(host, guest, b), plain(0, b)), b
        assert count < lp, b
        assert nc.vmcap(host, guest, b) == (count, "oracle"), b


def test_the_gaps_are_the_listed_pairs():
    listed = {(nc.parse_topology(h), nc.parse_topology(g)) for h, g, _ in GAPS}
    assert listed == formulas.LP_GAPS
    # 34 id pairs spell them
    ids = nc.topology.every_id(8)
    spellings = [(h, g) for h in ids for g in ids
                 if (nc.canonical_id(h), nc.canonical_id(g)) in formulas.LP_GAPS]
    assert len(spellings) == 34


def scaled_top(host, guest):
    """max W' over the root terms (W, D), each scaled to the common
    denominator D* = lcm of the D."""
    terms = _pair_statics(*graphs(host, guest)).bound_terms[0]
    scale = lcm(*[div for _, div in terms])
    return max(w * (scale // div) for ws, div in terms for _, w in ws)


def switch_vectors(top, n, seed):
    """Vectors whose sum(b) * top lies on either side of 2^16 - 1, where
    16-bit fields give way to 64-bit ones, and of 2^32 - 1: the largest
    sum with sum * top <= 2^w - 1 and the next, each spread over the
    nodes evenly, at random and on one node."""
    rng = random.Random(seed)
    out = []
    for width in (16, 32):
        low = ((1 << width) - 1) // top
        for total in (low, low + 1):
            out.append(tuple(total // n + (v < total % n) for v in range(n)))
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            out.append(tuple(b - a for a, b in zip((0, *cuts), (*cuts, total))))
            if total <= nc.MAX_CAPACITY:
                out.append((total,) + (0,) * (n - 1))
    return out


@pytest.mark.parametrize("host,guest", LISTED + UNPROVED, ids=lambda tid: str(tid))
def test_wide_root_is_the_plain_minimum(host, guest):
    h, g = graphs(host, guest)
    n, k = h.vertex_count, g.vertex_count
    count = oracle.floor_lp(h, g)
    key = (nc.canonical_id(host), nc.canonical_id(guest))
    proved = key not in formulas.LP_GAPS and nc.closed_form_evaluator(host, guest) is None
    vectors = wide_vectors(f"{host}/{guest} wide", n)
    vectors += switch_vectors(scaled_top(host, guest), n, f"{host}/{guest}")
    for b in vectors:
        want = floor_lp(host, guest, b)
        assert count(b) == count(list(b)) == want, b
        # the root terms already hold the term sum(b) // k of y = 1/k
        assert want <= sum(b) // k, b
        if proved:
            assert nc.vmcap(host, guest, b) == (want, "oracle"), b


def test_field_minimum_at_the_switch():
    # term 0 reads sum(b) in the lowest field: past 2^16 - 1 a 16-bit
    # field would carry into term 1, so the call must switch to 64-bit
    # fields, which hold 2^32 - 1 and 2^32 as well
    every = ((0, 1), (1, 1))
    count = oracle._field_min(((every, 1), (((0, 1),), 1)), 2)
    for total in ((1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32):
        b = (total // 2, total - total // 2)
        assert count(b) == total // 2, b
    # the same edge over D* = 6: sum(b) // 2 reads 3 * sum(b) / 6, which
    # fills a 16-bit field at sum(b) = (2^16 - 1) / 3
    count = oracle._field_min(((every, 2), (((0, 1),), 3)), 2)
    for edge in ((1 << 16) - 1, (1 << 32) - 1):
        for total in (edge // 3, edge // 3 + 1):
            for b in ((total, 0), (total - 1, 1)):
                assert count(b) == min(total // 2, b[0] // 3), b


def test_field_minimum_refuses_terms_past_64_bits():
    # (2^32 - 1) * (2^32 + 1) = 2^64 - 1 fills a 64-bit field; one more is past it
    top = nc.MAX_CAPACITY + 2
    count = oracle._field_min(((((0, top),), 1),), 1)
    assert count((nc.MAX_CAPACITY,)) == nc.MAX_CAPACITY * top
    with pytest.raises(nc.ScaleLimitError) as info:
        oracle._field_min(((((0, top + 1),), 1),), 1)
    assert str(info.value) == "floor(LP) fields hold up to 64 bits; these terms need 65"
    with pytest.raises(nc.ScaleLimitError):
        oracle._field_min(((((0, 1), (7, 1)), 1), (((3, 1),), 1 << 40)), 8)


def test_a_proved_pair_peels_its_witness_at_any_magnitude(monkeypatch):
    # floor(LP) is exact at every vector, so peeling it needs no solver
    def refuse(*args):
        raise AssertionError("a pair_solver was built")

    monkeypatch.setattr(formulas, "pair_solver", refuse)
    formulas._resolve.cache_clear()
    try:
        for host, guest in LISTED:
            h, g = graphs(host, guest)
            n = h.vertex_count
            wide = wide_vectors(f"{host}/{guest} peel", n)
            for b in [(26,) * n, *wide[:12]]:
                placement = nc.place_vnuma(host, guest, b)
                assert placement.count == nc.vmcap(host, guest, b).count, b
                nc.verify_placement(h, g, b, placement)
    finally:
        formulas._resolve.cache_clear()


def test_the_proof_stays_off_the_hot_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the prover ran")

    monkeypatch.setattr(rounding, "prove", refuse)
    formulas._resolve.cache_clear()
    try:
        for host, guest in LISTED:
            h, g = graphs(host, guest)
            b = (3,) * h.vertex_count
            assert nc.vmcap(host, guest, b).count == oracle.oracle_vmcap(h, g, b).count
            nc.verify_placement(h, g, b, nc.place_vnuma(host, guest, b))
    finally:
        formulas._resolve.cache_clear()


def test_the_package_does_not_import_the_prover():
    code = (
        "import sys, numacap as nc;"
        "nc.vmcap('l4', 'c4', (26,) * 8); nc.place_vnuma('l4', 'c4', (1,) * 8);"
        "print('numacap.rounding' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_the_import_path_builds_nothing():
    # importing the package and its command line loads neither the
    # prover nor fractions, and builds no pair's statics
    code = (
        "import sys, numacap, numacap.cli; from numacap import oracle;"
        "print(sorted({'numacap.rounding', 'fractions'} & set(sys.modules)),"
        " oracle._pair_statics.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[] 0"

