"""The floor(LP) prover, and the pairs whose count it binds to the root term."""

import os
import random
import re
import subprocess
import sys

import pytest

import numacap as nc
from numacap import formulas, oracle, rounding
from numacap.oracle import _pair_statics

LISTED = sorted(formulas.LP_PROVED, key=str)


def graphs(host, guest):
    return nc.expand_topology(host), nc.expand_topology(guest)


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
    proof = rounding.prove(*graphs(host, guest))
    assert proof.proved, proof.failures[:5]
    assert proof.simplices >= proof.cones > 0
    assert proof.base_points >= proof.simplices


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


@pytest.mark.parametrize("host,guest,gap", [
    ("cq3", "k1_3", (1,) * 8),
    ("q33", "k1_3", (0, 1, 1, 1, 1, 1, 1, 2)),
    ("k4_4", "k1_3", (0, 1, 1, 1, 1, 1, 1, 2)),
])
def test_gap_pairs_are_refused(host, guest, gap):
    # each failure is a base point or period where the plain search's
    # count is below floor(LP); the proof lists them all
    proof = rounding.prove(*graphs(host, guest))
    assert not proof.proved
    assert gap in proof.failures
    plain = oracle._plain_solver(_pair_statics(*graphs(host, guest)))
    for b in proof.failures:
        assert plain(0, b) < floor_lp(host, guest, b), b


@pytest.mark.parametrize("host,guest", LISTED, ids=lambda tid: str(tid))
def test_wide_root_is_the_plain_minimum(host, guest):
    h, g = graphs(host, guest)
    count = oracle.floor_lp(h, g)
    for b in wide_vectors(f"{host}/{guest} wide", h.vertex_count):
        want = floor_lp(host, guest, b)
        assert count(b) == want, b
        assert nc.vmcap(host, guest, b) == (want, "oracle"), b


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


def test_command_line(capsys):
    assert rounding.main(["l4/c4", "star4/k1_2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("l4/c4: 12 cones, 28 simplices, 28 base points, ")
    assert out[1] == "  floor(LP) is the count at every vector"
    assert out[2].startswith("star4/star2: ")
    assert rounding.main(["cq3/k1_3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "  refused: the count is below floor(LP) at 5 vectors"
    assert "  (1, 1, 1, 1, 1, 1, 1, 1)" in out
    # a bad id, or a host past the solver's 8 nodes, is refused before
    # any pair is proved
    assert rounding.main(["l4/c4", "l4"]) == 2
    assert rounding.main(["l4/c4", "k3_6/c4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unknown topology id ''",
        "error: oracle supports hosts up to 8 vertices",
    ]
