"""Output checks, run outside the timed regions.

Each checker takes one input and the program's answer and returns True
only when the answer is right; the workloads count every False as a
failed operation.
"""

from __future__ import annotations

from functools import lru_cache

import numacap as nc
from numacap import formulas as f

import gen

# the named formula behind each closed-form pair, called directly
RAW_FORMULAS = {
    ("c4", "k2"): f.vmcap_c4_k2,
    ("k4", "k2"): f.vmcap_k4_k2,
    ("k6", "k2"): lambda b: f.vmcap_kn_kk_rec(6, 2, b),
    ("l4", "k2"): f.vmcap_l4_k2,
    ("cq3", "k2"): f.vmcap_cq3_k2,
    ("q33", "k2"): lambda b: f.vmcap_kmn_k2(4, 4, b[0::2] + b[1::2]),
    ("k2_3", "k2"): lambda b: f.vmcap_kmn_k2(2, 3, b),
    ("star5", "k2"): lambda b: f.vmcap_kmn_k2(1, 5, b),
    ("k4", "k3"): f.vmcap_k4_k3,
    ("k6", "k4"): lambda b: f.vmcap_kn_kk_rec(6, 4, b),
    ("cq3", "c4"): f.vmcap_cq3_c4,
    ("q33", "c4"): f.vmcap_q33_c4,
}

# solver pairs isomorphic to a closed form, checked against it exactly
ISOMORPHIC_REFERENCE = {
    ("c4", "k2_2"): min,
    ("q33", "k2_2"): f.vmcap_q33_c4,
}


@lru_cache(maxsize=None)
def graphs(host: str, guest: str) -> tuple[nc.Graph, nc.Graph]:
    return nc.expand_topology(host), nc.expand_topology(guest)


def oracle_count(host: str, guest: str, b) -> int:
    h, g = graphs(host, guest)
    return nc.oracle_vmcap(h, g, b).count


def closed_answer_ok(host: str, guest: str, b, count) -> bool:
    """A vmcap answer equals the raw formula, and the solver when small."""
    if count != RAW_FORMULAS[host, guest](b):
        return False
    if max(b) <= gen.SMALL_MAX:
        return count == oracle_count(host, guest, b)
    return True


def witness_ok(host: str, guest: str, b, solution, count) -> bool:
    """A solver witness fits the capacities and adds up to the count."""
    h, g = graphs(host, guest)
    embeddings = nc.enumerate_embeddings(h, g)
    groups = []
    for idx, times in solution.multiplicities:
        if not (0 <= idx < len(embeddings)) or times < 1:
            return False
        groups.extend([embeddings[idx]] * times)
    return placement_ok(host, guest, b, nc.Placement(tuple(groups)), count)


def solver_answer_ok(host: str, guest: str, b, count) -> bool:
    """A fallback answer has a witness of its size, and matches its
    closed-form twin where the pair has one."""
    reference = ISOMORPHIC_REFERENCE.get((host, guest))
    if reference is not None and count != reference(b):
        return False
    h, g = graphs(host, guest)
    return witness_ok(host, guest, b, nc.oracle_vmcap(h, g, b), count)


def placement_ok(host: str, guest: str, b, placement, count) -> bool:
    """A placement passes verify_placement and its size equals count."""
    h, g = graphs(host, guest)
    try:
        nc.verify_placement(h, g, b, placement)
    except nc.PlacementError:
        return False
    return placement.count == count


def cluster_row_ok(components, count) -> bool:
    """A cluster row equals the solver's count summed over components."""
    want = 0
    for host, nodes in components:
        b = tuple(gen.node_count(free) for free in nodes)
        want += oracle_count(host, "k2", b)
    return count == want


def cluster_row_checkable(components) -> bool:
    """Every component's total is inside the solver's range."""
    return all(
        sum(gen.node_count(free) for free in nodes)
        <= nc.oracle.MAX_ORACLE_TOTAL_CAPACITY
        for _host, nodes in components
    )
