"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import numacap as nc
from numacap import formulas, placement, rounding

# closed-form pairs grouped by host size; used by sweep-style tests
SMALL_PAIRS = [("c4", "k2"), ("k4", "k2"), ("k4", "k3")]
LARGE_PAIRS = [("cq3", "k2"), ("cq3", "c4"), ("q33", "k2"), ("q33", "c4"), ("l4", "k2")]

# vertex swap 1<->7, 2<->8, 3<->5, 4<->6 preserves the cross-linked ladder
CQ3_SWAP = {1: 7, 7: 1, 2: 8, 8: 2, 3: 5, 5: 3, 4: 6, 6: 4}


def apply_vertex_map(perm: dict[int, int], caps) -> tuple[int, ...]:
    """Reindex a capacity vector by a vertex permutation (1-based)."""
    out = [0] * len(caps)
    for src, dst in perm.items():
        out[dst - 1] = caps[src - 1]
    return tuple(out)


def all_vectors(length: int, max_cap: int):
    """Yield every capacity vector in [0..max_cap]^length."""
    def rec(prefix):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(max_cap + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def bounded_sum_vectors(length: int, max_total: int):
    """Yield every vector of the given length with sum(v) <= max_total."""
    def rec(prefix, left):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in range(left + 1):
            prefix.append(v)
            yield from rec(prefix, left - v)
            prefix.pop()

    yield from rec([], max_total)


def random_vectors(seed: str, count: int, length: int, max_cap: int):
    rng = random.Random(seed)
    return [tuple(rng.randint(0, max_cap) for _ in range(length)) for _ in range(count)]


def full_range_vectors(seed, n, count=60):
    """The zero vector, then entries 0..256, entries up to 2^32-1, and
    both mixed with zeros, count vectors of each."""
    rng = random.Random(seed)
    top = nc.MAX_CAPACITY
    draws = [
        lambda: rng.randint(0, 256),
        lambda: rng.randint(0, top),
        lambda: rng.choice((0, rng.randint(0, 256), rng.randint(0, top))),
    ]
    return [(0,) * n] + [
        tuple(draw() for _ in range(n)) for draw in draws for _ in range(count)
    ]


def count_graphs(monkeypatch):
    """A one-item list that counts every Graph built from now on."""
    built = [0]
    real = nc.Graph.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(nc.Graph, "__init__", counted)
    return built


def clear_bindings():
    """Forget every pair's bound count and witness, so that the next call
    binds them again."""
    formulas._resolve.cache_clear()
    placement._bind.cache_clear()


def check_pair_witness(placement, m, caps):
    """Check a k2 witness on K_m,n by hand: each group holds one node of
    1..m and one of the other side, and no node is used past its entry.
    verify_placement cannot check a host this large, as it enumerates
    the host's embeddings."""
    used = [0] * len(caps)
    for group, copies in placement.runs:
        left, right = sorted(group)
        assert 1 <= left <= m < right <= len(caps), group
        used[left - 1] += copies
        used[right - 1] += copies
    assert all(u <= c for u, c in zip(used, caps)), used


def closed_form(pname: str, gname: str):
    """Resolve the closed-form evaluator for a topology pair, or fail loudly."""
    fn = nc.closed_form_evaluator(nc.parse_topology(pname), nc.parse_topology(gname))
    assert fn is not None, f"no closed form registered for {pname}/{gname}"
    return fn


# rounding.prove, once a session per pair of graphs: the prover's tests
# and the no-pair verify run read the same proofs
proved = lru_cache(maxsize=None)(rounding.prove)


@pytest.fixture
def patch_formula(monkeypatch):
    """Swap the count function, or another field, of one registry entry
    for one test.

    patch(host key, guest id, fn, field) replaces that field of
    PAIRS[host key, guest], where guest None names a family entry; the
    bindings are cleared after the swap and again once the entry is
    restored, so no other test sees a pair bound to the substitute.
    """

    def patch(host_key: str, guest, fn, field: str = "count") -> None:
        key = (host_key, None if guest is None else nc.parse_topology(guest))
        monkeypatch.setitem(
            formulas.PAIRS, key, formulas.PAIRS[key]._replace(**{field: fn})
        )
        clear_bindings()

    yield patch
    monkeypatch.undo()
    clear_bindings()
