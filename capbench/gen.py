"""Seeded inputs for the benchmark workloads.

Every stream and file here is a pure function of its seed: the same seed
gives byte-identical state files and the same vector sequence, so two runs
with one seed measure the same inputs.  The program under test only ever
sees the generated values, never the seed.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

# Every closed-form branch of the formula dispatch, with the named formula
# the benchmark calls directly as the raw-evaluation floor.
CLOSED_PAIRS = (
    ("c4", "k2"),
    ("k4", "k2"),
    ("k6", "k2"),
    ("l4", "k2"),
    ("cq3", "k2"),
    ("q33", "k2"),
    ("k2_3", "k2"),
    ("star5", "k2"),
    ("k4", "k3"),
    ("k6", "k4"),
    ("cq3", "c4"),
    ("q33", "c4"),
)

# Pairs without a closed form.  c4/k2_2 and q33/k2_2 are isomorphic to
# closed-form pairs, so a canonical-id change would move them off the solver.
SOLVER_PAIRS = (
    ("l4", "c4"),
    ("k5", "c4"),
    ("k6", "k2_3"),
    ("k6", "c4"),
    ("star4", "k1_2"),
    ("cq3", "k1_2"),
    ("l4", "k1_2"),
    ("k2_3", "c4"),
    ("c4", "k2_2"),
    ("q33", "k2_2"),
)
# sum(b) bands; 200 is the largest total the solver accepts
SOLVER_SUMS = (40, 80, 120, 160, 200)

# calls per timed chunk of the in-process workloads
CLOSED_CHUNK = 5_000
PLACE_CHUNK = 1_000

CLUSTER_HOSTS = ("c4", "k4", "k6", "l4", "cq3", "q33", "k2_3", "star5")
CLUSTER_SERVERS = 20_000
COMPONENTS_PER_SERVER = 2
HOST_NODES = {"c4": 4, "k4": 4, "k6": 6, "l4": 8, "cq3": 8, "q33": 8,
              "k2_3": 5, "star5": 6, "k5": 5, "star4": 5}
# flavor k2 demanding two of the three resources every node carries
FLAVOR = {"id": "m2", "vnuma": "k2", "demand": {"cpu": 2, "mem": 8}}

# Closed-form vectors.  A small share has tiny entries, so the untimed check
# can afford the solver on them; 2% keeps that check short next to a chunk.
# The repository holds no record of real traffic, so the rest is split
# evenly, by assumption, between realistic per-node counts (0..256) and wide
# entries up to the 2^32-1 limit.  A wide entry has a uniform bit length,
# so every magnitude above 256 is drawn as often.
SMALL_MAX = 5
SMALL_SHARE = 0.02
REALISTIC_MAX = 256


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


def closed_stream(seed: int) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """Endless (host, guest, b) stream cycling over every closed-form pair."""
    rng = _rng(seed, "closed")
    rand = rng.random
    randint = rng.randint
    getrandbits = rng.getrandbits
    while True:
        for host, guest in CLOSED_PAIRS:
            n = HOST_NODES[host]
            if rand() < SMALL_SHARE:
                b = tuple(randint(0, SMALL_MAX) for _ in range(n))
            elif rand() < 0.5:
                b = tuple(getrandbits(randint(9, 32)) for _ in range(n))
            else:
                b = tuple(randint(0, REALISTIC_MAX) for _ in range(n))
            yield host, guest, b


def place_stream(seed: int) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """Endless (host, guest, b) stream over the closed-form pairs, caps 0..256."""
    rng = _rng(seed, "place")
    randint = rng.randint
    while True:
        for host, guest in CLOSED_PAIRS:
            yield host, guest, tuple(
                randint(0, REALISTIC_MAX) for _ in range(HOST_NODES[host])
            )


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def solver_blocks(seed: int) -> Iterator[list[tuple[str, str, tuple[int, ...]]]]:
    """Endless blocks, each one vector per (solver pair, sum band).

    Each vector is a uniformly random composition of the band's sum, so
    every pair gets the same number of vectors at every band, with no
    filtering by how long the solver takes on them.
    """
    rng = _rng(seed, "solver")
    while True:
        block = [
            (host, guest, _composition(rng, total, HOST_NODES[host]))
            for total in SOLVER_SUMS
            for host, guest in SOLVER_PAIRS
        ]
        rng.shuffle(block)
        yield block


def cluster_state(seed: int, index: int, servers: int = CLUSTER_SERVERS):
    """One cluster state: (json text, [(server id, [(host, [(cpu, mem, disk)])])]).

    Node free resources are uniform, cpu 0..63 and memory 0..255 GiB.  That
    is an assumption, not a measured mix: it is chosen so a node fits 0..31
    guests of FLAVOR, which keeps most component totals inside the solver's
    range for checking.  The text is written with fixed formatting, so it is a pure
    function of (seed, index).
    """
    rng = _rng(seed, f"cluster/{index}")
    bits = rng.getrandbits
    choice = rng.choice
    servers_out = []
    parts = []
    for s in range(servers):
        sid = f"s{index}-{s:05d}"
        comps = []
        comp_texts = []
        for _ in range(COMPONENTS_PER_SERVER):
            host = choice(CLUSTER_HOSTS)
            # free cpus 0..63, memory 0..255 GiB, disk 0..2047 GiB
            nodes = [(bits(6), bits(8), bits(11)) for _ in range(HOST_NODES[host])]
            comps.append((host, nodes))
            node_text = ",".join(
                f'{{"cpu":{c},"mem":{m},"disk":{d}}}' for c, m, d in nodes
            )
            comp_texts.append(f'{{"topology":"{host}","nodes":[{node_text}]}}')
        servers_out.append((sid, comps))
        parts.append(f'{{"id":"{sid}","components":[{",".join(comp_texts)}]}}')
    text = '{"servers":[' + ",\n".join(parts) + "]}\n"
    return text, servers_out


def flavors_text() -> str:
    return json.dumps({"flavors": [FLAVOR]}, sort_keys=True) + "\n"


def node_count(free: tuple[int, int, int]) -> int:
    """Guests of FLAVOR one node fits, computed apart from the program."""
    cpu, mem, _disk = free
    demand = FLAVOR["demand"]
    return min(cpu // demand["cpu"], mem // demand["mem"])
