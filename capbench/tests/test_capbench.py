"""Tests of the benchmark itself.

    python -m pytest capbench/tests
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import pytest

import numacap as nc

import checks
import deadline
import gen
import run

ROOT = Path(__file__).resolve().parents[2]

# k6/c4 at sum 130: the solver runs for many seconds on this vector
STALLING_CALL = ("k6", "c4", (22, 22, 22, 22, 21, 21))


def test_generator_is_deterministic():
    for stream in (gen.closed_stream, gen.place_stream):
        first = list(islice(stream(7), 3000))
        assert first == list(islice(stream(7), 3000))
        assert first != list(islice(stream(8), 3000))
    blocks = list(islice(gen.solver_blocks(7), 3))
    assert blocks == list(islice(gen.solver_blocks(7), 3))
    assert blocks != list(islice(gen.solver_blocks(8), 3))
    text, servers = gen.cluster_state(7, 0, servers=300)
    again, servers_again = gen.cluster_state(7, 0, servers=300)
    assert text.encode() == again.encode() and servers == servers_again
    assert text != gen.cluster_state(8, 0, servers=300)[0]
    assert text != gen.cluster_state(7, 1, servers=300)[0]


def test_state_file_matches_generated_servers():
    text, servers = gen.cluster_state(3, 0, servers=50)
    doc = json.loads(text)
    assert [s["id"] for s in doc["servers"]] == [sid for sid, _ in servers]
    for sdoc, (_sid, comps) in zip(doc["servers"], servers):
        for cdoc, (host, nodes) in zip(sdoc["components"], comps):
            assert cdoc["topology"] == host
            assert [(n["cpu"], n["mem"], n["disk"]) for n in cdoc["nodes"]] == nodes


def test_solver_blocks_cover_every_pair_and_band_once():
    block = next(gen.solver_blocks(1))
    assert sorted((h, g, sum(b)) for h, g, b in block) == sorted(
        (h, g, s) for h, g in gen.SOLVER_PAIRS for s in gen.SOLVER_SUMS
    )


def test_every_closed_pair_has_a_raw_formula():
    assert set(checks.RAW_FORMULAS) == set(gen.CLOSED_PAIRS)


def test_benchmark_json_is_the_manifest():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc == run.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_printed_metric_names_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, "capbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = doc["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    meta = json.loads(next(
        line[len("meta: "):] for line in proc.stdout.splitlines()
        if line.startswith("meta: ")
    ))
    for key in ("python", "nproc", "git_commit", "seed", "latency_limit_s", "pools"):
        assert key in meta


def _small(host, value=2):
    return (value,) * gen.HOST_NODES[host]


def test_closed_checker_rejects_off_by_one():
    for host, guest in gen.CLOSED_PAIRS:
        b = _small(host, 3)
        want = nc.vmcap(host, guest, b).count
        assert checks.closed_answer_ok(host, guest, b, want)
        assert not checks.closed_answer_ok(host, guest, b, want + 1)
        assert not checks.closed_answer_ok(host, guest, b, want - 1)


def test_solver_checker_rejects_off_by_one():
    for host, guest in gen.SOLVER_PAIRS:
        b = _small(host)
        want = nc.vmcap(host, guest, b).count
        assert want > 0
        assert checks.solver_answer_ok(host, guest, b, want)
        assert not checks.solver_answer_ok(host, guest, b, want + 1)
        assert not checks.solver_answer_ok(host, guest, b, want - 1)


def test_witness_checker_rejects_over_capacity():
    host, guest, b = "l4", "c4", _small("l4")
    h, g = checks.graphs(host, guest)
    solution = nc.oracle_vmcap(h, g, b)
    assert checks.witness_ok(host, guest, b, solution, solution.count)
    (idx, times), *rest = solution.multiplicities
    over = nc.OracleSolution(
        count=solution.count + 3,
        multiplicities=((idx, times + 3), *rest),
    )
    assert not checks.witness_ok(host, guest, b, over, over.count)


def test_placement_checker_rejects_wrong_answers():
    b = (3, 2, 1, 0)
    placement = nc.place_k2("k4", b)
    want = nc.vmcap("k4", "k2", b).count
    assert checks.placement_ok("k4", "k2", b, placement, want)
    assert not checks.placement_ok("k4", "k2", b, placement, want + 1)
    over = nc.Placement(placement.matches + ((1, 2),))
    assert not checks.placement_ok("k4", "k2", b, over, want + 1)


def test_cluster_checker_rejects_off_by_one():
    _text, servers = gen.cluster_state(5, 0, servers=20)
    comps = next(c for _sid, c in servers if checks.cluster_row_checkable(c))
    want = sum(
        nc.vmcap(host, "k2", [gen.node_count(free) for free in nodes]).count
        for host, nodes in comps
    )
    assert checks.cluster_row_ok(comps, want)
    assert not checks.cluster_row_ok(comps, want + 1)


def test_latency_limit_cuts_a_stall_without_threads_or_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the latency limit started a thread or process")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)
    threads = threading.active_count()
    start = time.perf_counter()
    with deadline.armed():
        assert deadline.call_with_limit(nc.vmcap, STALLING_CALL) == (None, None)
        result, seconds = deadline.call_with_limit(nc.vmcap, ("c4", "k2_2", (1,) * 4))
    assert time.perf_counter() - start < 2.0
    assert threading.active_count() == threads
    assert result.count == 1 and 0 < seconds < deadline.LIMIT_S
