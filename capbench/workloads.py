"""The four workloads: closed loops with one caller, inputs from gen.

Each workload alternates three phases until its time is up: build the
next chunk of inputs, time the calls on it, then check every answer.
Only the middle phase is timed.  In a traced run, chunks alternate
between untraced and traced; the per-layer numbers come from the traced
chunks and the ratio of the two kinds of chunk is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path

import numacap as nc

import checks
import deadline
import gen
from spans import MAX_SPANS, Tracer

CLUSTER_SAMPLE_ROWS = 40
PEAK_ALLOC_CALLS = 240
SETUP_SAMPLES = 25


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    ok: int = 0
    # end-to-end metrics by BENCHMARK.json name
    metrics: dict = field(default_factory=dict)
    # the same figures under the workload-specific names, with units
    named: dict = field(default_factory=dict)
    # per-layer metrics, traced runs only
    layer: dict = field(default_factory=dict)
    pools: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    late_by_pair: Counter = field(default_factory=Counter)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(what)


def _upper_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


class _CacheWatch:
    """Hit/miss deltas of an lru_cache, summed over the traced phases."""

    def __init__(self, fn):
        self.fn = fn
        self.hits = self.misses = 0
        self._start = None

    def start(self):
        self._start = self.fn.cache_info() if self.fn else None

    def stop(self):
        if self._start is not None:
            info = self.fn.cache_info()
            self.hits += info.hits - self._start.hits
            self.misses += info.misses - self._start.misses

    def ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Run:
    """Shared chunk loop, set-up sampling, tracing toggles and per-layer
    bookkeeping for one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.out = Outcome()
        self.tracer = Tracer()
        self.embeddings = _CacheWatch(nc.topology.enumerate_embeddings)
        # private to the solver; absent after a refactor means no reading
        self.statics = _CacheWatch(getattr(nc.oracle, "_pair_statics", None))
        self.untraced_s_per_op: list[float] = []
        self.traced_s_per_op: list[float] = []

    def _setup_child(self) -> tuple[float, float]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")),
             "setup", self.workload],
            capture_output=True, text=True, env=self.env, cwd=self.root,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout)
        return doc["import_s"] + doc["warm_s"], doc["import_s"]

    def _sample_setup(self, elapsed: float) -> None:
        """Take the set-up samples due by `elapsed` seconds into the run.

        Spreading them over the run, between chunks, keeps one phase of the
        machine's speed from setting them all.
        """
        while (len(self.setup_s) < SETUP_SAMPLES
               and elapsed >= len(self.setup_s) * self.seconds / SETUP_SAMPLES):
            total, imported = self._setup_child()
            self.setup_s.append(total)
            self.import_s.append(imported)

    def chunks(self):
        """Yield (index, traced) until the time is up.

        Traced runs stop on an even count, so both kinds of chunk are
        equally many.  The first set-up child is dropped: it may compile
        the package's bytecode.
        """
        self._setup_child()
        start = time.perf_counter()
        for i in count():
            self._sample_setup(time.perf_counter() - start)
            traced = self.trace and i % 2 == 1
            yield i, traced
            if (time.perf_counter() - start >= self.seconds
                    and not (self.trace and i % 2 == 0)):
                break
        self._sample_setup(float("inf"))

    def timed(self, traced: bool, fn, *args):
        """Time fn(*args), with the tracer installed when traced."""
        if traced:
            self.embeddings.start()
            self.statics.start()
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
                self.embeddings.stop()
                self.statics.stop()
        return result, elapsed

    def note_rate(self, traced: bool, seconds: float, ops: int) -> None:
        if ops:
            (self.traced_s_per_op if traced else self.untraced_s_per_op).append(
                seconds / ops
            )

    def untraced_rate(self) -> float:
        """Operations per second in the slower quarter of untraced chunks.

        This machine's speed swings by up to 2x for seconds at a time, and
        the slower quartile follows the usual speed where the median
        follows whichever phase dominated the run.
        """
        return 1.0 / _upper_quartile(self.untraced_s_per_op)

    def finish_layers(self, extra: dict) -> None:
        """Per-layer metrics from the traced chunks; zero where unused.

        Times and counts are per traced chunk, so they do not depend on how
        many chunks fit in the run; ratios and late counts are whole-run.
        """
        t = self.tracer
        vmcap_calls = t.calls["formulas.vmcap"]
        per_chunk = {
            "capacity.cluster_capacity_s": t.total_s["capacity.cluster_capacity"],
            "capacity.vector_s": t.total_s["capacity.component_capacity_vector"],
            "capacity.node_capacity_calls": t.calls["capacity.node_capacity"],
            "cli.load_state_s": t.total_s["cli.load_cluster_state"],
            "cli.report_s": t.self_s["cli.main"],
            "formulas.vmcap_calls": vmcap_calls,
            "formulas.vmcap_self_s": t.self_s["formulas.vmcap"],
            "formulas.evaluator_lookup_s": t.total_s["formulas.closed_form_evaluator"],
            "topology.parse_s": (t.self_s["topology.as_topology_id"]
                                 + t.self_s["topology.parse_topology"]),
            "topology.check_capacities_s": t.total_s["topology.check_capacities"],
            "oracle.calls": t.calls["oracle.oracle_vmcap"],
            "oracle.solve_s": t.total_s["oracle.oracle_vmcap"],
            "placement.calls": sum(
                t.calls[f"placement.{name}"]
                for name in ("place_k2", "place_c4_vnuma", "place_kn_kk")
            ),
            "placement.s": t.layer_s["placement"],
        }
        for name, value in t.layer_self_s().items():
            per_chunk[f"{name}.self_s"] = value
        chunks = max(1, len(self.traced_s_per_op))
        layer = {name: value / chunks for name, value in per_chunk.items()}
        layer.update({
            "formulas.closed_form_share": (
                t.counters["formulas.via.closed-form"] / vmcap_calls
                if vmcap_calls else 0.0
            ),
            "topology.embeddings_hit_ratio": self.embeddings.ratio(),
            "oracle.statics_hit_ratio": self.statics.ratio(),
        })
        for host, guest in gen.SOLVER_PAIRS:
            layer[f"oracle.late.{host}-{guest}"] = self.out.late_by_pair[host, guest]
        if self.untraced_s_per_op and self.traced_s_per_op:
            layer["trace.overhead_ratio"] = (
                statistics.median(self.traced_s_per_op)
                / statistics.median(self.untraced_s_per_op) - 1.0
            )
        layer.update(extra)
        self.out.layer = layer


# ---------------------------------------------------------------- vmcap-closed


def _vmcap_loop(items):
    """vmcap's count for every item; None where it raised."""
    vmcap = nc.vmcap
    counts = []
    errors = []
    for host, guest, b in items:
        try:
            counts.append(vmcap(host, guest, b).count)
        except Exception as exc:  # counted as a failed operation
            counts.append(None)
            errors.append(repr(exc))
    return counts, errors


def _raw_loop(calls):
    """The same loop with the named formula called directly."""
    counts = []
    for fn, b in calls:
        counts.append(fn(b))
    return counts


def vmcap_closed(run: Run) -> Outcome:
    out = run.out
    stream = gen.closed_stream(run.seed)
    raw_s = vmcap_s = 0.0
    raw_calls = 0
    for _i, traced in run.chunks():
        items = list(islice(stream, gen.CLOSED_CHUNK))
        (counts, errors), elapsed = run.timed(traced, _vmcap_loop, items)
        run.note_rate(traced, elapsed, len(items))
        if run.trace and not traced:
            raw = [(checks.RAW_FORMULAS[h, g], b) for h, g, b in items]
            _, raw_elapsed = run.timed(False, _raw_loop, raw)
            raw_s += raw_elapsed
            vmcap_s += elapsed
            raw_calls += len(raw)
        for e in errors:
            out.fail(e)
        for (host, guest, b), count in zip(items, counts):
            out.attempted += 1
            if count is None:
                continue
            if checks.closed_answer_ok(host, guest, b, count):
                out.ok += 1
            else:
                out.fail(f"vmcap({host}, {guest}, {b}) = {count}")
    out.pools = {"closed_pairs": len(gen.CLOSED_PAIRS), "chunk_calls": gen.CLOSED_CHUNK}
    rate = run.untraced_rate()
    out.metrics = {"ops_per_s": rate}
    out.named = {"query_calls_per_s": (rate, "1/s")}
    if run.trace:
        run.finish_layers({
            "formulas.raw_eval_ns": raw_s / raw_calls * 1e9,
            "formulas.dispatch_ratio": vmcap_s / raw_s,
        })
    return out


# ------------------------------------------------------------- solver-fallback


def _solver_loop(block):
    vmcap = nc.vmcap
    results = []
    for host, guest, b in block:
        try:
            result, seconds = deadline.call_with_limit(vmcap, (host, guest, b))
        except Exception as exc:  # counted as a failed operation
            results.append((None, None, repr(exc)))
            continue
        results.append((None if result is None else result.count, seconds, None))
    return results


def solver_fallback(run: Run) -> Outcome:
    out = run.out
    blocks = gen.solver_blocks(run.seed)
    latencies = []
    with deadline.armed():
        for _i, traced in run.chunks():
            block = next(blocks)
            results, elapsed = run.timed(traced, _solver_loop, block)
            run.note_rate(traced, elapsed, len(block))
            for (host, guest, b), (count, seconds, error) in zip(block, results):
                out.attempted += 1
                if error is not None:
                    out.fail(error)
                    latencies.append(deadline.LIMIT_S)
                    continue
                if seconds is None:
                    out.late_by_pair[host, guest] += 1
                    latencies.append(deadline.LIMIT_S)
                    continue
                latencies.append(seconds)
                if checks.solver_answer_ok(host, guest, b, count):
                    out.ok += 1
                else:
                    out.fail(f"vmcap({host}, {guest}, {b}) = {count}")
    out.pools = {
        "solver_pairs": len(gen.SOLVER_PAIRS),
        "sum_bands": list(gen.SOLVER_SUMS),
        "block_calls": len(gen.SOLVER_PAIRS) * len(gen.SOLVER_SUMS),
    }
    p50_ms = statistics.median(latencies) * 1e3
    ok_ratio = out.ok / out.attempted
    # a block's time follows how many of its calls run to the limit, so the
    # whole-run rate averages over blocks where a quartile would pick one
    per_call = run.untraced_s_per_op
    out.metrics = {"ops_per_s": len(per_call) / sum(per_call)}
    out.named = {
        "solve_p50_ms": (p50_ms, "ms"),
        "solve_ok_ratio": (ok_ratio, "ratio"),
    }
    for (host, guest), n in sorted(out.late_by_pair.items()):
        out.named[f"late.{host}-{guest}"] = (n, "count")
    if run.trace:
        run.finish_layers({})
    return out


# --------------------------------------------------------------- place-witness


def _place_calls(items):
    """(function name, args) for each item's witness routine."""
    calls = []
    for host, guest, b in items:
        if guest == "k2":
            calls.append(("place_k2", (host, b)))
        elif guest == "c4":
            calls.append(("place_c4_vnuma", (host, b)))
        else:
            calls.append(("place_kn_kk", (int(host[1:]), int(guest[1:]), b)))
    return calls


def _place_fns() -> dict:
    """The witness routines as the package binds them now (maybe traced)."""
    return {name: getattr(nc, name)
            for name in ("place_k2", "place_c4_vnuma", "place_kn_kk")}


def _place_loop(calls):
    """The witness for every call; None where it raised."""
    fns = _place_fns()
    placements = []
    errors = []
    for name, args in calls:
        try:
            placements.append(fns[name](*args))
        except Exception as exc:  # counted as a failed operation
            placements.append(None)
            errors.append(repr(exc))
    return placements, errors


def _peak_alloc_mb(calls) -> float:
    """Largest memory one placement call allocates, by tracemalloc."""
    fns = _place_fns()
    tracemalloc.start()
    try:
        peak = 0
        for name, args in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fns[name](*args)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def place_witness(run: Run) -> Outcome:
    out = run.out
    stream = gen.place_stream(run.seed)
    groups = 0
    for _i, traced in run.chunks():
        items = list(islice(stream, gen.PLACE_CHUNK))
        calls = _place_calls(items)
        (placements, errors), elapsed = run.timed(traced, _place_loop, calls)
        run.note_rate(traced, elapsed, len(items))
        for e in errors:
            out.fail(e)
        for (host, guest, b), placement in zip(items, placements):
            out.attempted += 1
            if placement is None:
                continue
            if traced:
                groups += placement.count
            want = nc.vmcap(host, guest, b).count
            if checks.placement_ok(host, guest, b, placement, want):
                out.ok += 1
            else:
                out.fail(f"placement for {host}/{guest} {b}")
    out.pools = {"closed_pairs": len(gen.CLOSED_PAIRS), "chunk_calls": gen.PLACE_CHUNK}
    rate = run.untraced_rate()
    out.metrics = {"ops_per_s": rate}
    out.named = {"place_calls_per_s": (rate, "1/s")}
    if run.trace:
        extra_items = list(islice(stream, PEAK_ALLOC_CALLS))
        run.finish_layers({
            "placement.groups_emitted": groups / max(1, len(run.traced_s_per_op)),
            "placement.peak_alloc_mb": _peak_alloc_mb(_place_calls(extra_items)),
        })
    return out


# --------------------------------------------------------------- cluster-nodes


def _spawn(cmd, stdout_path: Path, env: dict, cwd: Path):
    """Run one child to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(
        stdout_path.with_suffix(".err"), "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _check_cluster(out: Outcome, doc_path: Path, code: int, servers, rng):
    """Check every row's shape and a seeded sample against the solver.

    Returns the share of rows the program answered without an error row.
    """
    n = len(servers)
    out.attempted += n
    if code != 0:
        out.fail(f"numacap cluster exited {code}", n)
        return 0.0
    try:
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        rows = doc["servers"]
    except (ValueError, KeyError) as exc:
        out.fail(f"unreadable cluster output: {exc!r}", n)
        return 0.0
    if len(rows) != n:
        out.fail(f"{len(rows)} rows for {n} servers", n)
        return 0.0
    bad = set()
    total = 0
    answered = 0
    for i, ((sid, _comps), row) in enumerate(zip(servers, rows)):
        count = row.get("count")
        if row.get("id") != sid or not isinstance(count, int) or count < 0:
            bad.add(i)
        else:
            answered += 1
            total += count
    if doc.get("total") != total:
        out.fail(f"total {doc.get('total')} != row sum {total}")
    sample = (i for i in rng.sample(range(n), n)
              if i not in bad and checks.cluster_row_checkable(servers[i][1]))
    for i in islice(sample, CLUSTER_SAMPLE_ROWS):
        if not checks.cluster_row_ok(servers[i][1], rows[i]["count"]):
            bad.add(i)
    for i in sorted(bad):
        out.fail(f"row {servers[i][0]}: {rows[i]}")
    out.ok += n - len(bad)
    return answered / n


def cluster_nodes(run: Run) -> Outcome:
    out = run.out
    flavors = run.work / "flavors.json"
    flavors.write_text(gen.flavors_text(), encoding="utf-8")
    rss = []
    ok_rows = []
    decode_s = []
    for i, traced in run.chunks():
        text, servers = gen.cluster_state(run.seed, i)
        state = run.work / f"state-{i}.json"
        state.write_text(text, encoding="utf-8")
        del text
        doc_path = run.work / f"out-{i}.json"
        summary = run.work / f"child-{i}.json"
        args = ["cluster", "--json", "--state", str(state),
                "--flavors", str(flavors), "--flavor", gen.FLAVOR["id"]]
        if run.trace:
            # both kinds of chunk time numacap.cli.main alone in a child,
            # so the overhead ratio holds the tracer's cost and nothing else
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
                   "cluster", str(summary), str(int(traced)), *args]
        else:
            cmd = [sys.executable, "-m", "numacap", *args]
        code, seconds, peak = _spawn(cmd, doc_path, run.env, run.root)
        if run.trace and code == 0:
            child = json.loads(summary.read_text(encoding="utf-8"))
            seconds = child["main_s"]
            if traced:
                run.tracer.merge(child["summary"])
                run.tracer.spans.extend(
                    tuple(s) for s in child["spans"][: MAX_SPANS - len(run.tracer.spans)]
                )
                run.embeddings.hits += child["caches"]["embeddings_hits"]
                run.embeddings.misses += child["caches"]["embeddings_misses"]
                decode_s.append(child["json_decode_s"])
        run.note_rate(traced, seconds, len(servers))
        if not traced:
            rss.append(peak)
        share = _check_cluster(
            out, doc_path, code, servers, random.Random(f"{run.seed}/sample/{i}")
        )
        if traced:
            ok_rows.append(share)
        for path in (state, doc_path, doc_path.with_suffix(".err"), summary):
            path.unlink(missing_ok=True)
    flavors.unlink(missing_ok=True)
    n = gen.CLUSTER_SERVERS
    out.pools = {"servers": n, "components_per_server": gen.COMPONENTS_PER_SERVER,
                 "cli_runs": len(rss)}
    rate = run.untraced_rate()
    peak = statistics.median(rss)
    out.metrics = {"ops_per_s": rate}
    out.named = {
        "cluster_servers_per_s": (rate, "1/s"),
        "cluster_peak_rss_mb": (peak, "MB"),
    }
    if run.trace:
        run.finish_layers({
            "cli.json_decode_s": statistics.median(decode_s) if decode_s else 0.0,
            "capacity.ok_row_ratio": statistics.median(ok_rows) if ok_rows else 0.0,
            "cli.peak_rss_mb": peak,
        })
    return out
