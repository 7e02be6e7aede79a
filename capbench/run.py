#!/usr/bin/env python3
"""numacap benchmark: one workload per run, end-to-end or traced.

    python3 capbench/run.py --workload vmcap-closed --seed 1 --seconds 20 --trace 0
    python3 capbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the root of a checkout; the package is imported from ./src.
Prints a readable report, a `meta:` line with the run metadata, and as
the last line one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Exits 1 when any answer fails its check, 2 when the
package cannot be found.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import deadline
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".capbench_work"
RUN_SECONDS = 25


def _workloads() -> dict[str, str]:
    """Each workload with why it was chosen and its pool sizes."""
    block = len(gen.SOLVER_PAIRS) * len(gen.SOLVER_SUMS)
    return {
        "cluster-nodes": (
            f"Production roll-up, one numacap cluster --json child per"
            f" {gen.CLUSTER_SERVERS} servers x {gen.COMPONENTS_PER_SERVER}"
            f" components of resource maps: cli parsing and capacity vectors"
            f" dominate, oracle idle."
        ),
        "vmcap-closed": (
            f"Per-decision query: vmcap on all {len(gen.CLOSED_PAIRS)}"
            f" closed-form pairs, entries 0..256 up to 2^32-1,"
            f" {gen.CLOSED_CHUNK} calls a chunk: formula dispatch and topology"
            f" parsing dominate."
        ),
        "solver-fallback": (
            f"Only oracle workload: {len(gen.SOLVER_PAIRS)} pairs without a"
            f" closed form x sums {gen.SOLVER_SUMS[0]}..{gen.SOLVER_SUMS[-1]},"
            f" {block} calls a block, {deadline.LIMIT_S} s per-call limit,"
            f" slow inputs kept."
        ),
        "place-witness": (
            f"Witness placements on the vmcap-closed pairs, caps 0..256,"
            f" {gen.PLACE_CHUNK} calls a chunk: the placement layer, which no"
            f" other workload calls."
        ),
    }


WORKLOADS = _workloads()

# (name, unit, better, bound); the same three on every workload, see README.md
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.1),
)


def _per_layer():
    layer = [
        ("cli.load_state_s", "s"),
        ("cli.json_decode_s", "s"),
        ("cli.report_s", "s"),
        ("cli.import_s", "s"),
        ("cli.peak_rss_mb", "MB"),
        ("capacity.cluster_capacity_s", "s"),
        ("capacity.vector_s", "s"),
        ("capacity.node_capacity_calls", "count"),
        ("capacity.ok_row_ratio", "ratio"),
        ("formulas.vmcap_calls", "count"),
        ("formulas.vmcap_self_s", "s"),
        ("formulas.evaluator_lookup_s", "s"),
        ("formulas.raw_eval_ns", "ns"),
        ("formulas.dispatch_ratio", "ratio"),
        ("formulas.closed_form_share", "ratio"),
        ("topology.parse_s", "s"),
        ("topology.check_capacities_s", "s"),
        ("topology.embeddings_hit_ratio", "ratio"),
        ("oracle.calls", "count"),
        ("oracle.solve_s", "s"),
        ("oracle.statics_hit_ratio", "ratio"),
    ]
    layer += [(f"oracle.late.{h}-{g}", "count") for h, g in gen.SOLVER_PAIRS]
    layer += [
        ("placement.calls", "count"),
        ("placement.s", "s"),
        ("placement.groups_emitted", "count"),
        ("placement.peak_alloc_mb", "MB"),
    ]
    layer += [(f"{name}.self_s", "s") for name in
              ("cli", "capacity", "formulas", "topology", "oracle", "placement")]
    layer.append(("trace.overhead_ratio", "ratio"))
    return tuple(layer)


# per-layer metrics where more is better; for every other one less is
LAYER_HIGHER = {"capacity.ok_row_ratio", "formulas.closed_form_share",
                "topology.embeddings_hit_ratio", "oracle.statics_hit_ratio"}


def manifest() -> dict:
    return {
        "command": ["python3", "capbench/run.py"],
        "paths": ["capbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n in LAYER_HIGHER else "lower"}
            for n, u in _per_layer()
        ],
    }


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numacap
    except ImportError as exc:
        print(f"error: cannot import numacap from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(numacap.__file__).resolve().parent != ROOT / "src" / "numacap":
        print(f"error: numacap imported from {numacap.__file__}, not ./src",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="numacap benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n", encoding="utf-8"
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    _import_package()
    import workloads

    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        ROOT, WORK)
    out = getattr(workloads, args.workload.replace("-", "_"))(run)

    units = {n: u for n, u, _b, _bound in END_TO_END}
    e2e = dict(out.metrics, setup_s=statistics.median(run.setup_s),
               ok_ratio=out.ok / out.attempted)
    named = dict(out.named, error_ratio=(out.failed / out.attempted, "ratio"))
    layer_units = dict(_per_layer())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "latency_limit_s": deadline.LIMIT_S,
        "pools": out.pools,
        "wall_s": time.perf_counter() - started,
    }

    print(f"workload {args.workload} seed {args.seed}: "
          f"{out.attempted} attempted, {out.failed} failed, {out.ok} ok")
    for name, (value, unit) in named.items():
        print(f"  {name:28} {value:14.6g} {unit}")
    for name in units:
        print(f"  {name:28} {e2e[name]:14.6g} {units[name]}")
    for error in out.errors:
        print(f"  FAILED: {error}")
    if args.trace:
        layer = dict(out.layer, **{"cli.import_s": statistics.median(run.import_s)})
        metrics = {n: {"value": layer.get(n, 0), "unit": u}
                   for n, u in layer_units.items()}
        for name, m in metrics.items():
            print(f"  {name:34} {m['value']:14.6g} {m['unit']}")
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        run.tracer.write(str(trace_path), {"meta": meta, "layer": metrics})
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in units.items()}
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
