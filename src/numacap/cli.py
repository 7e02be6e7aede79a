"""Command line front end.

Capacity counts, witness placements, cluster aggregation from JSON state
files, and floor(LP) proofs with formula sweeps against them:

    numacap eval --topology cq3 --vnuma k2 --caps 30,30,30,30,30,30,30,30
    numacap place --topology k4 --vnuma k2 --caps 3,2,1,0
    numacap cluster --state cluster.json --flavors flavors.json --flavor m2
    numacap verify --topology c4 --vnuma k2 --max-cap 5
    numacap verify --topology cq3 --vnuma k2 --samples 10000 --seed 7
    numacap verify --topology l4 --vnuma c4
    numacap verify

verify proves that floor(LP), the LP bound rounded down, is the pair's
count (numacap.rounding.prove); each vector the proof fails at is a
mismatch.  A proved pair with a closed form is then swept: at each
vector its formula and its witness's size must equal oracle.floor_lp,
exact up to MAX_CAPACITY, and the witness must pass verify_placement.
Every line carries the proof's cones and simplices, and the guest as
vmcap binds it (k1_2 as star2).  With no pair named, each registry
instance is swept over its own range, then formulas.FULL_RANGE, or over
the one sweep --max-cap and --samples give.  Then every graph pair that
vmcap counts by floor(LP) (formulas.lp_pairs, 225 pairs, named by
canonical ids) is proved: 244 lines, in about 15 s on two cores.  The
prover stops at 8 host nodes, so a host family's formula is checked on
its instances of 8 nodes or fewer.
`place` prints the witness as runs, {"count": N, "runs": [[[node, ...],
copies], ...]}: each run is a node group and how many guests it
carries.  Timing is the benchmark's job (capbench/run.py).

Capacity lists are always given in canonical label order 1..n (see the
topology module for the labelings).  Exit codes: 0 success, 1 verification
found a mismatch or the proof was refused, 2 bad usage or bad input.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from itertools import chain, product
from typing import Optional, Sequence

from .capacity import ClusterState, Flavor, cluster_capacity, flavors_from_document
from .errors import NumacapError, PlacementError, ScaleLimitError, SchemaError
from .formulas import FULL_RANGE, INSTANCES, closed_form_evaluator, lp_pairs, vmcap
from .topology import (MAX_CAPACITY, TopologyId, canonical_id, expand_topology,
                       parse_topology)

_EXHAUSTIVE_LIMIT = 2_000_000


def _parse_caps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise SchemaError("--caps", f"expected comma-separated integers, got {text!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a burst of acyclic objects.

    A state file decodes to a few hundred thousand dicts and lists, and
    its columns, counts and rows add a few hundred thousand more.  None
    of them form a cycle, yet left on, the collector rescans the decoded
    document again and again while the rest is built, which takes about
    as long as the checks.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_cluster_state(path: str) -> ClusterState:
    """ClusterState.from_document of a decoded state file."""
    return ClusterState.from_document(_load_json(path))


def load_flavors(path: str) -> dict[str, Flavor]:
    """flavors_from_document of a decoded flavor file."""
    return flavors_from_document(_load_json(path))


def cmd_eval(args) -> int:
    caps = _parse_caps(args.caps)
    result = vmcap(args.topology, args.vnuma, caps)
    if args.json:
        print(
            json.dumps(
                {
                    "topology": args.topology,
                    "vnuma": args.vnuma,
                    "caps": list(caps),
                    "count": result.count,
                    "via": result.via,
                }
            )
        )
    else:
        print(result.count)
    return 0


def cmd_place(args) -> int:
    from .placement import place_vnuma

    caps = _parse_caps(args.caps)
    placement = place_vnuma(args.topology, args.vnuma, caps)
    print(json.dumps({"count": placement.count, "runs": placement.runs}))
    return 0


@_collector_paused()
def cmd_cluster(args) -> int:
    state = load_cluster_state(args.state)
    flavors = load_flavors(args.flavors)
    if args.flavor not in flavors:
        raise SchemaError(
            "--flavor",
            f"unknown flavor {args.flavor!r}; file defines {sorted(flavors)}",
        )
    rows, total = cluster_capacity(state, flavors[args.flavor])
    failed = [r for r in rows if r.error is not None]
    if args.json:
        doc = {
            "flavor": args.flavor,
            "servers": [
                {"id": r.server_id, "count": r.count}
                if r.error is None
                else {"id": r.server_id, "error": r.error}
                for r in rows
            ],
            "total": total,
        }
        print(json.dumps(doc))
    else:
        width = max(len("server"), max((len(r.server_id) for r in rows), default=0))
        print(f"{'server'.ljust(width)}  capacity")
        for r in rows:
            value = str(r.count) if r.error is None else f"error: {r.error}"
            print(f"{r.server_id.ljust(width)}  {value}")
        print(f"{'total'.ljust(width)}  {total}")
    if failed:
        for r in failed:
            print(f"error: server {r.server_id}: {r.error}", file=sys.stderr)
        return 2
    return 0


def _pairs(args) -> list:
    """(host, guest, sweeps) for each registry instance, then each of
    lp_pairs() with no sweep, or for the named pair alone, the guest
    canonical.  An instance's sweeps are its own and FULL_RANGE, unless
    the flags give one.  A named host past the prover's node limit raises
    ScaleLimitError, and a sweep flag on a named pair without a formula
    SchemaError."""
    flags = (args.max_cap, args.samples)
    if args.topology is None and args.vnuma is None:
        return [(parse_topology(host), canonical_id(guest),
                 (sweep, FULL_RANGE) if flags == (None, None) else (flags,))
                for host, guest, sweep in INSTANCES] + [
                (host, guest, ()) for host, guest in lp_pairs()]
    if args.topology is None or args.vnuma is None:
        raise SchemaError(
            "--topology" if args.topology is None else "--vnuma",
            "give --topology and --vnuma together, or neither",
        )
    from .oracle import MAX_ORACLE_VERTICES, refuse_host

    tid, gid = parse_topology(args.topology), canonical_id(args.vnuma)
    if tid.vertex_count > MAX_ORACLE_VERTICES:
        # the prover refuses the host whatever the vectors hold, so this
        # comes before any vector is drawn
        refuse_host()
    if closed_form_evaluator(tid, gid) is not None:
        return [(tid, gid, (flags,))]
    for flag, value in (("--max-cap", args.max_cap),
                        ("--samples", args.samples), ("--seed", args.seed)):
        if value is not None:
            raise SchemaError(flag, f"{tid}/{gid} has no closed form; it is"
                                    " proved, not swept")
    return [(tid, gid, ())]


def _sweep(n: int, max_cap: Optional[int], samples: Optional[int], seed: int):
    """The capacity vectors of one verify sweep, and its mode.  Drawn
    over the full range, each entry takes a bit length uniform in 0..32,
    so zeros and small entries meet large ones."""
    if max_cap is not None and not 0 <= max_cap <= MAX_CAPACITY:
        raise SchemaError("--max-cap", "must be >= 0" if max_cap < 0
                          else f"must be <= {MAX_CAPACITY}")
    if samples is not None:
        if samples < 1:
            raise SchemaError("--samples", "must be >= 1")
        import random

        cap = max_cap if max_cap is not None else 20
        rng = random.Random(seed)
        bits = cap.bit_length() if cap == MAX_CAPACITY else 0
        vectors = (
            tuple(rng.getrandbits(rng.randint(0, bits)) if bits
                  else rng.randint(0, cap) for _ in range(n))
            for _ in range(samples)
        )
        return vectors, "random"
    if max_cap is None:
        raise SchemaError(
            "verify", "give --max-cap for an exhaustive sweep or --samples"
        )
    total = (max_cap + 1) ** n
    if total > _EXHAUSTIVE_LIMIT:
        raise ScaleLimitError(
            f"exhaustive sweep of {total} vectors is too large; use --samples"
        )
    return product(range(max_cap + 1), repeat=n), "exhaustive"


def _prove(tid: TopologyId, gid: TopologyId) -> dict:
    """The floor(LP) proof of a pair, as a verify document: each vector
    the proof fails at is an example with floor(LP) as its formula and
    the plain search's count as its oracle."""
    from .rounding import prove  # only here, so importing the cli loads no prover

    proof = prove(expand_topology(tid), expand_topology(gid))
    return {"topology": str(tid), "vnuma": str(gid), "mode": "proof",
            "cases": proof.base_points, "mismatches": len(proof.failures),
            "examples": [{"caps": list(bv), "formula": lp, "oracle": count,
                          "witness": None}
                         for bv, (lp, count) in proof.failures.items()],
            "cones": proof.cones, "simplices": proof.simplices}


def _check(tid: TopologyId, gid: TopologyId, sweeps: list) -> dict:
    """The mode, cases, mismatches and examples of a proved pair's sweeps:
    on each vector, its closed form and the size of the witness `place`
    prints are compared with floor(LP), which the proof made its count,
    and the witness must pass verify_placement."""
    from .oracle import floor_lp
    from .placement import place_vnuma, verify_placement

    fn = closed_form_evaluator(tid, gid)
    host, guest = expand_topology(tid), expand_topology(gid)
    lp = floor_lp(host, guest)
    doc = {"mode": "+".join(mode for _, mode in sweeps), "cases": 0,
           "mismatches": 0, "examples": []}
    for bv in chain.from_iterable(vectors for vectors, _ in sweeps):
        doc["cases"] += 1
        want = lp(bv)
        got = fn(bv)
        try:
            placement = place_vnuma(tid, gid, bv)
            verify_placement(host, guest, bv, placement)
            fault = None if placement.count == want else f"places {placement.count}"
        except PlacementError as exc:
            fault = str(exc)
        if got != want or fault:
            doc["mismatches"] += 1
            if len(doc["examples"]) < 5:
                doc["examples"].append({"caps": list(bv), "formula": got,
                                        "oracle": want, "witness": fault})
    return doc


def cmd_verify(args) -> int:
    docs = []
    for tid, gid, sweeps in _pairs(args):
        # the flags are checked before the proof runs
        sweeps = [_sweep(tid.vertex_count, max_cap, samples, args.seed or 0)
                  for max_cap, samples in sweeps]
        doc = _prove(tid, gid)
        if sweeps and not doc["mismatches"]:
            doc.update(_check(tid, gid, sweeps))
        docs.append(doc)

    if args.json:
        # one document for a named pair, an array for the registry
        print(json.dumps(docs if args.topology is None else docs[0]))
    else:
        for doc in docs:
            print(f"{doc['topology']}/{doc['vnuma']} {doc['mode']}:"
                  f" {doc['cases']} cases, {doc['mismatches']} mismatches"
                  f" ({doc['cones']} cones, {doc['simplices']} simplices)")
            for ex in doc["examples"]:
                print(f"  caps={ex['caps']} formula={ex['formula']}"
                      f" oracle={ex['oracle']}"
                      + (f" witness: {ex['witness']}" if ex["witness"] else ""))
    return 1 if any(doc["mismatches"] for doc in docs) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numacap",
        description="NUMA-aware VM capacity: closed-form counts, witness"
        " placements, cluster totals, and floor(LP) proofs with formula"
        " sweeps against them.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Capacity lists follow canonical node label order 1..n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="count guests that fit a host topology")
    p.add_argument("--topology", required=True, help="host topology id, e.g. cq3")
    p.add_argument("--vnuma", required=True, help="guest shape id, e.g. k2")
    p.add_argument("--caps", required=True, help="comma-separated node counts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("place", help="print a witness placement as JSON")
    p.add_argument("--topology", required=True)
    p.add_argument("--vnuma", required=True)
    p.add_argument("--caps", required=True)
    p.add_argument("--json", action="store_true", help="accepted for symmetry")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("cluster", help="aggregate capacity over a cluster file")
    p.add_argument("--state", required=True, help="cluster state JSON path")
    p.add_argument("--flavors", required=True, help="flavor definitions JSON path")
    p.add_argument("--flavor", required=True, help="flavor id to evaluate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "verify", help="prove floor(LP) is the count, and sweep formulas against it"
    )
    p.add_argument("--topology", help="host id; omit both ids for every pair")
    p.add_argument("--vnuma", help="guest id")
    p.add_argument(
        "--max-cap",
        type=int,
        default=None,
        help="exhaustive sweep bound, or value range for --samples (default 20)",
    )
    p.add_argument("--samples", type=int, default=None, help="random vector count")
    p.add_argument("--seed", type=int, default=None, help="--samples seed (default 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NumacapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
