"""Command line front end.

Capacity counts, witness placements, cluster aggregation from JSON state
files, and formula-vs-solver verification sweeps:

    numacap eval --topology cq3 --vnuma k2 --caps 30,30,30,30,30,30,30,30
    numacap place --topology k4 --vnuma k2 --caps 3,2,1,0
    numacap cluster --state cluster.json --flavors flavors.json --flavor m2
    numacap verify --topology c4 --vnuma k2 --max-cap 5
    numacap verify --topology cq3 --vnuma k2 --samples 10000 --seed 7
    numacap verify

Without --topology and --vnuma, verify runs every instance of the pair
registry over each entry's range unless --max-cap or --samples is given.
`place` answers wherever `eval` does and prints the witness as runs,
{"count": N, "runs": [[[node, ...], copies], ...]}: each run is a node
group and how many guests it carries, so the output grows with the
distinct groups, not with the count.  verify checks each witness along
with each count.  Timing is the benchmark's job (capbench/run.py),
not this command's.

Capacity lists are always given in canonical label order 1..n (see the
topology module for the labelings).  Exit codes: 0 success, 1 verification
found a mismatch, 2 bad usage or bad input.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from contextlib import contextmanager
from itertools import product
from typing import Optional, Sequence

from .capacity import Flavor, ServerComponent, ServerState, cluster_capacity
from .errors import (
    CapacityError,
    DimensionError,
    NumacapError,
    PlacementError,
    ResourceError,
    ScaleLimitError,
    SchemaError,
    TopologyError,
)
from .formulas import INSTANCES, closed_form_evaluator, place_vnuma, vmcap
from .oracle import MAX_ORACLE_TOTAL_CAPACITY, oracle_vmcap
from .placement import verify_placement
from .topology import TopologyId, expand_topology, parse_topology

_PAST_SOLVER = f"sum(b) > {MAX_ORACLE_TOTAL_CAPACITY}, the solver's limit"
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
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a burst of acyclic objects.

    A state file decodes to a few hundred thousand dicts and lists, and
    the servers built from it are as many again.  None of them form a
    cycle, yet left on, the collector rescans them again and again while
    they are built and counted, which takes about as long as the checks.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_cluster_state(path: str) -> list[ServerState]:
    """Parse a cluster state document.

    {"servers": [{"id": str, "components": [
        {"topology": str, "nodes": [{resource: int, ...}, ...]}
      or {"topology": str, "capacities": [int, ...]}, ...]}, ...]}
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    servers = doc.get("servers")
    if not isinstance(servers, list) or not servers:
        raise SchemaError("servers", "expected a non-empty array")
    out = []
    seen_ids = set()
    for i, sv in enumerate(servers):
        path_i = f"servers[{i}]"
        if not isinstance(sv, dict):
            raise SchemaError(path_i, "expected an object")
        comps_doc = sv.get("components")
        if not isinstance(comps_doc, list) or not comps_doc:
            raise SchemaError(f"{path_i}.components", "expected a non-empty array")
        comps = []
        for j, cd in enumerate(comps_doc):
            comps.append(_parse_component(cd, f"{path_i}.components[{j}]"))
        try:
            server = ServerState(id=sv.get("id"), components=tuple(comps))
        except SchemaError as exc:
            # its paths start with "server"; put this document path there
            raise SchemaError(path_i + exc.path[len("server"):], exc.message) from None
        if server.id in seen_ids:
            raise SchemaError(f"{path_i}.id", f"duplicate server id {server.id!r}")
        seen_ids.add(server.id)
        out.append(server)
    return out


def _parse_component(doc, path: str) -> ServerComponent:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    try:
        return ServerComponent(
            topology=doc.get("topology"),
            nodes=doc.get("nodes"),
            capacities=doc.get("capacities"),
        )
    except SchemaError as exc:
        # its paths start with "component"; put this document path there
        raise SchemaError(path + exc.path[len("component"):], exc.message) from None
    except TopologyError as exc:
        raise SchemaError(f"{path}.topology", str(exc)) from None
    except DimensionError as exc:
        raise SchemaError(f"{path}.capacities", str(exc)) from None
    except CapacityError as exc:
        raise SchemaError(f"{path}.capacities[{exc.index}]", str(exc)) from None


def load_flavors(path: str) -> dict[str, Flavor]:
    """Parse a flavor document.

    {"flavors": [{"id": str, "vnuma": str, "demand": {resource: int}}, ...]}
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    flavors_doc = doc.get("flavors")
    if not isinstance(flavors_doc, list) or not flavors_doc:
        raise SchemaError("flavors", "expected a non-empty array")
    out: dict[str, Flavor] = {}
    for i, fd in enumerate(flavors_doc):
        path_i = f"flavors[{i}]"
        if not isinstance(fd, dict):
            raise SchemaError(path_i, "expected an object")
        try:
            flavor = Flavor(
                id=fd.get("id"), vnuma=fd.get("vnuma"), demand=fd.get("demand")
            )
        except SchemaError as exc:
            # its paths start with "flavor"; put this document path there
            raise SchemaError(path_i + exc.path[len("flavor"):], exc.message) from None
        except TopologyError as exc:
            raise SchemaError(f"{path_i}.vnuma", str(exc)) from None
        except ResourceError as exc:
            where = "" if exc.resource is None else f".{exc.resource}"
            raise SchemaError(f"{path_i}.demand{where}", str(exc)) from None
        if flavor.id in out:
            raise SchemaError(f"{path_i}.id", f"duplicate flavor id {flavor.id!r}")
        out[flavor.id] = flavor
    return out


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
    caps = _parse_caps(args.caps)
    placement = place_vnuma(args.topology, args.vnuma, caps)
    print(json.dumps({"count": placement.count, "runs": placement.runs}))
    return 0


@_collector_paused()
def cmd_cluster(args) -> int:
    servers = load_cluster_state(args.state)
    flavors = load_flavors(args.flavors)
    if args.flavor not in flavors:
        raise SchemaError(
            "--flavor",
            f"unknown flavor {args.flavor!r}; file defines {sorted(flavors)}",
        )
    rows, total = cluster_capacity(servers, flavors[args.flavor])
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
    """(host, guest, registry entry) for each registry instance when no id
    is given, else for the named pair alone, with the entry None."""
    if args.topology is None and args.vnuma is None:
        return [(parse_topology(host), parse_topology(guest), pair)
                for host, guest, pair in INSTANCES]
    if args.topology is None or args.vnuma is None:
        raise SchemaError(
            "--topology" if args.topology is None else "--vnuma",
            "give --topology and --vnuma together, or neither",
        )
    tid, gid = parse_topology(args.topology), parse_topology(args.vnuma)
    if closed_form_evaluator(tid, gid) is None:
        raise TopologyError(f"no closed-form evaluator for pair {tid}/{gid}")
    return [(tid, gid, None)]


def _sweep(n: int, max_cap: Optional[int], samples: Optional[int], seed: int):
    """The capacity vectors of one verify sweep, and its mode."""
    if max_cap is not None and max_cap < 0:
        raise SchemaError("--max-cap", "must be >= 0")
    if samples is not None:
        if samples < 1:
            raise SchemaError("--samples", "must be >= 1")
        cap = max_cap if max_cap is not None else 20
        rng = random.Random(seed)
        vectors = (
            tuple(rng.randint(0, cap) for _ in range(n)) for _ in range(samples)
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


def _verify(tid: TopologyId, gid: TopologyId, vectors, mode: str) -> dict:
    """Compare the pair's closed form and witness against the solver on
    every vector the solver takes; the others are counted as skipped, and
    a sweep of nothing but those raises."""
    fn = closed_form_evaluator(tid, gid)
    host, guest = expand_topology(tid), expand_topology(gid)
    doc = {"topology": str(tid), "vnuma": str(gid), "mode": mode,
           "cases": 0, "skipped": 0, "mismatches": 0, "examples": []}
    for bv in vectors:
        if sum(bv) > MAX_ORACLE_TOTAL_CAPACITY:
            doc["skipped"] += 1
            continue
        doc["cases"] += 1
        want = oracle_vmcap(host, guest, bv).count
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
    if doc["skipped"] and not doc["cases"]:
        raise ScaleLimitError(f"all {doc['skipped']} vectors have {_PAST_SOLVER}")
    return doc


def cmd_verify(args) -> int:
    docs = []
    for tid, gid, pair in _pairs(args):
        max_cap, samples = args.max_cap, args.samples
        if pair is not None and max_cap is None and samples is None:
            max_cap, samples = pair.max_cap, pair.samples
        vectors, mode = _sweep(tid.vertex_count, max_cap, samples, args.seed)
        docs.append(_verify(tid, gid, vectors, mode))

    if args.json:
        # one document for a named pair, an array for the registry
        print(json.dumps(docs if args.topology is None else docs[0]))
    else:
        for doc in docs:
            line = (f"{doc['topology']}/{doc['vnuma']} {doc['mode']}:"
                    f" {doc['cases']} cases, {doc['mismatches']} mismatches")
            if doc["skipped"]:
                line += f", skipped {doc['skipped']} ({_PAST_SOLVER})"
            print(line)
            for ex in doc["examples"]:
                print(f"  caps={ex['caps']} formula={ex['formula']}"
                      f" oracle={ex['oracle']}"
                      + (f" witness: {ex['witness']}" if ex["witness"] else ""))
    return 1 if any(doc["mismatches"] for doc in docs) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numacap",
        description="NUMA-aware VM capacity: closed-form counts, witness"
        " placements, cluster totals, and formula-vs-solver sweeps.",
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

    p = sub.add_parser("verify", help="compare formulas against the solver")
    p.add_argument("--topology", help="host id; omit both ids for every pair")
    p.add_argument("--vnuma", help="guest id")
    p.add_argument(
        "--max-cap",
        type=int,
        default=None,
        help="exhaustive sweep bound, or value range for --samples (default 20)",
    )
    p.add_argument("--samples", type=int, default=None, help="random vector count")
    p.add_argument("--seed", type=int, default=0)
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
