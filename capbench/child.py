"""Child processes of the benchmark.

    python capbench/child.py setup <workload>
        Import the package in a fresh interpreter, warm the lru caches the
        workload's calls fill, and print {"import_s", "warm_s"} as JSON.

    python capbench/child.py cluster <summary.json> <trace 0|1> <numacap cli args...>
        Run `numacap.cli.main`, timing that call alone, with the tracer
        installed when trace is 1.  After the timed call, write its time
        to <summary.json>; a traced run adds the trace summary, the kept
        spans and a plain json.load timing of the same state file.

Both expect the checkout's src directory on PYTHONPATH.
"""

import sys
import time


def setup(workload: str) -> None:
    start = time.perf_counter()
    import numacap as nc
    import numacap.cli  # noqa: F401  the cluster path imports it

    imported = time.perf_counter()
    import gen

    def ones(host):
        return (1,) * gen.HOST_NODES[host]

    if workload == "cluster-nodes":
        for host in gen.CLUSTER_HOSTS:
            nc.vmcap(host, gen.FLAVOR["vnuma"], ones(host))
    elif workload == "solver-fallback":
        for host, guest in gen.SOLVER_PAIRS:
            nc.vmcap(host, guest, ones(host))
    else:
        for host, guest in gen.CLOSED_PAIRS:
            nc.vmcap(host, guest, ones(host))
            if workload == "place-witness":
                nc.verify_placement(
                    nc.expand_topology(host),
                    nc.expand_topology(guest),
                    ones(host),
                    nc.Placement(()),
                )
    warmed = time.perf_counter()
    print('{"import_s": %r, "warm_s": %r}' % (imported - start, warmed - imported))


def cluster(summary_path: str, traced: bool, argv: list[str]) -> int:
    import json

    import numacap.cli
    import numacap.topology

    embeddings = numacap.topology.enumerate_embeddings
    before = embeddings.cache_info()
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = numacap.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        if traced:
            tracer.uninstall()
    after = embeddings.cache_info()
    sys.stdout.flush()
    if not traced:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s}, fh)
        return code
    start = time.perf_counter()
    with open(argv[argv.index("--state") + 1], "r", encoding="utf-8") as fh:
        json.load(fh)
    decode_s = time.perf_counter() - start
    tracer.write(summary_path, {
        "main_s": main_s,
        "json_decode_s": decode_s,
        "caches": {
            "embeddings_hits": after.hits - before.hits,
            "embeddings_misses": after.misses - before.misses,
        },
    })
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "cluster":
        sys.exit(cluster(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
