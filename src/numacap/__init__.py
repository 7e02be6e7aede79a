"""NUMA-aware VM capacity: constant-time counts with an exhaustive checker.

Answers how many virtual machines of a multi-node flavor fit a multi-node
server, where every guest NUMA node must land on a distinct, directly
linked pair (or cycle, or clique) of host NUMA nodes.  Counts come from
closed-form expressions over the per-node capacities; a brute-force
solver provides ground truth for tests, witness placements show the
counts are attainable, and server/cluster helpers aggregate over
components and machines.

`import numacap` loads the topology, formula and capacity modules; the
solver (numacap.oracle) and the witness rules (numacap.placement) load
on first use of one of their names.
"""

from .capacity import (
    Flavor,
    ServerCapacity,
    ServerComponent,
    ServerState,
    cluster_capacity,
    component_capacity_vector,
    node_capacity,
    server_capacity,
)
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
from .formulas import (
    VmcapResult,
    closed_form_evaluator,
    normalize_capacities,
    partial_means,
    vmcap,
    vmcap_c4_k2,
    vmcap_cq3_c4,
    vmcap_cq3_k2,
    vmcap_k4_k2,
    vmcap_k4_k3,
    vmcap_kmn_k2,
    vmcap_kn_kk_min,
    vmcap_kn_kk_rec,
    vmcap_l4_k2,
    vmcap_q33_c4,
    vmcap_q33_k2,
)
from .topology import (
    C4,
    CQ3,
    K2,
    K3,
    K4,
    L4,
    MAX_CAPACITY,
    Q33,
    Graph,
    TopologyId,
    as_topology_id,
    canonical_id,
    check_capacities,
    enumerate_embeddings,
    expand_topology,
    km_n,
    kn,
    merge_twin_vertices,
    parse_topology,
    star,
)

__version__ = "0.1.0"

# Names of the solver and placement modules, loaded on first access (PEP
# 562) so that a count imports neither; each is bound here once loaded.
_LAZY = {
    "oracle": "oracle",
    "OracleSolution": "oracle",
    "expand_to_simple_matching": "oracle",
    "maximum_matching_size": "oracle",
    "oracle_vmcap": "oracle",
    "placement": "placement",
    "Placement": "placement",
    "place_c4_vnuma": "placement",
    "place_k2": "placement",
    "place_kn_kk": "placement",
    "place_vnuma": "placement",
    "verify_placement": "placement",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "C4",
    "CQ3",
    "CapacityError",
    "DimensionError",
    "Flavor",
    "Graph",
    "K2",
    "K3",
    "K4",
    "L4",
    "MAX_CAPACITY",
    "NumacapError",
    "OracleSolution",
    "Placement",
    "PlacementError",
    "Q33",
    "ResourceError",
    "ScaleLimitError",
    "SchemaError",
    "ServerCapacity",
    "ServerComponent",
    "ServerState",
    "TopologyError",
    "TopologyId",
    "VmcapResult",
    "as_topology_id",
    "canonical_id",
    "check_capacities",
    "closed_form_evaluator",
    "cluster_capacity",
    "component_capacity_vector",
    "enumerate_embeddings",
    "expand_to_simple_matching",
    "expand_topology",
    "km_n",
    "kn",
    "maximum_matching_size",
    "merge_twin_vertices",
    "node_capacity",
    "normalize_capacities",
    "oracle_vmcap",
    "parse_topology",
    "partial_means",
    "place_c4_vnuma",
    "place_k2",
    "place_kn_kk",
    "place_vnuma",
    "server_capacity",
    "star",
    "verify_placement",
    "vmcap",
    "vmcap_c4_k2",
    "vmcap_cq3_c4",
    "vmcap_cq3_k2",
    "vmcap_k4_k2",
    "vmcap_k4_k3",
    "vmcap_kmn_k2",
    "vmcap_kn_kk_min",
    "vmcap_kn_kk_rec",
    "vmcap_l4_k2",
    "vmcap_q33_c4",
    "vmcap_q33_k2",
]
