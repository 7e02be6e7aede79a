"""Server and cluster capacity for a VM flavor.

A server is a disjoint union of components (one interconnect topology
each, e.g. two sockets of four NUMA nodes).  Per-node guest counts come
from free resources divided by the flavor demand, and components simply
add up since no guest spans two of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import NumacapError, ResourceError, SchemaError
from .formulas import vmcap
from .topology import TopologyId, as_topology_id, check_capacities


def _is_int(value) -> bool:
    """True for an int or int subclass other than bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_id(value, path: str) -> None:
    if not isinstance(value, str) or not value:
        raise SchemaError(path, f"expected a non-empty string, got {value!r}")


@dataclass(frozen=True)
class Flavor:
    """A VM size: guest NUMA shape plus per-guest-node resource demand.

    The demand is kept as a read-only copy, so later changes to the
    caller's map cannot bypass the check.  Rejected when built:

    - an id that is not a non-empty str: SchemaError at "flavor.id";
    - a vnuma that is not a topology id or id string: TopologyError;
    - a demand that is not a non-empty mapping: ResourceError;
    - a demand amount that is not a positive integer: ResourceError,
      naming the resource.
    """

    id: str
    vnuma: TopologyId
    demand: Mapping[str, int]

    def __post_init__(self):
        _check_id(self.id, "flavor.id")
        object.__setattr__(self, "vnuma", as_topology_id(self.vnuma))
        if not isinstance(self.demand, Mapping) or not self.demand:
            raise ResourceError(
                f"flavor {self.id!r} demand must be a non-empty resource map,"
                f" got {self.demand!r}"
            )
        demand = dict(self.demand)
        for name, amount in demand.items():
            if not _is_int(amount) or amount < 1:
                raise ResourceError(
                    f"flavor {self.id!r} demand {name!r} must be a positive"
                    f" integer, got {amount!r}",
                    resource=name,
                )
        object.__setattr__(self, "demand", MappingProxyType(demand))

    def __reduce__(self):
        # a read-only map does not pickle; rebuild from a plain copy
        return type(self), (self.id, self.vnuma, dict(self.demand))


def _array(value, path: str) -> tuple:
    """Any iterable but a str or a mapping, as a tuple."""
    if type(value) is list or type(value) is tuple:
        return tuple(value)
    if not isinstance(value, (str, Mapping)):
        try:
            items = iter(value)
        except TypeError:
            pass
        else:
            return tuple(items)
    raise SchemaError(path, "expected an array")


@dataclass(frozen=True)
class ServerComponent:
    """One interconnect topology with either free resources or raw counts.

    Give `nodes` (per-node free resource maps, label order) to derive the
    capacity vector from a flavor's demand, or give `capacities` directly.
    Each node map is kept as a read-only copy.  Rejected when built:

    - a topology that is not a topology id or id string: TopologyError;
    - both or neither of nodes and capacities, either one a str, a
      mapping or not iterable, a node count other than the topology's, a
      node that is not a non-empty map, or a free amount that is not a
      non-negative integer: SchemaError, its path under "component";
    - capacities of the wrong length: DimensionError; an entry that is
      not an integer in [0, 2**32 - 1]: CapacityError, with its index.
    """

    topology: TopologyId
    nodes: Optional[tuple[Mapping[str, int], ...]] = None
    capacities: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "topology", as_topology_id(self.topology))
        if (self.nodes is None) == (self.capacities is None):
            raise SchemaError(
                "component", "give exactly one of nodes or capacities"
            )
        count = self.topology.vertex_count
        if self.nodes is None:
            caps = _array(self.capacities, "component.capacities")
            object.__setattr__(self, "capacities", check_capacities(caps, count))
            return
        nodes = _array(self.nodes, "component.nodes")
        if len(nodes) != count:
            raise SchemaError(
                "component.nodes",
                f"expected {count} node entries, got {len(nodes)}",
            )
        copies = []
        for i, free in enumerate(nodes):
            if (type(free) is not dict and not isinstance(free, Mapping)) or not free:
                raise SchemaError(
                    f"component.nodes[{i}]",
                    f"expected a non-empty resource map, got {free!r}",
                )
            free = dict(free)
            for name, amount in free.items():
                # a plain int skips the isinstance checks
                if (type(amount) is not int and not _is_int(amount)) or amount < 0:
                    raise SchemaError(
                        f"component.nodes[{i}].{name}",
                        f"free amount must be a non-negative integer,"
                        f" got {amount!r}",
                    )
            copies.append(MappingProxyType(free))
        object.__setattr__(self, "nodes", tuple(copies))

    def __reduce__(self):
        # read-only maps do not pickle; rebuild from plain copies
        nodes = None if self.nodes is None else tuple(map(dict, self.nodes))
        return type(self), (self.topology, nodes, self.capacities)


@dataclass(frozen=True)
class ServerState:
    """A server: its id and its components.

    Rejected when built, with a SchemaError: an id that is not a
    non-empty str, at "server.id", and no components, at
    "server.components".
    """

    id: str
    components: tuple[ServerComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_id(self.id, "server.id")
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise SchemaError(
                "server.components", f"server {self.id!r} needs >= 1 component"
            )


def node_capacity(free: Mapping[str, int], demand: Mapping[str, int]) -> int:
    """Guests one node can host: min over resources of free // demand.

    Resources present in `free` but not demanded are ignored; a demanded
    resource missing from `free` is an error, as is a non-positive demand.
    """
    best: Optional[int] = None
    if not demand:
        raise ResourceError("demand map is empty")
    for name, amount in demand.items():
        if not _is_int(amount) or amount < 1:
            raise ResourceError(
                f"demand {name!r} must be a positive integer, got {amount!r}"
            )
        if name not in free:
            raise ResourceError(f"node is missing demanded resource {name!r}")
        have = free[name]
        if not _is_int(have) or have < 0:
            raise ResourceError(
                f"free {name!r} must be a non-negative integer, got {have!r}"
            )
        cur = have // amount
        if best is None or cur < best:
            best = cur
    assert best is not None
    return best


def component_capacity_vector(
    component: ServerComponent, flavor: Flavor
) -> tuple[int, ...]:
    """Per-node guest counts for one component (canonical label order)."""
    if component.capacities is not None:
        return component.capacities
    nodes = component.nodes
    # the component and the flavor checked every amount when they were built
    try:
        counts = None
        for name, amount in flavor.demand.items():
            column = [free[name] // amount for free in nodes]
            counts = column if counts is None else list(map(min, counts, column))
    except KeyError:
        # node_capacity names the first missing resource in node order
        for free in nodes:
            node_capacity(free, flavor.demand)
        raise
    return tuple(counts)


def server_capacity(server: ServerState, flavor: Flavor) -> int:
    """Guests of `flavor` that fit `server`, summed over components.

    Single-node guests need no interconnect, so they contribute the plain
    sum of node counts; anything else goes through the pair/shape formulas
    with the exhaustive solver as fallback.
    """
    total = 0
    for component in server.components:
        caps = component_capacity_vector(component, flavor)
        if flavor.vnuma.vertex_count == 1:
            # vmcap checks b on every other path; this one sums it
            total += sum(check_capacities(caps, len(caps)))
        else:
            total += vmcap(component.topology, flavor.vnuma, caps).count
    return total


@dataclass(frozen=True)
class ServerCapacity:
    """One row of a cluster report; exactly one of count/error is set."""

    server_id: str
    count: Optional[int] = None
    error: Optional[str] = None


def cluster_capacity(
    servers: Sequence[ServerState], flavor: Flavor
) -> tuple[list[ServerCapacity], int]:
    """Per-server counts in input order plus the cluster total.

    A failing server (bad dimension, unsupported shape, missing resource)
    gets an error row and does not abort the rest.
    """
    rows: list[ServerCapacity] = []
    total = 0
    for server in servers:
        try:
            count = server_capacity(server, flavor)
        except NumacapError as exc:
            rows.append(ServerCapacity(server_id=server.id, error=str(exc)))
        else:
            rows.append(ServerCapacity(server_id=server.id, count=count))
            total += count
    return rows, total
