"""Server and cluster capacity for a VM flavor.

A server is a disjoint union of components (one interconnect topology
each, e.g. two sockets of four NUMA nodes).  Per-node guest counts come
from free resources divided by the flavor demand, and components simply
add up since no guest spans two of them.  A cluster is rolled up as a
`ClusterState`: one column of amounts per resource for the whole cluster,
so a node count is a whole-column pass, not a per-node call.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress, repeat
from operator import floordiv, is_, is_not, mul, not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    CapacityError,
    DimensionError,
    NumacapError,
    ResourceError,
    SchemaError,
    TopologyError,
)
from .formulas import vmcap
from .topology import TopologyId, as_topology_id, check_capacities


@classmethod
def _checked_make(cls, iterable):
    """_make of a named tuple checked when built: _replace builds through
    _make, so a replaced field is checked too."""
    return cls(*iterable)


def _is_int(value) -> bool:
    """True for an int or int subclass other than bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_id(value, path: str) -> None:
    if not isinstance(value, str) or not value:
        raise SchemaError(path, f"expected a non-empty string, got {value!r}")


class _FlavorFields(NamedTuple):
    id: str
    vnuma: TopologyId
    demand: Mapping[str, int]


class Flavor(_FlavorFields):
    """A VM size: guest NUMA shape plus per-guest-node resource demand.

    The demand is kept as a read-only copy, so later changes to the
    caller's map cannot bypass the check.  Rejected when built:

    - an id that is not a non-empty str: SchemaError at "flavor.id";
    - a vnuma that is not a topology id or id string: TopologyError;
    - a demand that is not a non-empty mapping: ResourceError;
    - a demand amount that is not a positive integer: ResourceError,
      naming the resource.
    """

    __slots__ = ()

    def __new__(cls, id: str, vnuma: Union[TopologyId, str], demand: Mapping[str, int]):
        _check_id(id, "flavor.id")
        vnuma = as_topology_id(vnuma)
        if not isinstance(demand, Mapping) or not demand:
            raise ResourceError(
                f"flavor {id!r} demand must be a non-empty resource map,"
                f" got {demand!r}"
            )
        demand = dict(demand)
        for name, amount in demand.items():
            if not _is_int(amount) or amount < 1:
                raise ResourceError(
                    f"flavor {id!r} demand {name!r} must be a positive"
                    f" integer, got {amount!r}",
                    resource=name,
                )
        return tuple.__new__(cls, (id, vnuma, MappingProxyType(demand)))

    _make = _checked_make

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


class _ComponentFields(NamedTuple):
    topology: TopologyId
    nodes: Optional[tuple[Mapping[str, int], ...]] = None
    capacities: Optional[tuple[int, ...]] = None


class ServerComponent(_ComponentFields):
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

    ClusterState.from_document screens whole documents by these rules
    first; a rule changed here must be changed in its screen too.
    """

    __slots__ = ()

    def __new__(cls, topology: Union[TopologyId, str],
                nodes: Optional[Iterable[Mapping[str, int]]] = None,
                capacities: Optional[Iterable[int]] = None):
        topology = as_topology_id(topology)
        if (nodes is None) == (capacities is None):
            raise SchemaError(
                "component", "give exactly one of nodes or capacities"
            )
        count = topology.vertex_count
        if nodes is None:
            caps = _array(capacities, "component.capacities")
            return tuple.__new__(cls, (topology, None, check_capacities(caps, count)))
        nodes = _array(nodes, "component.nodes")
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
        return tuple.__new__(cls, (topology, tuple(copies), None))

    _make = _checked_make

    def __reduce__(self):
        # read-only maps do not pickle; rebuild from plain copies
        nodes = None if self.nodes is None else tuple(map(dict, self.nodes))
        return type(self), (self.topology, nodes, self.capacities)


class _ServerFields(NamedTuple):
    id: str
    components: tuple[ServerComponent, ...] = ()


class ServerState(_ServerFields):
    """A server: its id and its components.

    Rejected when built, with a SchemaError: an id that is not a
    non-empty str, at "server.id", and no components, at
    "server.components".
    """

    __slots__ = ()

    def __new__(cls, id: str, components: Iterable[ServerComponent] = ()):
        _check_id(id, "server.id")
        components = tuple(components)
        if not components:
            raise SchemaError(
                "server.components", f"server {id!r} needs >= 1 component"
            )
        return tuple.__new__(cls, (id, components))

    _make = _checked_make


class ClusterState(NamedTuple):
    """Servers as one table of whole-cluster columns, in document order.

    - `ids`: the server ids;
    - `spans`: server i holds components spans[i]:spans[i + 1];
    - `topologies`: each component's topology id, as its canonical
      string (str of the TopologyId);
    - `offsets`: component c holds nodes offsets[c]:offsets[c + 1], an
      empty span for a component given as capacities;
    - `columns`: per resource name, every node's free amount, None where
      the node lacks that resource;
    - `capacities`: component index to the checked vector, for each
      component given as capacities.

    The table is trusted as checked: build it with `from_servers` or
    `from_document`, and do not change its lists.
    """

    ids: tuple[str, ...]
    spans: tuple[int, ...]
    topologies: tuple[str, ...]
    offsets: tuple[int, ...]
    columns: Mapping[str, list]
    capacities: Mapping[int, tuple[int, ...]]

    @classmethod
    def from_servers(cls, servers: Iterable[ServerState]) -> "ClusterState":
        """Gather built servers into the table."""
        servers = tuple(servers)
        components = [c for s in servers for c in s.components]
        nodes = [free for c in components if c.nodes is not None for free in c.nodes]
        return cls(
            ids=tuple(s.id for s in servers),
            spans=tuple(accumulate((len(s.components) for s in servers), initial=0)),
            topologies=tuple(str(c.topology) for c in components),
            offsets=tuple(accumulate(
                (0 if c.nodes is None else len(c.nodes) for c in components),
                initial=0,
            )),
            columns={
                name: [free.get(name) for free in nodes]
                for name in dict.fromkeys(chain.from_iterable(nodes))
            },
            capacities={
                i: c.capacities
                for i, c in enumerate(components)
                if c.capacities is not None
            },
        )

    @classmethod
    def from_document(cls, doc) -> "ClusterState":
        """The table of a decoded state document, screened in column
        passes; only a refused document is read again through the
        constructors, to raise SchemaError at its first fault's path.

        {"servers": [{"id": str, "components": [
            {"topology": str, "nodes": [{resource: int, ...}, ...]}
          or {"topology": str, "capacities": [int, ...]}, ...]}, ...]}
        """
        return _screen(doc) or cls.from_servers(_read(doc, "servers", _server).values())


def _screen(doc) -> Optional[ClusterState]:
    """from_document's table, or None if the document breaks a rule of
    ServerState or ServerComponent or repeats a server id, found in
    whole-list passes with no per-node copy, object or path.  A rule
    changed in those constructors must be changed here too."""
    servers = doc.get("servers") if type(doc) is dict else None
    if type(servers) is not list or not servers or set(map(type, servers)) != {dict}:
        return None
    ids = list(map(dict.get, servers, repeat("id")))
    if set(map(type, ids)) != {str} or "" in ids or len(set(ids)) != len(ids):
        return None
    groups = list(map(dict.get, servers, repeat("components")))
    if set(map(type, groups)) != {list} or not min(map(len, groups)):
        return None
    components = list(chain.from_iterable(groups))
    if set(map(type, components)) != {dict}:
        return None
    names = list(map(dict.get, components, repeat("topology")))
    if set(map(type, names)) != {str}:
        return None
    try:
        parsed = {name: as_topology_id(name) for name in set(names)}
    except TopologyError:
        return None
    canonical = {name: str(tid) for name, tid in parsed.items()}
    size = {name: tid.vertex_count for name, tid in parsed.items()}
    sizes = list(map(size.__getitem__, names))
    node_lists = list(map(dict.get, components, repeat("nodes")))
    cap_lists = list(map(dict.get, components, repeat("capacities")))
    # exactly one of nodes or capacities
    given = list(map(is_not, node_lists, repeat(None)))
    if list(map(is_, cap_lists, repeat(None))) != given:
        return None
    capacities = {}
    if False in given:
        for c in compress(range(len(given)), map(not_, given)):
            if type(cap_lists[c]) is not list:
                return None
            try:
                capacities[c] = check_capacities(cap_lists[c], sizes[c])
            except (DimensionError, CapacityError):
                return None
        node_lists = list(compress(node_lists, given))
    if node_lists and (
        set(map(type, node_lists)) != {list}
        or list(map(len, node_lists)) != list(compress(sizes, given))
    ):
        return None
    columns = _document_columns(list(chain.from_iterable(node_lists)))
    if columns is None:
        return None
    return ClusterState(
        ids=tuple(ids),
        spans=tuple(accumulate(map(len, groups), initial=0)),
        topologies=tuple(map(canonical.__getitem__, names)),
        offsets=tuple(accumulate(map(mul, sizes, given), initial=0)),
        columns=columns,
        capacities=capacities,
    )


def _document_columns(nodes: list) -> Optional[dict[str, list]]:
    """One column per resource name over non-empty node maps of
    non-negative integer amounts, None where a node lacks the name; or
    None if any node or amount fails."""
    if not nodes:
        return {}
    if set(map(type, nodes)) != {dict}:
        return None
    lengths = list(map(len, nodes))
    if not min(lengths):
        return None
    columns = {}
    amounts = 0
    for name in dict.fromkeys(chain.from_iterable(nodes)):
        column = list(map(dict.get, nodes, repeat(name)))
        types = set(map(type, column))
        if types == {int}:
            low = min(column)
            amounts += len(column)
        elif types == {int, type(None)}:
            low = min(compress(column, map(is_not, column, repeat(None))))
            amounts += len(column) - column.count(None)
        else:
            return None
        if low < 0:
            return None
        columns[name] = column
    # fewer amounts than names held means a null amount
    return columns if amounts == sum(lengths) else None


def flavors_from_document(doc) -> dict[str, Flavor]:
    """The flavors of a decoded flavor document by id, in document order,
    or SchemaError at the document path of its first fault:
    {"flavors": [{"id": str, "vnuma": str, "demand": {resource: int}}, ...]}"""
    return _read(doc, "flavors", _flavor)


def _read(doc, key: str, build: Callable[[dict, str], object]) -> dict:
    """doc[key]'s items by id, in document order, each built by build(item,
    its path); key, "servers" or "flavors", names a repeated id's kind."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    out = {}
    for at, item in _objects(doc.get(key), key):
        built = build(item, at)
        if built.id in out:
            raise SchemaError(f"{at}.id", f"duplicate {key[:-1]} id {built.id!r}")
        out[built.id] = built
    return out


def _objects(value, path: str):
    """(path, item) for each item of `value`, a non-empty array of objects."""
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty array")
    for i, item in enumerate(value):
        at = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(at, "expected an object")
        yield at, item


def _built(cls, root: str, at: str, *fields):
    """cls(*fields), whose SchemaError paths start with `root`, with the
    document path `at` put there."""
    try:
        return cls(*fields)
    except SchemaError as exc:
        raise SchemaError(at + exc.path[len(root):], exc.message) from None


def _server(doc: dict, at: str) -> ServerState:
    items = _objects(doc.get("components"), f"{at}.components")
    components = tuple(_component(item, path) for path, item in items)
    return _built(ServerState, "server", at, doc.get("id"), components)


def _component(doc: dict, at: str) -> ServerComponent:
    try:
        return _built(ServerComponent, "component", at, doc.get("topology"),
                      doc.get("nodes"), doc.get("capacities"))
    except TopologyError as exc:
        raise SchemaError(f"{at}.topology", str(exc)) from None
    except DimensionError as exc:
        raise SchemaError(f"{at}.capacities", str(exc)) from None
    except CapacityError as exc:
        raise SchemaError(f"{at}.capacities[{exc.index}]", str(exc)) from None


def _flavor(doc: dict, at: str) -> Flavor:
    try:
        return _built(Flavor, "flavor", at, doc.get("id"), doc.get("vnuma"),
                      doc.get("demand"))
    except TopologyError as exc:
        raise SchemaError(f"{at}.vnuma", str(exc)) from None
    except ResourceError as exc:
        where = "" if exc.resource is None else f".{exc.resource}"
        raise SchemaError(f"{at}.demand{where}", str(exc)) from None


def _missing(name: str) -> ResourceError:
    return ResourceError(f"node is missing demanded resource {name!r}")


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
            raise _missing(name)
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


def _node_counts(
    columns: Mapping[str, list], size: int, demand: Mapping[str, int]
) -> tuple[list[int], dict[int, str]]:
    """Every node's count, min over demanded resources of free // demand,
    and for each node lacking some of them, the first it lacks in demand
    order; its count is 0.  The amounts were checked where they were read.
    """
    lacking: dict[int, str] = {}
    quotients = []
    for name, amount in demand.items():
        column = columns.get(name)
        if column is None:
            column = [None] * size
        # a column with no None divides in one pass; looking for None
        # first costs a pass more on every column (3.5 ms with count() on
        # 245k nodes), and a column with one stops this pass at its first
        try:
            quotients.append(list(map(floordiv, column, repeat(amount))))
        except TypeError:
            # None where a node lacks the resource
            column = list(column)
            for i in compress(range(size), map(is_, column, repeat(None))):
                lacking.setdefault(i, name)
                column[i] = 0
            quotients.append(list(map(floordiv, column, repeat(amount))))
    counts = quotients[0]
    for column in quotients[1:]:
        # a two-argument min() call costs several times this comparison
        counts = [a if a < b else b for a, b in zip(counts, column)]
    return counts, lacking


def component_capacity_vector(
    component: ServerComponent, flavor: Flavor
) -> tuple[int, ...]:
    """Per-node guest counts for one component (canonical label order)."""
    if component.capacities is not None:
        return component.capacities
    nodes = component.nodes
    columns = {name: [free.get(name) for free in nodes] for name in flavor.demand}
    counts, lacking = _node_counts(columns, len(nodes), flavor.demand)
    if lacking:
        raise _missing(lacking[min(lacking)])
    return tuple(counts)


def _counter(vnuma: TopologyId):
    """count(topology, caps): guests of shape `vnuma` that fit one
    component with node counts `caps`."""
    if vnuma.vertex_count == 1:
        # vmcap checks b on every other path; this one sums it
        return lambda topology, caps: sum(check_capacities(caps, len(caps)))
    # an id string hashes faster than a TopologyId in vmcap's memo
    guest = str(vnuma)
    return lambda topology, caps: vmcap(topology, guest, caps).count


def server_capacity(server: ServerState, flavor: Flavor) -> int:
    """Guests of `flavor` that fit `server`, summed over components.

    Single-node guests need no interconnect, so they contribute the plain
    sum of node counts; anything else goes through the pair/shape formulas
    with the exhaustive solver as fallback.
    """
    count = _counter(flavor.vnuma)
    return sum(
        count(c.topology, component_capacity_vector(c, flavor))
        for c in server.components
    )


class ServerCapacity(NamedTuple):
    """One row of a cluster report; exactly one of count/error is set."""

    server_id: str
    count: Optional[int] = None
    error: Optional[str] = None


def cluster_capacity(
    servers: Union[ClusterState, Sequence[ServerState]], flavor: Flavor
) -> tuple[list[ServerCapacity], int]:
    """Per-server counts in input order plus the cluster total.

    Rolls up a ClusterState, or gathers a list of servers into one first:
    one pass per demanded column, then a count per component.  A failing
    server (bad dimension, unsupported shape, missing resource) gets an
    error row, that of its first failing component, and does not abort
    the rest.
    """
    state = servers
    if not isinstance(state, ClusterState):
        state = ClusterState.from_servers(servers)
    offsets, spans = state.offsets, state.spans
    counts, lacking = _node_counts(state.columns, offsets[-1], flavor.demand)
    vectors = list(map(counts.__getitem__, map(slice, offsets, offsets[1:])))
    for c, caps in state.capacities.items():
        vectors[c] = caps
    # component index -> its error; a missing resource is named in node order
    failed = {}
    for i in sorted(lacking):
        failed.setdefault(bisect_right(offsets, i) - 1, str(_missing(lacking[i])))
    count = _counter(flavor.vnuma)
    totals = [0] * len(vectors)
    topologies = state.topologies
    # each server's components up to its first failing one
    for start, stop in zip(spans, spans[1:]):
        for c in range(start, stop):
            if c in failed:
                break
            try:
                totals[c] = count(topologies[c], vectors[c])
            except NumacapError as exc:
                failed[c] = str(exc)
                break
    sums = list(map(sum, map(totals.__getitem__, map(slice, spans, spans[1:]))))
    rows = list(map(ServerCapacity, state.ids, sums))
    for c in sorted(failed, reverse=True):
        # the last write per server is its first failing component
        s = bisect_right(spans, c) - 1
        sums[s] = 0
        rows[s] = ServerCapacity(state.ids[s], error=failed[c])
    return rows, sum(sums)
