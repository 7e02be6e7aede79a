"""Resource vectors, per-server counts, and cluster aggregation."""

import copy
import json
import pickle
import random

import pytest

import numacap as nc
from numacap import cli
from numacap.capacity import ClusterState, ServerCapacity, component_capacity_vector
from numacap.oracle import _PairStatics

RING_NODES = ({"cpu": 3}, {"cpu": 7}, {"cpu": 10}, {"cpu": 6})


def ring_server(sid="s1"):
    return nc.ServerState(sid, (nc.ServerComponent(topology="c4", nodes=RING_NODES),))


class TestNodeCapacity:
    def test_min_over_resources(self):
        assert nc.node_capacity({"cpu": 30, "ram": 64}, {"cpu": 8, "ram": 16}) == 3
        assert nc.node_capacity({"cpu": 30, "ram": 64}, {"cpu": 2, "ram": 32}) == 2

    def test_extra_free_resources_are_ignored(self):
        assert nc.node_capacity({"cpu": 8, "gpu": 1}, {"cpu": 4}) == 2

    def test_zero_free(self):
        assert nc.node_capacity({"cpu": 0}, {"cpu": 4}) == 0

    def test_missing_resource(self):
        with pytest.raises(nc.ResourceError):
            nc.node_capacity({"cpu": 4}, {"ram": 1})

    def test_bad_values(self):
        with pytest.raises(nc.ResourceError):
            nc.node_capacity({"cpu": 4}, {"cpu": 0})
        with pytest.raises(nc.ResourceError):
            nc.node_capacity({"cpu": -1}, {"cpu": 1})
        with pytest.raises(nc.ResourceError):
            nc.node_capacity({"cpu": 4}, {})


class TestConfigValidation:
    def test_flavor_requires_demand(self):
        with pytest.raises(nc.ResourceError):
            nc.Flavor("bad", "k2", {})
        with pytest.raises(nc.ResourceError):
            nc.Flavor("bad", "k2", {"cpu": -1})

    def test_flavor_parses_topology(self):
        fl = nc.Flavor("pair", "k2", {"cpu": 1})
        assert fl.vnuma == nc.K2

    def test_component_wants_exactly_one_source(self):
        with pytest.raises(nc.SchemaError):
            nc.ServerComponent(topology="c4")
        with pytest.raises(nc.SchemaError):
            nc.ServerComponent(
                topology="c4", nodes=RING_NODES, capacities=(1, 1, 1, 1)
            )

    def test_component_length_check(self):
        with pytest.raises(nc.DimensionError):
            nc.ServerComponent(topology="c4", capacities=(1, 1))
        with pytest.raises(nc.SchemaError):
            nc.ServerComponent(topology="c4", nodes=RING_NODES[:2])

    def test_server_needs_components(self):
        with pytest.raises(nc.SchemaError):
            nc.ServerState("empty", ())


class TestCheckedOnce:
    """Amounts are checked when a component or flavor is built, and the
    objects keep their own copies, so later edits cannot skip the check."""

    def test_node_maps_are_copied(self):
        nodes = [{"cpu": 3}, {"cpu": 7}, {"cpu": 10}, {"cpu": 6}]
        comp = nc.ServerComponent(topology="c4", nodes=nodes)
        fl = nc.Flavor("pair", "k2", {"cpu": 1})
        server = nc.ServerState("s", (comp,))
        before = nc.server_capacity(server, fl)
        nodes[0]["cpu"] = -5
        nodes[1]["cpu"] = 1000
        del nodes[2]["cpu"]
        nodes.append({"cpu": 1})
        assert component_capacity_vector(comp, fl) == (3, 7, 10, 6)
        assert nc.server_capacity(server, fl) == before == 13
        with pytest.raises(TypeError):
            comp.nodes[0]["cpu"] = -5

    def test_flavor_demand_is_copied(self):
        demand = {"cpu": 2}
        fl = nc.Flavor("pair", "k2", demand)
        demand["cpu"] = 0
        demand["ram"] = 1
        comp = nc.ServerComponent(topology="c4", nodes=RING_NODES)
        assert component_capacity_vector(comp, fl) == (1, 3, 5, 3)
        with pytest.raises(TypeError):
            fl.demand["cpu"] = 0

    def test_copies_survive_pickle_and_deepcopy(self):
        fl = nc.Flavor("pair", "k2", {"cpu": 2})
        comps = (
            nc.ServerComponent(topology="c4", nodes=RING_NODES),
            nc.ServerComponent(topology="c4", capacities=(1, 2, 3, 4)),
        )
        ring = nc.Graph(4, [(2, 1), (2, 3), (3, 4), (4, 1)], name="ring")
        # each immutable class: an instance, its repr, and the fields its
        # equality and hash read, None where a read-only map leaves it
        # unhashable
        cases = [
            (ring, "Graph(vertex_count=4, edges=frozenset({(2, 3), (1, 2), (3, 4),"
                   " (1, 4)}), name='ring')", (4, ring.edges)),
            (nc.km_n(2, 3), "TopologyId(kind='km_n', m=2, n=3)", ("km_n", 2, 3)),
            (fl, "Flavor(id='pair', vnuma=TopologyId(kind='kn', m=0, n=2),"
                 " demand=mappingproxy({'cpu': 2}))", None),
            (comps[0], "ServerComponent(topology=TopologyId(kind='c4', m=0, n=0),"
                       " nodes=(mappingproxy({'cpu': 3}), mappingproxy({'cpu': 7}),"
                       " mappingproxy({'cpu': 10}), mappingproxy({'cpu': 6})),"
                       " capacities=None)", None),
            (comps[1], "ServerComponent(topology=TopologyId(kind='c4', m=0, n=0),"
                       " nodes=None, capacities=(1, 2, 3, 4))",
             (nc.C4, None, (1, 2, 3, 4))),
            (nc.ServerState("s1", [comps[1]]),
             "ServerState(id='s1', components=(" + repr(comps[1]) + ",))",
             ("s1", (comps[1],))),
            (ServerCapacity("s2", error="boom"),
             "ServerCapacity(server_id='s2', count=None, error='boom')",
             ("s2", None, "boom")),
            (nc.OracleSolution(3, ((0, 2), (4, 1))),
             "OracleSolution(count=3, multiplicities=((0, 2), (4, 1)))",
             (3, ((0, 2), (4, 1)))),
            (_PairStatics(((0, 1),), ((),), 2),
             "_PairStatics(verts=((0, 1),), bound_terms=((),), k=2)",
             (((0, 1),), ((),), 2)),
            (nc.Placement.from_runs([((1, 2), 3), ((3, 4), 1)]),
             "Placement(runs=(((1, 2), 3), ((3, 4), 1)))",
             ((((1, 2), 3), ((3, 4), 1)),)),
        ]
        for obj, text, fields in cases:
            for again in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert type(again) is type(obj)
                assert again == obj and repr(again) == repr(obj) == text
                if fields is not None:
                    assert hash(again) == hash(obj) == hash(fields), text
            if fields is None:
                with pytest.raises(TypeError):
                    hash(obj)
            name = type(obj)._fields[0] if hasattr(type(obj), "_fields") else (
                type(obj).__slots__[0])
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert repr(obj) == text
        # a graph's name is a label: equality and hash ignore it
        renamed = nc.Graph(4, ring.edges, name="c4")
        assert renamed == ring and hash(renamed) == hash(ring)
        assert nc.Graph(4, ring.edges) != nc.Graph(5, ring.edges)
        assert pickle.loads(pickle.dumps(ring)).name == "ring"
        assert ring.neighbors(1) == frozenset({2, 4})
        # an id is not a tuple
        assert nc.km_n(2, 3) != ("km_n", 2, 3)
        # a placement is not a sequence: its size is its count
        placement = cases[-1][0]
        assert placement.count == 4
        with pytest.raises(TypeError):
            len(placement)
        with pytest.raises(TypeError):
            iter(placement)
        again = pickle.loads(pickle.dumps(comps[0]))
        assert component_capacity_vector(again, fl) == (1, 3, 5, 3)

    @pytest.mark.parametrize("amount", [-1, True, 1.5, "3", None])
    def test_component_rejects_bad_free_amounts(self, amount):
        with pytest.raises(nc.SchemaError) as info:
            nc.ServerComponent(
                topology="c4", nodes=({"cpu": 1}, {"cpu": amount}, {}, {})
            )
        assert info.value.path == "component.nodes[1].cpu"

    def test_component_rejects_a_node_that_is_not_a_map(self):
        with pytest.raises(nc.SchemaError) as info:
            nc.ServerComponent(topology="c4", nodes=({"cpu": 1}, 7, {}, {}))
        assert info.value.path == "component.nodes[1]"

    @pytest.mark.parametrize(
        "field,value,path",
        [
            ("nodes", 7, "component.nodes"),
            ("nodes", "abcd", "component.nodes"),
            ("nodes", {"a": {}, "b": {}, "c": {}, "d": {}}, "component.nodes"),
            ("nodes", ({},) * 4, "component.nodes[0]"),
            ("capacities", 5, "component.capacities"),
            ("capacities", "1234", "component.capacities"),
        ],
    )
    def test_component_rejects_what_is_not_an_array_of_maps(self, field, value, path):
        with pytest.raises(nc.SchemaError) as info:
            nc.ServerComponent(topology="c4", **{field: value})
        assert info.value.path == path

    def test_component_accepts_any_other_iterable(self):
        from_gen = nc.ServerComponent(
            topology="c4", nodes=({"cpu": c} for c in (3, 7, 10, 6))
        )
        assert from_gen == nc.ServerComponent(topology="c4", nodes=RING_NODES)
        assert nc.ServerComponent(topology="c4", capacities=range(4)).capacities == (
            0, 1, 2, 3
        )

    @pytest.mark.parametrize("sid", [5, "", None, ("s",)])
    def test_ids_are_checked_when_built(self, sid):
        comp = nc.ServerComponent(topology="c4", capacities=(1, 1, 1, 1))
        with pytest.raises(nc.SchemaError, match="non-empty string") as exc:
            nc.Flavor(sid, "k2", {"cpu": 1})
        assert exc.value.path == "flavor.id"
        with pytest.raises(nc.SchemaError, match="non-empty string") as exc:
            nc.ServerState(sid, (comp,))
        assert exc.value.path == "server.id"

    def test_component_rejects_a_bad_topology(self):
        with pytest.raises(nc.TopologyError):
            nc.ServerComponent(topology=5, capacities=(1, 1, 1, 1))

    @pytest.mark.parametrize("demand", [5, [("cpu", 1)], {}, None])
    def test_flavor_rejects_a_demand_that_is_not_a_map(self, demand):
        with pytest.raises(nc.ResourceError, match="demand"):
            nc.Flavor("f", "k2", demand)

    def test_component_accepts_int_subclass_amounts(self):
        class Count(int):
            pass

        comp = nc.ServerComponent(topology="c4", nodes=({"cpu": Count(4)},) * 4)
        fl = nc.Flavor("pair", "k2", {"cpu": Count(2)})
        assert component_capacity_vector(comp, fl) == (2, 2, 2, 2)

    def test_flavor_names_the_bad_resource(self):
        with pytest.raises(nc.ResourceError) as info:
            nc.Flavor("bad", "k2", {"cpu": 1, "ram": 0})
        assert info.value.resource == "ram"

    def test_missing_resource_names_it(self):
        flavor = nc.Flavor("f", "k2", {"cpu": 1, "ram": 2})
        # node 2 lacks ram before node 3 lacks cpu: node order decides
        patchy = ({"cpu": 4, "ram": 4}, {"cpu": 4}, {"ram": 4}, {"cpu": 4, "ram": 4})
        for nodes in (RING_NODES, patchy):
            comp = nc.ServerComponent(topology="c4", nodes=nodes)
            with pytest.raises(nc.ResourceError) as info:
                component_capacity_vector(comp, flavor)
            assert str(info.value) == "node is missing demanded resource 'ram'"

    def test_missing_resource_names_it_across_a_cluster(self, tmp_path):
        flavor = nc.Flavor("f", "k2", {"cpu": 1, "ram": 2})
        full = {"cpu": 4, "ram": 4}
        doc = {"servers": [
            {"id": "whole", "components": [{"topology": "c4", "nodes": [full] * 4}]},
            # node 2 lacks ram before node 3 lacks cpu: node order decides
            {"id": "patchy", "components": [{"topology": "c4", "nodes": [
                full, {"cpu": 4}, {"ram": 4}, full]}]},
            # a node lacking both names the first in demand order
            {"id": "bare", "components": [{"topology": "c4", "nodes": [
                full, {"disk": 1}, {"cpu": 4}, full]}]},
            # the first failing component decides, here the second
            {"id": "late", "components": [
                {"topology": "k2", "capacities": [1, 1]},
                {"topology": "c4", "nodes": [full, full, full, {"cpu": 1}]},
                {"topology": "c4", "nodes": [{"ram": 1}] * 4},
            ]},
            {"id": "ring", "components": [{"topology": "c4", "nodes": list(RING_NODES)}]},
        ]}
        missing = "node is missing demanded resource {!r}".format
        want = [
            ServerCapacity("whole", count=4),
            ServerCapacity("patchy", error=missing("ram")),
            ServerCapacity("bare", error=missing("cpu")),
            ServerCapacity("late", error=missing("ram")),
            ServerCapacity("ring", error=missing("ram")),
        ]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        for servers in (cli.load_cluster_state(str(path)), built_servers(doc)):
            assert nc.cluster_capacity(servers, flavor) == (want, 4)

    def test_count_above_the_capacity_limit_is_an_error_row(self):
        huge = nc.ServerState(
            "huge",
            (nc.ServerComponent(topology="c4", nodes=({"cpu": 2**40},) * 4),),
        )
        rows, total = nc.cluster_capacity(
            [ring_server("ok"), huge], nc.Flavor("pair", "k2", {"cpu": 1})
        )
        assert rows[0].count == 13
        assert rows[1].count is None
        assert "outside [0, 4294967295]" in rows[1].error
        assert total == 13

    def test_single_node_guest_count_above_the_limit_is_the_same_error_row(self):
        huge = nc.ServerState(
            "huge",
            (nc.ServerComponent(topology="c4", nodes=({"cpu": 2**40},) * 4),),
        )
        errors = []
        for vnuma in ("k1", "k2"):
            rows, total = nc.cluster_capacity([huge], nc.Flavor("f", vnuma, {"cpu": 1}))
            assert rows[0].count is None and total == 0, vnuma
            errors.append(rows[0].error)
        assert errors == ["capacity b1=1099511627776 outside [0, 4294967295]"] * 2


class TestComponentVector:
    def test_from_nodes(self):
        comp = nc.ServerComponent(topology="c4", nodes=RING_NODES)
        fl = nc.Flavor("tiny", "k2", {"cpu": 1})
        assert component_capacity_vector(comp, fl) == (3, 7, 10, 6)

    def test_from_nodes_with_demand_scaling(self):
        comp = nc.ServerComponent(topology="c4", nodes=RING_NODES)
        fl = nc.Flavor("fat", "k2", {"cpu": 3})
        assert component_capacity_vector(comp, fl) == (1, 2, 3, 2)

    def test_direct_capacities_skip_resource_math(self):
        comp = nc.ServerComponent(topology="c4", capacities=(4, 4, 4, 4))
        fl = nc.Flavor("fat", "k2", {"cpu": 999})
        assert component_capacity_vector(comp, fl) == (4, 4, 4, 4)


class TestServerCapacity:
    def test_ring_pairs(self):
        assert nc.server_capacity(ring_server(), nc.Flavor("pair", "k2", {"cpu": 1})) == 13

    def test_single_node_guest_sums_everything(self):
        assert nc.server_capacity(ring_server(), nc.Flavor("solo", "k1", {"cpu": 1})) == 26
        assert nc.server_capacity(ring_server(), nc.Flavor("solo2", "k1", {"cpu": 2})) == 12

    def test_components_add_up(self):
        hub = nc.ServerComponent(topology="star4", capacities=(1, 1, 1, 1, 1))
        server = nc.ServerState("dual", (hub, hub))
        assert nc.server_capacity(server, nc.Flavor("pair", "k2", {"cpu": 1})) == 2

    def test_mixed_components(self):
        server = nc.ServerState(
            "mix",
            (
                nc.ServerComponent(topology="c4", capacities=(2, 5, 3, 1)),
                nc.ServerComponent(topology="k4", capacities=(5, 5, 5, 1)),
            ),
        )
        assert nc.server_capacity(server, nc.Flavor("pair", "k2", {"cpu": 1})) == 13

    def test_guest_too_large_for_component(self):
        server = nc.ServerState(
            "small", (nc.ServerComponent(topology="k2", capacities=(9, 9)),)
        )
        assert nc.server_capacity(server, nc.Flavor("quad", "c4", {"cpu": 1})) == 0

    def test_guest_shape_not_embeddable(self):
        # a ring flavor cannot use a triangle-free 4-node board
        assert nc.server_capacity(ring_server(), nc.Flavor("tri", "k3", {"cpu": 1})) == 0

    def test_oracle_backed_flavor(self):
        assert nc.server_capacity(ring_server(), nc.Flavor("ring", "c4", {"cpu": 1})) == 3


class TestClusterCapacity:
    def test_totals_and_order(self):
        servers = [ring_server("a"), ring_server("b")]
        rows, total = nc.cluster_capacity(servers, nc.Flavor("pair", "k2", {"cpu": 1}))
        assert [r.server_id for r in rows] == ["a", "b"]
        assert [r.count for r in rows] == [13, 13]
        assert total == 26

    def test_error_rows_do_not_abort_the_batch(self):
        oversized = nc.ServerState(
            "big", (nc.ServerComponent(topology="star12", capacities=(1,) * 13),)
        )
        rows, total = nc.cluster_capacity(
            [ring_server("ok"), oversized], nc.Flavor("ring", "c4", {"cpu": 1})
        )
        assert rows[0].count == 3 and rows[0].error is None
        assert rows[1].count is None and rows[1].error
        assert total == 3

    def test_empty_cluster(self):
        rows, total = nc.cluster_capacity([], nc.Flavor("pair", "k2", {"cpu": 1}))
        assert rows == [] and total == 0

    def test_missing_resource_is_reported_per_server(self):
        lame = nc.ServerState(
            "lame",
            (nc.ServerComponent(topology="c4", nodes=({"cpu": 1},) * 4),),
        )
        rows, total = nc.cluster_capacity(
            [lame], nc.Flavor("pair", "k2", {"cpu": 1, "ram": 8})
        )
        assert rows[0].count is None
        assert "ram" in rows[0].error


def built_servers(doc):
    """The servers of a state document, built through the constructors."""
    return [
        nc.ServerState(sv["id"], tuple(
            nc.ServerComponent(cd["topology"], cd.get("nodes"), cd.get("capacities"))
            for cd in sv["components"]
        ))
        for sv in doc["servers"]
    ]


def reference_rows(servers, flavor):
    """Rows and total server by server, node by node, as the roll-up
    computed them before it went to whole-cluster columns."""
    rows, total = [], 0
    for server in servers:
        try:
            count = 0
            for comp in server.components:
                caps = comp.capacities
                if caps is None:
                    caps = tuple(nc.node_capacity(free, flavor.demand) for free in comp.nodes)
                if flavor.vnuma.vertex_count == 1:
                    count += sum(nc.check_capacities(caps, len(caps)))
                else:
                    count += nc.vmcap(comp.topology, flavor.vnuma, caps).count
        except nc.NumacapError as exc:
            rows.append(ServerCapacity(server.id, error=str(exc)))
        else:
            rows.append(ServerCapacity(server.id, count=count))
            total += count
    return rows, total


EQUIVALENCE_HOSTS = ("c4", "k4", "k2", "l4", "cq3", "star5", "k2_3", "star12")
EQUIVALENCE_FLAVORS = (
    nc.Flavor("pair", "k2", {"cpu": 1, "ram": 2}),
    nc.Flavor("solo", "k1", {"ram": 3}),
    nc.Flavor("ring", "c4", {"cpu": 3}),
)


def random_state(seed):
    """A seeded document mixing capacities components, nodes with
    differing names, nodes lacking a demanded name, amounts whose count
    passes 2^32 - 1, and hosts without a count for some flavors."""
    rng = random.Random(seed)
    servers = []
    for s in range(rng.randint(1, 10)):
        comps = []
        for _ in range(rng.randint(1, 3)):
            host = rng.choice(EQUIVALENCE_HOSTS)
            n = nc.parse_topology(host).vertex_count
            if rng.random() < 0.25:
                comps.append({"topology": host,
                              "capacities": [rng.randint(0, 4) for _ in range(n)]})
                continue
            nodes = []
            for _ in range(n):
                node = {}
                for name in ("cpu", "ram", "disk"):
                    roll = rng.random()
                    if roll < 0.02:
                        continue
                    node[name] = 2**40 if roll < 0.03 else rng.randint(0, 12)
                nodes.append(node or {"gpu": 1})
            comps.append({"topology": host, "nodes": nodes})
        servers.append({"id": f"s{s}", "components": comps})
    return {"servers": servers}


class TestRollUpEquivalence:
    """The CLI's whole-file table, the same servers built one by one, and
    a node-by-node reference give the same rows, errors and totals."""

    def test_seeded_states(self, tmp_path):
        path = tmp_path / "state.json"
        errors = set()
        for seed in range(60):
            doc = random_state(seed)
            path.write_text(json.dumps(doc))
            table = cli.load_cluster_state(str(path))
            servers = built_servers(doc)
            assert table == ClusterState.from_servers(servers), seed
            for flavor in EQUIVALENCE_FLAVORS:
                want = reference_rows(servers, flavor)
                assert nc.cluster_capacity(table, flavor) == want, (seed, flavor.id)
                assert nc.cluster_capacity(servers, flavor) == want, (seed, flavor.id)
                errors.update(r.error.split(" ")[0] for r in want[0] if r.error)
        # each error class the documents are made to reach was reached
        assert {"node", "capacity", "oracle"} <= errors
