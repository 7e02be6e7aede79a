"""Resource vectors, per-server counts, and cluster aggregation."""

import copy
import pickle

import pytest

import numacap as nc
from numacap.capacity import component_capacity_vector

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
        for obj in (fl,) + comps:
            assert pickle.loads(pickle.dumps(obj)) == obj
            assert copy.deepcopy(obj) == obj
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
