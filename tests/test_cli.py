"""Command line behavior: output shapes, exit codes, file parsing."""

import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import numacap
from numacap import capacity, cli, formulas, rounding
from conftest import proved

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GEN_PATH = Path(__file__).resolve().parents[1] / "capbench" / "gen.py"
# children import the package from the tree the suite imported it from
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(numacap.__file__).resolve().parents[1])}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def shared_proofs(monkeypatch):
    """verify proves through the session's proof cache, which the
    prover's own tests fill, so each pair is proved once a run."""
    monkeypatch.setattr(rounding, "prove", proved)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


STATE_DOC = {
    "servers": [
        {
            "id": "host-a",
            "components": [
                {
                    "topology": "c4",
                    "nodes": [{"cpu": 3}, {"cpu": 7}, {"cpu": 10}, {"cpu": 6}],
                }
            ],
        },
        {
            "id": "host-b",
            "components": [{"topology": "cq3", "capacities": [3] * 8}],
        },
    ]
}

FLAVOR_DOC = {
    "flavors": [
        {"id": "m2", "vnuma": "k2", "demand": {"cpu": 1}},
        {"id": "solo", "vnuma": "k1", "demand": {"cpu": 2}},
    ]
}

# more digits than int() reads under the interpreter's default limit
LONG_ID = "k" + "9" * 5000


class TestEval:
    def test_plain_count(self, capsys):
        code, out, _ = run(capsys, "eval", "--topology", "cq3", "--vnuma", "k2",
                           "--caps", "1,1,1,1,1,1,1,1")
        assert code == 0
        assert out.strip() == "4"

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "eval", "--topology", "c4", "--vnuma", "k2",
                           "--caps", "2,5,3,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "topology": "c4",
            "vnuma": "k2",
            "caps": [2, 5, 3, 1],
            "count": 5,
            "via": "closed-form",
        }

    def test_oracle_fallback_pair(self, capsys):
        code, out, _ = run(capsys, "eval", "--topology", "l4", "--vnuma", "c4",
                           "--caps", "1,1,1,1,1,1,1,1", "--json")
        assert code == 0
        assert json.loads(out)["via"] == "oracle"

    def test_malformed_caps(self, capsys):
        code, _, err = run(capsys, "eval", "--topology", "c4", "--vnuma", "k2",
                           "--caps", "1,zz,3,4")
        assert code == 2
        assert "--caps" in err

    def test_wrong_dimension(self, capsys):
        code, _, err = run(capsys, "eval", "--topology", "c4", "--vnuma", "k2",
                           "--caps", "1,2")
        assert code == 2
        assert "error:" in err

    def test_unknown_topology(self, capsys):
        code, _, err = run(capsys, "eval", "--topology", "pentagon", "--vnuma", "k2",
                           "--caps", "1,1,1,1")
        assert code == 2

    def test_single_node_guest_hint(self, capsys):
        code, _, err = run(capsys, "eval", "--topology", "c4", "--vnuma", "k1",
                           "--caps", "1,1,1,1")
        assert code == 2
        assert "sum of node capacities" in err


class TestPlace:
    def test_greedy_trace(self, capsys):
        code, out, _ = run(capsys, "place", "--topology", "k4", "--vnuma", "k2",
                           "--caps", "3,2,1,0")
        assert code == 0
        assert json.loads(out) == {"count": 3, "runs": [[[1, 2], 2], [[1, 3], 1]]}

    def test_ring_guest(self, capsys):
        code, out, _ = run(capsys, "place", "--topology", "q33", "--vnuma", "c4",
                           "--caps", "1,2,3,4,5,6,7,8")
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_pair_without_routine(self, capsys):
        # l4/c4 has no closed form but is proved: its witness is peeled
        # from floor(LP), below the solver's sum limit and past it
        for caps, count in (((1,) * 8, 2), ((26,) * 8, 52)):
            code, out, _ = run(capsys, "place", "--topology", "l4", "--vnuma", "c4",
                               "--caps", ",".join(map(str, caps)))
            assert code == 0
            doc = json.loads(out)
            assert doc["count"] == numacap.vmcap("l4", "c4", caps).count == count
            numacap.verify_placement(
                numacap.expand_topology("l4"), numacap.expand_topology("c4"), caps,
                numacap.Placement.from_runs(doc["runs"]),
            )

        code, out, _ = run(capsys, "place", "--topology", "cq3", "--vnuma", "k3",
                           "--caps", "1,1,1,1,1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"count": 0, "runs": []}

        # past the solver's limit, place on an unproved pair fails as eval does
        for cmd in ("place", "eval"):
            code, out, err = run(capsys, cmd, "--topology", "cq3", "--vnuma", "k1_3",
                                 "--caps", "26,26,26,26,26,26,26,26")
            assert code == 2
            assert out == ""
            assert "total capacity up to 200, got 208" in err

    def test_top_entries_under_an_address_space_limit(self):
        # one group per copy would ask for 2^33 tuples; runs need a few bytes.
        # The child lowers only its own address-space limit, so a regression
        # ends there in a MemoryError instead of filling the machine.
        def limit_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 1536 * 2**20
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        top = 2**32 - 1
        proc = subprocess.run(
            [sys.executable, "-m", "numacap", "place", "--topology", "c4",
             "--vnuma", "k2", "--caps", ",".join([str(top)] * 4)],
            capture_output=True,
            text=True,
            timeout=120,
            env=CHILD_ENV,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["count"] == 2 * top
        placement = numacap.Placement.from_runs(doc["runs"])
        assert placement.count == 2 * top
        numacap.verify_placement(
            numacap.expand_topology("c4"), numacap.expand_topology("k2"),
            (top,) * 4, placement,
        )

    def test_guest_larger_than_host(self, capsys):
        code, out, _ = run(capsys, "place", "--topology", "c4", "--vnuma", "k5",
                           "--caps", "1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"count": 0, "runs": []}

    def test_single_node_guest(self, capsys):
        code, _, err = run(capsys, "place", "--topology", "c4", "--vnuma", "k1",
                           "--caps", "1,1,1,1")
        assert code == 2
        assert "sum of node capacities" in err


class TestCluster:
    def test_table_output(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, out, _ = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["server", "capacity"]
        assert lines[1].split() == ["host-a", "13"]
        assert lines[2].split() == ["host-b", "12"]
        assert lines[3].split() == ["total", "25"]

    def test_json_output(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, out, _ = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "solo", "--json")
        assert code == 0
        doc = json.loads(out)
        # host-a: per-node floor(cpu/2) summed; host-b gives capacities
        # directly, so the demand vector does not rescale them
        assert doc == {
            "flavor": "solo",
            "servers": [{"id": "host-a", "count": 12}, {"id": "host-b", "count": 24}],
            "total": 36,
        }

    def test_unknown_flavor(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, _, err = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "m9")
        assert code == 2
        assert "m9" in err and "m2" in err

    def test_error_row_sets_exit_code(self, capsys, tmp_path):
        doc = {
            "servers": STATE_DOC["servers"]
            + [
                {
                    "id": "big",
                    "components": [{"topology": "star12", "capacities": [1] * 13}],
                }
            ]
        }
        state = write_json(tmp_path, "state.json", doc)
        flavors = write_json(
            tmp_path,
            "flavors.json",
            {"flavors": [{"id": "ring", "vnuma": "c4", "demand": {"cpu": 1}}]},
        )
        code, out, err = run(capsys, "cluster", "--state", state,
                             "--flavors", flavors, "--flavor", "ring")
        assert code == 2
        assert "error:" in out      # table still shows the failing row
        assert "server big" in err

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d["servers"][0].pop("id"), "servers[0].id"),
            (
                lambda d: d["servers"][0]["components"][0]["nodes"].pop(),
                "expected 4 node entries",
            ),
            (
                lambda d: d["servers"][0]["components"][0]["nodes"][1].update(
                    {"cpu": -2}
                ),
                "servers[0].components[0].nodes[1].cpu",
            ),
            (
                lambda d: d["servers"][1]["components"][0].update(
                    {"capacities": [3] * 7 + [1.5]}
                ),
                "servers[1].components[0].capacities[7]",
            ),
            pytest.param(
                lambda d: d["servers"][1]["components"][0].update(
                    {"capacities": [3] * 7 + [2**33]}
                ),
                "servers[1].components[0].capacities[7]",
                id="capacity-above-2^32-1",
            ),
            pytest.param(
                lambda d: d["servers"][1]["components"][0].update(
                    {"capacities": [3] * 7}
                ),
                "servers[1].components[0].capacities: expected 8",
                id="capacities-wrong-length",
            ),
            (
                lambda d: d["servers"][1]["components"][0].update(
                    {"nodes": [{"cpu": 1}] * 8}
                ),
                "exactly one of",
            ),
            pytest.param(
                lambda d: d["servers"][0]["components"][0].update({"nodes": 7}),
                "servers[0].components[0].nodes: expected an array",
                id="nodes-not-an-array",
            ),
            pytest.param(
                lambda d: d["servers"][0]["components"][0]["nodes"].__setitem__(
                    1, {}
                ),
                "servers[0].components[0].nodes[1]: expected a non-empty",
                id="empty-node-map",
            ),
            pytest.param(
                lambda d: d["servers"][1]["components"][0].update(
                    {"capacities": "1234"}
                ),
                "servers[1].components[0].capacities: expected an array",
                id="capacities-a-string",
            ),
            pytest.param(
                lambda d: d["servers"][1]["components"][0].update({"topology": 5}),
                "servers[1].components[0].topology",
                id="topology-not-a-string",
            ),
            pytest.param(
                lambda d: d["servers"][1].update({"id": 5}),
                "servers[1].id: expected a non-empty string",
                id="id-not-a-string",
            ),
            (lambda d: d.update({"servers": []}), "servers"),
        ],
    )
    def test_state_schema_errors(self, capsys, tmp_path, mutate, needle):
        doc = json.loads(json.dumps(STATE_DOC))
        mutate(doc)
        state = write_json(tmp_path, "state.json", doc)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, _, err = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 2
        assert needle in err

    def test_flavor_schema_errors(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        # each case replaces one field of a good flavor; the file names it
        for field, value, needle in [
            ("demand", {"cpu": 0}, "flavors[0].demand.cpu"),
            ("demand", [1], "flavors[0].demand: "),
            ("demand", {}, "flavors[0].demand: "),
            ("vnuma", 5, "flavors[0].vnuma: "),
            ("vnuma", "zz9", "flavors[0].vnuma: unknown topology id"),
            ("id", "", "flavors[0].id: expected a non-empty string"),
            ("id", ["m2"], "flavors[0].id: expected a non-empty string"),
        ]:
            fd = {"id": "m2", "vnuma": "k2", "demand": {"cpu": 1}, field: value}
            flavors = write_json(tmp_path, "flavors.json", {"flavors": [fd]})
            code, _, err = run(capsys, "cluster", "--state", state,
                               "--flavors", flavors, "--flavor", "m2")
            assert code == 2, fd
            assert needle in err, fd

    def test_unreadable_and_invalid_files(self, capsys, tmp_path):
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, _, err = run(capsys, "cluster", "--state", str(tmp_path / "nope.json"),
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 2
        assert "cannot read file" in err

        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run(capsys, "cluster", "--state", str(broken),
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 2
        assert "invalid JSON" in err

    def test_duplicate_server_id(self, capsys, tmp_path):
        doc = {"servers": [STATE_DOC["servers"][0], STATE_DOC["servers"][0]]}
        state = write_json(tmp_path, "state.json", doc)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        code, _, err = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 2
        assert "duplicate server id" in err

    def test_duplicate_flavor_id(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        doc = {"flavors": [FLAVOR_DOC["flavors"][0]] * 2}
        flavors = write_json(tmp_path, "flavors.json", doc)
        code, _, err = run(capsys, "cluster", "--state", state,
                           "--flavors", flavors, "--flavor", "m2")
        assert code == 2
        assert "flavors[1].id: duplicate flavor id 'm2'" in err

    @pytest.mark.parametrize("doc,message", [
        ([], "$: expected a JSON object"),
        ({}, "flavors: expected a non-empty array"),
        ({"flavors": {"m2": 1}}, "flavors: expected a non-empty array"),
        ({"flavors": [7]}, "flavors[0]: expected an object"),
    ])
    def test_flavor_document_shape(self, capsys, tmp_path, doc, message):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        flavors = write_json(tmp_path, "flavors.json", doc)
        code, out, err = run(capsys, "cluster", "--state", state,
                             "--flavors", flavors, "--flavor", "m2")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads any number of digits here")
class TestLongTopologyIds:
    """An id with more digits than int() reads is a bad id, exit 2 with
    one error line naming where it was given, not a traceback."""

    MESSAGE = "topology id k999999999... has too many digits"

    def check(self, capsys, argv, where):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {where}{self.MESSAGE}\n"

    def test_eval(self, capsys):
        self.check(capsys, ["eval", "--topology", LONG_ID, "--vnuma", "k2",
                            "--caps", "1"], "")

    def test_state_file(self, capsys, tmp_path):
        doc = json.loads(json.dumps(STATE_DOC))
        doc["servers"][1]["components"][0]["topology"] = LONG_ID
        state = write_json(tmp_path, "state.json", doc)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        self.check(capsys, ["cluster", "--state", state, "--flavors", flavors,
                            "--flavor", "m2"], "servers[1].components[0].topology: ")

    def test_flavor_file(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        doc = {"flavors": [{"id": "m2", "vnuma": LONG_ID, "demand": {"cpu": 1}}]}
        flavors = write_json(tmp_path, "flavors.json", doc)
        self.check(capsys, ["cluster", "--state", state, "--flavors", flavors,
                            "--flavor", "m2"], "flavors[0].vnuma: ")


class TestOversizedParameters:
    """A parameter past MAX_CAPACITY but within int()'s digit limit is a
    bad id: exit 2 with one short error line that does not echo it."""

    HUGE_ID = "k" + "9" * 4000

    def check(self, capsys, argv, where):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: {where}topology id parameters must be at most"
                       f" {numacap.MAX_CAPACITY}\n")
        assert len(err.encode()) < 200

    def test_eval(self, capsys):
        self.check(capsys, ["eval", "--topology", self.HUGE_ID, "--vnuma", "k2",
                            "--caps", "1"], "")

    def test_state_file(self, capsys, tmp_path):
        doc = json.loads(json.dumps(STATE_DOC))
        doc["servers"][1]["components"][0]["topology"] = self.HUGE_ID
        state = write_json(tmp_path, "state.json", doc)
        flavors = write_json(tmp_path, "flavors.json", FLAVOR_DOC)
        self.check(capsys, ["cluster", "--state", state, "--flavors", flavors,
                            "--flavor", "m2"], "servers[1].components[0].topology: ")

    def test_flavor_file(self, capsys, tmp_path):
        state = write_json(tmp_path, "state.json", STATE_DOC)
        doc = {"flavors": [{"id": "m2", "vnuma": "k2_" + "9" * 4000,
                            "demand": {"cpu": 1}}]}
        flavors = write_json(tmp_path, "flavors.json", doc)
        self.check(capsys, ["cluster", "--state", state, "--flavors", flavors,
                            "--flavor", "m2"], "flavors[0].vnuma: ")

    def test_largest_parameter_still_parses(self):
        tid = numacap.parse_topology(f"k2_{numacap.MAX_CAPACITY}")
        assert tid.n == numacap.MAX_CAPACITY
        with pytest.raises(numacap.TopologyError, match="at most"):
            numacap.parse_topology(f"star{numacap.MAX_CAPACITY + 1}")


def reference_state(path):
    """The per-object loader the whole-file screen replaced, kept as the
    reference: each server and component is built and checked one by one,
    and the first fault is raised with its document path."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise numacap.SchemaError("$", "expected a JSON object")
    servers = doc.get("servers")
    if not isinstance(servers, list) or not servers:
        raise numacap.SchemaError("servers", "expected a non-empty array")
    out, seen = [], set()
    for i, sv in enumerate(servers):
        at = f"servers[{i}]"
        if not isinstance(sv, dict):
            raise numacap.SchemaError(at, "expected an object")
        comps_doc = sv.get("components")
        if not isinstance(comps_doc, list) or not comps_doc:
            raise numacap.SchemaError(f"{at}.components", "expected a non-empty array")
        comps = []
        for j, cd in enumerate(comps_doc):
            cat = f"{at}.components[{j}]"
            if not isinstance(cd, dict):
                raise numacap.SchemaError(cat, "expected an object")
            try:
                comps.append(numacap.ServerComponent(
                    cd.get("topology"), cd.get("nodes"), cd.get("capacities")
                ))
            except numacap.SchemaError as exc:
                raise numacap.SchemaError(
                    cat + exc.path[len("component"):], exc.message
                ) from None
            except numacap.TopologyError as exc:
                raise numacap.SchemaError(f"{cat}.topology", str(exc)) from None
            except numacap.DimensionError as exc:
                raise numacap.SchemaError(f"{cat}.capacities", str(exc)) from None
            except numacap.CapacityError as exc:
                raise numacap.SchemaError(
                    f"{cat}.capacities[{exc.index}]", str(exc)
                ) from None
        try:
            server = numacap.ServerState(sv.get("id"), tuple(comps))
        except numacap.SchemaError as exc:
            raise numacap.SchemaError(at + exc.path[len("server"):], exc.message) from None
        if server.id in seen:
            raise numacap.SchemaError(f"{at}.id", f"duplicate server id {server.id!r}")
        seen.add(server.id)
        out.append(server)
    return out


def screen_doc():
    """Five servers, each with a node component, a capacities component
    and a node component whose nodes carry differing resource names."""
    return {"servers": [
        {"id": f"s{s}", "components": [
            {"topology": "c4",
             "nodes": [{"cpu": 4 + s, "mem": 16 + n} for n in range(4)]},
            {"topology": "k2", "capacities": [s, 2]},
            {"topology": "star5",
             "nodes": [{"cpu": n, "mem": 9, "disk": 3} if n % 2 else {"cpu": n, "mem": 8}
                       for n in range(6)]},
        ]}
        for s in range(5)
    ]}


def _comp(j, **fields):
    """Replace or, with a None value, remove fields of component j."""
    def mutate(sv):
        for key, value in fields.items():
            if value is None:
                sv["components"][j].pop(key, None)
            else:
                sv["components"][j][key] = value
        return sv
    return mutate


def _node(j, n, value):
    def mutate(sv):
        sv["components"][j]["nodes"][n] = value
        return sv
    return mutate


def _amount(j, n, name, value):
    def mutate(sv):
        sv["components"][j]["nodes"][n][name] = value
        return sv
    return mutate


def _server(key, value):
    def mutate(sv):
        if value is None:
            sv.pop(key)
        else:
            sv[key] = value
        return sv
    return mutate


def _nodes_edit(j, edit):
    def mutate(sv):
        edit(sv["components"][j]["nodes"])
        return sv
    return mutate


# one edit to one server, applied to the first, a middle and the last
SERVER_MUTATIONS = {
    "server-not-an-object": lambda sv: 7,
    "server-an-array": lambda sv: [sv],
    "id-missing": _server("id", None),
    "id-empty": _server("id", ""),
    "id-a-number": _server("id", 5),
    "id-duplicate": _server("id", "s1"),
    "components-missing": _server("components", None),
    "components-empty": _server("components", []),
    "components-an-object": _server("components", {"a": 1}),
    "components-a-string": _server("components", "c4"),
    "component-not-an-object": lambda sv: {**sv, "components": [7]},
    "component-empty": lambda sv: {**sv, "components": [{}]},
    "component-neither-source": _comp(0, nodes=None),
    "component-both-sources": _comp(1, nodes=[{"cpu": 1}] * 2),
    "topology-unknown": _comp(0, topology="zz9"),
    "topology-a-number": _comp(2, topology=5),
    "topology-too-small": _comp(0, topology="k0"),
    "topology-missing": _comp(1, topology=None),
    "topology-spaced-upper-case": _comp(0, topology=" C4 "),
    "topology-another-size": _comp(0, topology="k4"),
    "topology-too-many-digits": _comp(0, topology=LONG_ID),
    "nodes-too-few": _nodes_edit(0, list.pop),
    "nodes-too-many": _nodes_edit(2, lambda nodes: nodes.append({"cpu": 1})),
    "nodes-a-number": _comp(0, nodes=7),
    "nodes-a-string": _comp(0, nodes="abcd"),
    "nodes-an-object": _comp(0, nodes={"a": {}, "b": {}, "c": {}, "d": {}}),
    "node-not-a-map": _node(0, 1, 7),
    "node-an-array": _node(2, 5, [1]),
    "node-empty": _node(0, 2, {}),
    "node-extra-name": _amount(2, 3, "gpu", 1),
    "node-without-a-shared-name": _nodes_edit(0, lambda nodes: nodes[3].pop("cpu")),
    "capacities-short": _comp(1, capacities=[1]),
    "capacities-long": _comp(1, capacities=[1, 2, 3]),
    "capacities-above-2^32-1": _comp(1, capacities=[2**32, 0]),
    "capacities-at-2^32-1": _comp(1, capacities=[2**32 - 1, 0]),
    "capacities-a-string": _comp(1, capacities="12"),
    "capacities-an-object": _comp(1, capacities={"a": 1, "b": 2}),
    "capacities-a-number": _comp(1, capacities=3),
}
for _value, _label in ((-1, "negative"), (True, "true"), (1.5, "fraction"),
                       ("3", "string"), (None, "null"), (2**64, "2^64")):
    SERVER_MUTATIONS[f"amount-{_label}"] = _amount(0, 1, "cpu", _value)
    # a name the last node carries and the first does not
    SERVER_MUTATIONS[f"amount-{_label}-last-node"] = _amount(2, 5, "disk", _value)
    SERVER_MUTATIONS[f"capacity-{_label}"] = _comp(1, capacities=[1, _value])

TOP_MUTATIONS = {
    "not-an-object": [],
    "a-string": "servers",
    "no-servers": {},
    "servers-empty": {"servers": []},
    "servers-an-object": {"servers": {"a": 1}},
    "servers-null": {"servers": None},
}

SCREEN_FLAVORS = (
    numacap.Flavor("pair", "k2", {"cpu": 1, "mem": 4}),
    numacap.Flavor("solo", "k1", {"disk": 1}),
)


class TestStateScreen:
    """The whole-file screen accepts exactly what the constructors accept,
    and a refused document raises the reference loader's fault."""

    def check(self, tmp_path, monkeypatch, doc):
        path = write_json(tmp_path, "state.json", doc)
        walked = []
        read = capacity._read
        monkeypatch.setattr(
            capacity, "_read", lambda d, *rest: walked.append(d) or read(d, *rest)
        )
        try:
            want = reference_state(path)
        except numacap.SchemaError as exc:
            assert capacity._screen(doc) is None
            with pytest.raises(numacap.SchemaError) as info:
                cli.load_cluster_state(path)
            assert (info.value.path, info.value.message) == (exc.path, exc.message)
            return
        state = cli.load_cluster_state(path)
        assert not walked, "a valid document was walked server by server"
        for flavor in SCREEN_FLAVORS:
            assert numacap.cluster_capacity(state, flavor) == numacap.cluster_capacity(
                want, flavor
            )

    def test_valid_document(self, tmp_path, monkeypatch):
        self.check(tmp_path, monkeypatch, screen_doc())

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("name", sorted(SERVER_MUTATIONS))
    def test_server_mutation(self, tmp_path, monkeypatch, name, where):
        doc = screen_doc()
        doc["servers"][where] = SERVER_MUTATIONS[name](doc["servers"][where])
        self.check(tmp_path, monkeypatch, doc)

    @pytest.mark.parametrize("name", sorted(TOP_MUTATIONS))
    def test_top_level_mutation(self, tmp_path, monkeypatch, name):
        self.check(tmp_path, monkeypatch, TOP_MUTATIONS[name])

    def test_first_fault_in_document_order(self, tmp_path, monkeypatch):
        doc = screen_doc()
        doc["servers"][3]["components"][0]["nodes"][2]["cpu"] = -1
        doc["servers"][1]["components"][1]["capacities"] = [1]
        self.check(tmp_path, monkeypatch, doc)
        with pytest.raises(numacap.SchemaError) as info:
            cli.load_cluster_state(write_json(tmp_path, "state.json", doc))
        assert info.value.path == "servers[1].components[1].capacities"


class TestBenchmarkGenerator:
    """numacap cluster on the benchmark's own state generator agrees with
    server_capacity over servers built through the public constructors."""

    def test_rows_equal_server_capacity(self, capsys, tmp_path):
        spec = importlib.util.spec_from_file_location("capbench_gen", GEN_PATH)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        text, servers = gen.cluster_state(1, 0, servers=300)
        state = tmp_path / "state.json"
        state.write_text(text, encoding="utf-8")
        flavors = tmp_path / "flavors.json"
        flavors.write_text(gen.flavors_text(), encoding="utf-8")
        code, out, _ = run(capsys, "cluster", "--json", "--state", str(state),
                           "--flavors", str(flavors), "--flavor", gen.FLAVOR["id"])
        assert code == 0
        flavor = numacap.Flavor(**gen.FLAVOR)
        rows = [
            {"id": sid, "count": numacap.server_capacity(numacap.ServerState(sid, tuple(
                numacap.ServerComponent(host, nodes=[
                    {"cpu": cpu, "mem": mem, "disk": disk} for cpu, mem, disk in nodes
                ])
                for host, nodes in comps
            )), flavor)}
            for sid, comps in servers
        ]
        assert json.loads(out) == {
            "flavor": flavor.id,
            "servers": rows,
            "total": sum(row["count"] for row in rows),
        }


class TestVerify:
    def test_exhaustive_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                           "--max-cap", "3")
        assert code == 0
        assert "256 cases, 0 mismatches" in out

    def test_random_clean_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--topology", "cq3", "--vnuma", "k2",
                           "--samples", "60", "--seed", "9", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "random"
        assert doc["cases"] == 60
        assert doc["mismatches"] == 0

    def test_seed_reproducibility(self, capsys):
        _, first, _ = run(capsys, "verify", "--topology", "l4", "--vnuma", "k2",
                          "--samples", "40", "--seed", "3", "--json")
        _, second, _ = run(capsys, "verify", "--topology", "l4", "--vnuma", "k2",
                           "--samples", "40", "--seed", "3", "--json")
        assert first == second

    def test_broken_formula_is_caught(self, capsys, patch_formula):
        patch_formula("c4", "k2", lambda b: 999)
        code, out, _ = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                           "--max-cap", "1")
        assert code == 1
        assert "16 cases, 16 mismatches" in out
        assert "formula=999" in out

    def test_off_by_one_formula_is_caught(self, capsys, patch_formula):
        real = formulas.vmcap_cq3_k2
        patch_formula("cq3", "k2", lambda b: real(b) + (1 if sum(b) > 9 else 0))
        code, out, _ = run(capsys, "verify", "--topology", "cq3", "--vnuma", "k2",
                           "--samples", "80", "--seed", "1")
        assert code == 1
        assert "mismatches" in out

    def test_every_vector_at_any_magnitude_is_a_case(self, capsys):
        args = ["verify", "--topology", "cq3", "--vnuma", "k2",
                "--samples", "40", "--max-cap", str(numacap.MAX_CAPACITY)]
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        assert json.loads(out) == {
            "topology": "cq3", "vnuma": "k2", "mode": "random", "cases": 40,
            "mismatches": 0, "examples": [], "cones": 9, "simplices": 80}
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == ("cq3/k2 random: 40 cases, 0 mismatches"
                       " (9 cones, 80 simplices)\n")

    def test_mismatch_at_a_large_entry_is_caught(self, capsys, monkeypatch,
                                                 patch_formula):
        # one too many only where an entry passes 10^6: a sweep of sums up
        # to 200 never sees it, a sweep against floor(LP) at any magnitude does
        real = formulas.vmcap_cq3_k2
        patch_formula("cq3", "k2", lambda b: real(b) + (max(b) > 10**6))
        code, out, _ = run(capsys, "verify", "--topology", "cq3", "--vnuma", "k2",
                           "--samples", "40", "--max-cap", str(numacap.MAX_CAPACITY),
                           "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["cases"] == 40 and doc["mismatches"] > 0
        ex = doc["examples"][0]
        assert max(ex["caps"]) > 10**6 and ex["formula"] == ex["oracle"] + 1
        # the no-pair run finds it in its full-range sweep, past the
        # instance's own range
        monkeypatch.setattr(cli, "INSTANCES", (("cq3", "k2", (20, 50)),))
        monkeypatch.setattr(cli, "lp_pairs", list)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("cq3/k2 random+random: 306 cases,")
        caps = json.loads(lines[1].split("caps=")[1].split(" formula")[0])
        assert max(caps) > 10**6

    def test_zero_beside_a_large_entry_is_caught(self, capsys, monkeypatch,
                                                 patch_formula):
        # one too many only where a zero meets an entry past 10^6: the
        # full-range sweep draws each entry's bit length, so zeros and
        # small entries sit beside large ones
        real = formulas._cliques
        patch_formula("kn", None, lambda n, k, b: real(n, k, b)
                      + (min(b) == 0 and max(b) > 10**6))
        monkeypatch.setattr(cli, "INSTANCES", (("k6", "k2", formulas.RANDOM_TO_12),))
        monkeypatch.setattr(cli, "lp_pairs", list)
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 1
        [doc] = json.loads(out)
        assert (doc["topology"], doc["vnuma"], doc["cases"]) == ("k6", "k2", 10256)
        assert doc["mismatches"] > 0
        for ex in doc["examples"]:
            assert min(ex["caps"]) == 0 and max(ex["caps"]) > 10**6, ex
            assert ex["formula"] == ex["oracle"] + 1, ex

    def test_wrong_witness_is_caught(self, capsys, monkeypatch):
        # the count is right; the layout the binding calls drops its
        # first group
        wrap = formulas.wrap
        monkeypatch.setattr(formulas, "wrap", lambda *args: numacap.Placement(
            wrap(*args).matches[1:]))
        code, out, _ = run(capsys, "verify", "--topology", "k4", "--vnuma", "k2",
                           "--max-cap", "1", "--json")
        assert code == 1
        doc = json.loads(out)
        # every vector with two positive entries fits a pair
        assert doc["mismatches"] == 11
        ex = doc["examples"][0]
        assert ex["formula"] == ex["oracle"] == 1
        assert ex["witness"] == "places 0"

    def test_witness_past_its_count_is_caught(self, capsys, monkeypatch):
        wrap = formulas.wrap
        monkeypatch.setattr(formulas, "wrap", lambda *args: numacap.Placement(
            wrap(*args).matches * 2))
        code, out, _ = run(capsys, "verify", "--topology", "k4", "--vnuma", "k2",
                           "--max-cap", "1")
        assert code == 1
        assert "16 cases, 11 mismatches" in out
        assert "witness: node" in out

    def test_refused_proof_is_not_swept(self, capsys, monkeypatch):
        # a closed pair whose proof fails: floor(LP) is not its count, so
        # the proof's failures are the document and no vector is swept
        real = rounding.prove

        def refused(host, guest):
            return real(host, guest)._replace(failures={(1, 1, 0, 0): (1, 0)})

        monkeypatch.setattr(rounding, "prove", refused)
        code, out, _ = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                           "--max-cap", "3")
        assert code == 1
        assert out == ("c4/k2 proof: 6 cases, 1 mismatches (2 cones, 6 simplices)\n"
                       "  caps=[1, 1, 0, 0] formula=1 oracle=0\n")

    def test_pair_without_closed_form(self, capsys):
        # proved, not swept: the proof's base points are its cases, and the
        # guest is named as vmcap binds it
        code, out, _ = run(capsys, "verify", "--topology", "l4", "--vnuma", "c4",
                           "--json")
        assert code == 0
        assert json.loads(out) == {
            "topology": "l4", "vnuma": "c4", "mode": "proof", "cases": 28,
            "mismatches": 0, "examples": [], "cones": 12, "simplices": 28}
        code, out, _ = run(capsys, "verify", "--topology", "star4", "--vnuma",
                           "k1_2")
        assert code == 0
        assert out == ("star4/star2 proof: 23 cases, 0 mismatches"
                       " (6 cones, 19 simplices)\n")

    def test_refused_proof_lists_every_failing_vector(self, capsys):
        code, out, _ = run(capsys, "verify", "--topology", "cq3", "--vnuma",
                           "k1_3", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["mode"] == "proof"
        assert doc["mismatches"] == len(doc["examples"]) == 5
        assert {"caps": [1] * 8, "formula": 2, "oracle": 1,
                "witness": None} in doc["examples"]
        assert all(ex["oracle"] < ex["formula"] for ex in doc["examples"])
        code, out, _ = run(capsys, "verify", "--topology", "cq3", "--vnuma", "k1_3")
        assert code == 1
        assert "  caps=[1, 1, 1, 1, 1, 1, 1, 1] formula=2 oracle=1" in out.splitlines()

    @pytest.mark.parametrize("flag", ["--max-cap", "--samples", "--seed"])
    def test_proved_pair_takes_no_sweep_flag(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--topology", "l4", "--vnuma", "c4",
                             flag, "1")
        assert code == 2 and out == ""
        assert err == (f"error: {flag}: l4/c4 has no closed form; it is proved,"
                       " not swept\n")

    def test_bad_id_in_a_pair(self, capsys):
        code, out, err = run(capsys, "verify", "--topology", "l4", "--vnuma", "x")
        assert code == 2 and out == ""
        assert err == "error: unknown topology id 'x'\n"

    def test_proved_host_past_the_solver_limit_builds_no_graph(self, capsys):
        numacap.topology._expand.cache_clear()
        code, out, err = run(capsys, "verify", "--topology", "k3_6", "--vnuma", "c4")
        assert code == 2 and out == ""
        assert err == "error: oracle supports hosts up to 8 vertices\n"
        assert numacap.topology._expand.cache_info().currsize == 0

    def test_exhaustive_sweep_size_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--topology", "cq3", "--vnuma", "k2",
                           "--max-cap", "20")
        assert code == 2
        assert "too large" in err

    @pytest.mark.parametrize("extra", [[], ["--samples", "5"]])
    def test_negative_max_cap(self, capsys, extra):
        code, out, err = run(capsys, "verify", "--topology", "c4", "--vnuma",
                             "k2", "--max-cap", "-1", *extra)
        assert code == 2
        assert out == ""
        assert "--max-cap" in err

    @pytest.mark.parametrize("extra", [[], ["--samples", "3"]])
    def test_max_cap_past_the_largest_entry(self, capsys, extra):
        code, out, err = run(capsys, "verify", "--topology", "c4", "--vnuma",
                             "k2", "--max-cap", "5000000000", *extra)
        assert code == 2 and out == ""
        assert err == "error: --max-cap: must be <= 4294967295\n"

    def test_exhaustive_needs_bound(self, capsys):
        code, _, err = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2")
        assert code == 2
        assert "--max-cap" in err

    def test_no_samples(self, capsys):
        code, out, err = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                             "--samples", "0")
        assert code == 2 and out == ""
        assert "--samples: must be >= 1" in err

    def test_host_past_the_solver_limit_builds_no_graph(self, capsys):
        numacap.topology._expand.cache_clear()
        code, out, err = run(capsys, "verify", "--topology", "k40_40", "--vnuma",
                             "k2", "--max-cap", "0", "--samples", "1")
        assert code == 2 and out == ""
        assert err == "error: oracle supports hosts up to 8 vertices\n"
        assert numacap.topology._expand.cache_info().currsize == 0

    @pytest.mark.parametrize("pnuma,sweep", [
        # the default range draws 80-node vectors past sum(b) = 200
        ("k40_40", ["--samples", "3"]),
        # 3^100000 vectors, a count of 47,713 digits
        ("k100000", ["--max-cap", "2"]),
    ])
    def test_host_past_the_solver_limit_is_named_first(self, capsys, pnuma, sweep):
        # the host's size rules the pair out before the sweep is sized
        # or any vector is drawn
        code, out, err = run(capsys, "verify", "--topology", pnuma, "--vnuma",
                             "k2", *sweep)
        assert code == 2 and out == ""
        assert err == "error: oracle supports hosts up to 8 vertices\n"


class TestRegistrySweeps:
    """verify with no pair runs every registry instance."""

    # hosts as given, guests as vmcap binds them: star3/k1_3 is star3/star3
    INSTANCES = [(host, str(numacap.canonical_id(guest)))
                 for host, guest, _ in formulas.INSTANCES]
    PROVED = [(str(host), str(guest)) for host, guest in formulas.lp_pairs()]

    def test_verify_every_instance(self, capsys):
        # the sweeps take the flags; then every graph pair counted by
        # floor(LP) is proved, q33/c4 among them, as k4_4/c4 reaches the
        # solver where q33/c4 has a formula
        code, out, _ = run(capsys, "verify", "--samples", "30", "--max-cap", "3",
                           "--json")
        assert code == 0
        docs = json.loads(out)
        sweeps, proofs = docs[:len(self.INSTANCES)], docs[len(self.INSTANCES):]
        assert [(d["topology"], d["vnuma"]) for d in sweeps] == self.INSTANCES
        assert len(set(self.INSTANCES)) == len(self.INSTANCES)
        assert ("star3", "star3") in self.INSTANCES
        for d in sweeps:
            assert d["mode"] == "random" and d["cases"] == 30, d
            assert d["mismatches"] == 0 and d["simplices"] >= d["cones"] > 0, d
        assert [(d["topology"], d["vnuma"]) for d in proofs] == self.PROVED
        assert len(self.PROVED) == 225 and ("q33", "c4") in self.PROVED
        for d in proofs:
            assert d["mode"] == "proof" and d["mismatches"] == 0, d
            assert d["cases"] >= d["simplices"] >= d["cones"] > 0, d

    def test_each_instance_takes_its_own_sweep(self, capsys, monkeypatch):
        # (max_cap, samples): every vector of [0..1]^4, then 5 drawn ones,
        # each followed by the full-range sweep
        monkeypatch.setattr(cli, "INSTANCES", (("c4", "k2", (1, None)),
                                               ("k4", "k2", (2, 5))))
        monkeypatch.setattr(cli, "FULL_RANGE", (numacap.MAX_CAPACITY, 3))
        monkeypatch.setattr(cli, "lp_pairs", lambda: [(numacap.L4, numacap.C4)])
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        docs = json.loads(out)
        assert [(d["topology"], d["mode"], d["cases"]) for d in docs] == [
            ("c4", "exhaustive+random", 19), ("k4", "random+random", 8),
            ("l4", "proof", 28)]

    def test_one_id_alone_is_an_error(self, capsys):
        code, _, err = run(capsys, "verify", "--topology", "c4", "--max-cap", "1")
        assert code == 2
        assert "--vnuma" in err


class TestEntryPoints:
    def test_usage_errors(self, capsys):
        assert run(capsys, )[0] == 2
        assert run(capsys, "eval")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "bench")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "numacap", "eval", "--topology", "c4",
             "--vnuma", "k2", "--caps", "2,5,3,1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5"

    def test_console_script(self, tmp_path):
        # The suite runs from source, so no script is installed. Build the
        # launcher an installer would write from the entry point that
        # pyproject.toml declares, and also run an installed one if present.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "numacap" in scripts, "pyproject.toml declares no numacap script"
        entry = EntryPoint(
            name="numacap", value=scripts["numacap"], group="console_scripts"
        )
        assert entry.load() is cli.main

        launcher = tmp_path / "numacap"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)
        exes = [str(launcher)]
        installed = shutil.which("numacap")
        if installed:
            exes.append(installed)

        for exe in exes:
            proc = subprocess.run(
                [exe, "place", "--topology", "cq3", "--vnuma", "k2",
                 "--caps", "5,0,0,0,0,0,5,0"],
                capture_output=True,
                text=True,
                env=CHILD_ENV,
            )
            assert proc.returncode == 0, (exe, proc.stderr)
            assert json.loads(proc.stdout)["count"] == 5, exe

    def test_version_attribute(self):
        assert numacap.__version__
