"""Command line behavior: output shapes, exit codes, file parsing."""

import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import numacap
from numacap import cli, formulas

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert json.loads(out) == {"count": 3, "matches": [[1, 2], [1, 2], [1, 3]]}

    def test_ring_guest(self, capsys):
        code, out, _ = run(capsys, "place", "--topology", "q33", "--vnuma", "c4",
                           "--caps", "1,2,3,4,5,6,7,8")
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_pair_without_routine(self, capsys):
        # a pair with no closed form prints the solver's witness
        caps = (1,) * 8
        code, out, _ = run(capsys, "place", "--topology", "l4", "--vnuma", "c4",
                           "--caps", "1,1,1,1,1,1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == numacap.vmcap("l4", "c4", caps).count == 2
        numacap.verify_placement(
            numacap.expand_topology("l4"), numacap.expand_topology("c4"), caps,
            numacap.Placement(tuple(tuple(m) for m in doc["matches"])),
        )

        code, out, _ = run(capsys, "place", "--topology", "cq3", "--vnuma", "k3",
                           "--caps", "1,1,1,1,1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"count": 0, "matches": []}

        # past the solver's limit, place fails as eval does
        code, out, err = run(capsys, "place", "--topology", "l4", "--vnuma", "c4",
                             "--caps", "26,26,26,26,26,26,26,26")
        assert code == 2
        assert out == ""
        assert "total capacity up to 200, got 208" in err

    def test_guest_larger_than_host(self, capsys):
        code, out, _ = run(capsys, "place", "--topology", "c4", "--vnuma", "k5",
                           "--caps", "1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"count": 0, "matches": []}

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

    def test_vectors_past_the_solver_limit_are_skipped(self, capsys):
        args = ["verify", "--topology", "c4", "--vnuma", "k2",
                "--samples", "40", "--max-cap", "80"]
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["cases"] > 0 and doc["skipped"] > 0
        assert doc["cases"] + doc["skipped"] == 40
        assert doc["mismatches"] == 0
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert f"{doc['cases']} cases, 0 mismatches" in out
        assert f"skipped {doc['skipped']} (sum(b) > 200, the solver's limit)" in out

    def test_wrong_witness_is_caught(self, capsys, patch_formula):
        # the count is right; the witness drops its first group
        patch_formula("kn", None, lambda n, k, b: numacap.Placement(
            numacap.place_kn_kk(n, k, b).matches[1:]), "witness")
        code, out, _ = run(capsys, "verify", "--topology", "k4", "--vnuma", "k2",
                           "--max-cap", "1", "--json")
        assert code == 1
        doc = json.loads(out)
        # every vector with two positive entries fits a pair
        assert doc["mismatches"] == 11
        ex = doc["examples"][0]
        assert ex["formula"] == ex["oracle"] == 1
        assert ex["witness"] == "places 0"

    def test_witness_past_its_count_is_caught(self, capsys, patch_formula):
        patch_formula("kn", None, lambda n, k, b: numacap.Placement(
            numacap.place_kn_kk(n, k, b).matches * 2), "witness")
        code, out, _ = run(capsys, "verify", "--topology", "k4", "--vnuma", "k2",
                           "--max-cap", "1")
        assert code == 1
        assert "16 cases, 11 mismatches" in out
        assert "witness: node" in out

    def test_mismatch_in_a_sweep_with_skips(self, capsys, patch_formula):
        patch_formula("c4", "k2", lambda b: 999)
        code, out, _ = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                           "--samples", "40", "--max-cap", "80", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["skipped"] > 0
        assert doc["mismatches"] == doc["cases"] > 0

    def test_every_vector_past_the_solver_limit(self, capsys):
        code, out, err = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2",
                             "--samples", "3", "--max-cap", "1000")
        assert code == 2
        assert out == ""
        assert "all 3 vectors have sum(b) > 200, the solver's limit" in err

    def test_pair_without_closed_form(self, capsys):
        code, _, err = run(capsys, "verify", "--topology", "l4", "--vnuma", "c4",
                           "--max-cap", "1")
        assert code == 2
        assert "no closed-form evaluator" in err

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

    def test_exhaustive_needs_bound(self, capsys):
        code, _, err = run(capsys, "verify", "--topology", "c4", "--vnuma", "k2")
        assert code == 2
        assert "--max-cap" in err


class TestRegistrySweeps:
    """verify with no pair runs every registry instance."""

    INSTANCES = [(host, guest) for host, guest, _ in formulas.INSTANCES]

    def test_verify_every_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "30", "--max-cap", "3",
                           "--json")
        assert code == 0
        docs = json.loads(out)
        assert [(d["topology"], d["vnuma"]) for d in docs] == self.INSTANCES
        assert all(d["cases"] == 30 and d["mismatches"] == 0 for d in docs)

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
            )
            assert proc.returncode == 0, (exe, proc.stderr)
            assert json.loads(proc.stdout)["count"] == 5, exe

    def test_version_attribute(self):
        assert numacap.__version__
