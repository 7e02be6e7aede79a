"""What each path loads: a count loads no solver, witness or dataclasses
code, and the package's lazily loaded names resolve as attributes.

Each case runs a fresh interpreter and compares its sys.modules with
that of one that ran `pass`, under the same flags and environment.
"""

import json
import os
import subprocess
import sys

import pytest

import numacap as nc
from numacap import formulas

SRC = os.path.dirname(os.path.dirname(nc.__file__))

# what a closed-form count or a cluster roll-up has no use for
UNUSED_BY_COUNTS = {"dataclasses", "numacap.oracle", "numacap.placement",
                    "numacap.rounding"}


def fresh(code: str) -> str:
    """The last line `code` prints in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded(code: str) -> set:
    """The modules `code` leaves loaded past those of `pass`."""
    probe = "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    return set(json.loads(fresh(code + probe))) - set(json.loads(fresh("pass" + probe)))


def test_counts_and_the_cluster_path_load_no_solver_or_witness(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"servers": [
        {"id": "a", "components": [{"topology": "c4", "nodes": [{"cpu": 3}] * 4}]},
        {"id": "b", "components": [{"topology": "cq3", "capacities": [1] * 8}]},
    ]}))
    flavors = tmp_path / "flavors.json"
    flavors.write_text(json.dumps(
        {"flavors": [{"id": "m2", "vnuma": "k2", "demand": {"cpu": 1}}]}))
    # every registry instance's pair, each spelling as the registry lists it
    pairs = sorted({(host, guest) for host, guest, _ in formulas.INSTANCES})
    code = (
        "import numacap, numacap.cli\n"
        f"for host, guest in {pairs!r}:\n"
        "    n = numacap.parse_topology(host).vertex_count\n"
        "    assert numacap.closed_form_evaluator(host, guest) is not None\n"
        "    numacap.vmcap(host, guest, (3,) * n)\n"
        "assert numacap.cli.main(['cluster', '--json', '--state', %r,"
        " '--flavors', %r, '--flavor', 'm2']) == 0\n" % (str(state), str(flavors))
    )
    new = loaded(code)
    assert {"numacap.formulas", "numacap.capacity", "numacap.cli"} <= new
    assert not new & UNUSED_BY_COUNTS


@pytest.mark.parametrize("code,wanted,unwanted", [
    # a floor(LP) pair binds the solver, and no witness code
    ("import numacap; numacap.vmcap('l4', 'c4', (26,) * 8)",
     {"numacap.oracle"}, {"numacap.placement", "numacap.rounding", "dataclasses"}),
    # a closed pair's witness loads the witness rules, and no solver
    ("import numacap; numacap.place_vnuma('cq3', 'k2', (3,) * 8)",
     {"numacap.placement"}, {"numacap.oracle", "numacap.rounding", "dataclasses"}),
    # a solver pair's witness loads both
    ("import numacap; numacap.place_vnuma('l4', 'c4', (3,) * 8)",
     {"numacap.oracle", "numacap.placement"}, {"numacap.rounding", "dataclasses"}),
], ids=["solver-count", "closed-witness", "solver-witness"])
def test_solver_and_witness_paths_load_what_they_use(code, wanted, unwanted):
    new = loaded(code)
    assert wanted <= new
    assert not new & unwanted


def test_lazy_names_resolve_as_attributes():
    # no other import first: plain attribute reads load the submodules
    assert fresh(
        "import numacap as nc\n"
        "print(nc.oracle.MAX_ORACLE_TOTAL_CAPACITY, nc.placement.MAX_EXPANDED_GROUPS)"
    ) == "200 1000000"
    assert fresh(
        "import sys, numacap as nc\n"
        "names = ['oracle', 'placement', *nc.__all__]\n"
        "assert set(names) <= set(dir(nc)), set(names) - set(dir(nc))\n"
        "values = [getattr(nc, name) for name in names]\n"
        "assert nc.oracle is sys.modules['numacap.oracle']\n"
        "assert nc.placement is sys.modules['numacap.placement']\n"
        "assert nc.place_vnuma is nc.placement.place_vnuma\n"
        "assert nc.oracle_vmcap is nc.oracle.oracle_vmcap\n"
        "assert not hasattr(nc, 'no_such_name')\n"
        "print(len(values))"
    ) == str(2 + len(nc.__all__))
    assert fresh(
        "from numacap import *\n"
        "import numacap\n"
        "missing = [n for n in numacap.__all__ if n not in globals()]\n"
        "print(missing, Placement(()).count, verify_placement.__module__)"
    ) == "[] 0 numacap.placement"
