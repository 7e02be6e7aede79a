"""The benchmark's reads of the package exist in it.

capbench/spans.py wraps each (module, attribute) in TARGETS by name, and
the benchmark's checks, workloads and tests read functions, classes and
constants of the package, so a renamed or removed one breaks benchmark
runs; these tests read capbench's sources and change nothing under it.
"""

import ast
import importlib
from pathlib import Path

import pytest

CAPBENCH = Path(__file__).resolve().parents[1] / "capbench"
SPANS = CAPBENCH / "spans.py"


def load_targets():
    """TARGETS as spans.py assigns it, read from the source, not imported."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


@pytest.mark.parametrize("module,attribute", load_targets())
def test_target_is_a_callable_of_its_module(module, attribute):
    mod = importlib.import_module(f"numacap.{module}")
    assert callable(getattr(mod, attribute, None)), f"numacap.{module}.{attribute}"


def package_aliases(tree):
    """{name: dotted path} for each name the module binds to the package or
    one of its members by import, as `nc`, `numacap` or `f` for
    numacap.formulas."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numacap":
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases["numacap"] = "numacap"
        elif isinstance(node, ast.ImportFrom) and node.module == "numacap":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"numacap.{alias.name}"
    return aliases


def chain_of(node):
    """(root name, attribute names) of a chain a.b.c, or None when the
    chain does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, names[::-1]) if isinstance(node, ast.Name) else None


def load_reads():
    """Every dotted path capbench reads from the package: the outermost
    attribute chains rooted at an alias of it, and getattr(chain, "name")."""
    reads = set()
    for path in sorted(CAPBENCH.glob("*.py")) + sorted(CAPBENCH.glob("tests/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = package_aliases(tree)
        inner = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        }
        for node in ast.walk(tree):
            chain = None
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                chain = chain_of(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                chain = chain_of(node.args[0])
                if chain is not None:
                    chain = (chain[0], [*chain[1], node.args[1].value])
            if chain is not None and chain[0] in aliases:
                reads.add(".".join([aliases[chain[0]], *chain[1]]))
    return sorted(reads)


def resolve(dotted):
    """The object at a dotted path under numacap, importing submodules on
    the way as `import numacap.x` would."""
    names = dotted.split(".")
    obj = importlib.import_module(names[0])
    for i, name in enumerate(names[1:], start=1):
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = importlib.import_module(".".join(names[: i + 1]))
    return obj


READS = load_reads()


def test_the_scan_finds_the_benchmark_checks_reads():
    # a scan that matched nothing would pass every case below
    assert {"numacap.oracle_vmcap", "numacap.formulas.vmcap_c4_k2",
            "numacap.oracle.MAX_ORACLE_TOTAL_CAPACITY"} <= set(READS)


@pytest.mark.parametrize("dotted", READS)
def test_each_read_of_the_package_resolves(dotted):
    resolve(dotted)
