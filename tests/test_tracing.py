"""The benchmark tracer's targets exist in the package.

capbench/spans.py wraps each (module, attribute) in TARGETS by name, so a
renamed or removed function breaks every traced benchmark run; this
reads that list and changes nothing under capbench.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "capbench" / "spans.py"


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
