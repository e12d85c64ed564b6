"""Every function the benchmark's tracer wraps still exists under its name.

perfbench/tracer.py names the layer functions it wraps in TARGETS; renaming
or deleting one of them breaks `perfbench/run.py --trace 1`.  TARGETS is read
from the source as a literal, so this test runs none of the benchmark code.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("module, attr", [t[1:] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
