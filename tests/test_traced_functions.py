"""The traced benchmark wraps library functions by name; they must still exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_functions() -> dict:
    # read the TRACED table from the source without executing the module
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_function_resolves_on_its_home_module():
    traced = traced_functions()
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"wittpadics.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"wittpadics.{module_name}.{name} is gone"
