"""Every name a library module imports is read somewhere in that module.

The package's __init__ is left out: it imports names in order to export them.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "wittpadics").glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"analytic", "cli", "padic", "roots", "witt"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from .padic import _setattr, teichmuller\nimport enum\n\n\ndef f(x):\n    return teichmuller(x)\n"
    assert _unused_imports(source) == ["_setattr", "enum"]
