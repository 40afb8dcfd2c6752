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


def _imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_roots_imports_nothing_from_analytic():
    # The root criterion lives in roots, and analytic's ppow builds on it; the
    # reverse import would let a second copy of the criterion grow in analytic.
    roots = next(p for p in MODULES if p.stem == "roots")
    assert not any("analytic" in name.split(".") for name in _imported_modules(roots.read_text(encoding="utf-8")))


def test_an_import_of_analytic_is_found():
    for source in ("from .analytic import ppow\n", "from . import analytic\n", "import wittpadics.analytic\n"):
        assert any("analytic" in name.split(".") for name in _imported_modules(source))
