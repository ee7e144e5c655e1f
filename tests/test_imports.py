"""Import hygiene of the ``classlink`` package, read from its source with ``ast``.

Two rules, one test each per module:

* every name a module imports is used in that module (annotations count);
* no module imports a ``_private`` name from another classlink module: what
  two modules share is public.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "classlink"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree: ast.Module) -> list[tuple[ast.ImportFrom | ast.Import, str, str]]:
    """``(node, name bound, name imported)`` of every import in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node, alias.asname or alias.name.split(".")[0], alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found.append((node, alias.asname or alias.name, alias.name))
    return found


def test_the_package_has_modules():
    assert {"graph.py", "heuristics.py", "backbone.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for _, bound, _ in imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{'.' * node.level}{node.module or ''}:{name}"
        for node, _, name in imports(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "classlink")
        and name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names {private}"
