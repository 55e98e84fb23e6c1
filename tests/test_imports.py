"""Every module of the package and of the tests reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# a package __init__ imports names to re-export them
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "relgrid").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order;
    `from __future__` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for lineno, name in sorted(bound) if name not in read]


def test_finds_an_unused_import():
    source = "import os\nimport os.path\nfrom a import b as c, d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: os", "line 3: c"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
