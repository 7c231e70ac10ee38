"""Import hygiene: every module-level import in the package and the tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/detcurve/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads; names
    listed in __all__ count as read (re-exports)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_flags_unused_and_keeps_reexports():
    src = "import os\nimport json as j\nfrom a import b, c\n__all__ = ['c']\nj.dumps(1)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
