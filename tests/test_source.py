"""Static checks on the package source, with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracvar"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__``'s names count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {imported[name]})" for name in sorted(set(imported) - read)]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert _unused_imports(ast.parse((SRC / module).read_text())) == []


def test_unused_import_check_sees_imports_and_reexports():
    tree = ast.parse("import math\nimport os.path\nfrom .a import b, c as d\n__all__ = ['d']\nos.sep\n")
    assert _unused_imports(tree) == ["b (line 3)", "math (line 1)"]
