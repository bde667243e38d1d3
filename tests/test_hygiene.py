"""Source hygiene of the package, checked with the standard library alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynamo"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line it is bound on; __future__ imports bind none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, plus the strings listed in __all__."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return out


def test_every_module_is_checked():
    assert {"bloch.py", "evolve.py", "fields.py", "glue.py", "modal.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items() if name not in read]
    assert not unused, f"imported but never read: {', '.join(unused)}"
