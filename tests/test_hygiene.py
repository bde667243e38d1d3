"""Source hygiene of the package, checked with the standard library alone."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dynamo"
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


def misplaced_imports(tree: ast.Module) -> list[ast.stmt]:
    """Imports below module level, except a function's ``from . import sibling``, which breaks an import cycle."""
    top = {id(node) for node in tree.body}
    in_function = {id(node) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
            and not (id(node) in in_function and isinstance(node, ast.ImportFrom)
                     and node.level == 1 and node.module is None)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in misplaced_imports(tree)]
    assert not found, f"import below module level: {', '.join(found)}"


def nan_dropping_reductions(tree: ast.Module) -> list[ast.Call]:
    """Builtin max or min over one generator expression or list comprehension.

    Python's max(x, nan) keeps x, so such a reduction drops a NaN element
    that follows a finite one; np.max keeps it.  Only a comprehension
    written into the call is flagged, not a named sequence or a ``key=``
    search over candidates.
    """
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")
            and len(node.args) == 1 and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))]


def test_nan_dropping_reduction_rule():
    flagged = ["max(abs(x) for x in xs)", "min([f(x) for x in xs])", "float(max(g(a) for a in b))"]
    kept = ["max(reqs)", "min(itertools.permutations(rows), key=cost)", "max(a, b)", "np.max([f(x) for x in xs])"]
    for src in flagged:
        assert len(nan_dropping_reductions(ast.parse(src))) == 1, src
    for src in kept:
        assert not nan_dropping_reductions(ast.parse(src)), src


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_nan_dropping_reduction(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in nan_dropping_reductions(tree)]
    assert not found, f"builtin max/min drops a NaN element (use np.max/np.min): {', '.join(found)}"


# Public names with no reader outside the tests, kept in src on purpose.
REFERENCE_ORACLES = {
    "abc_closed_form": "the closed-form first-order ABC eigenvalues the alpha matrix is checked against",
    "evaluate_velocity": "the direct block sum that evaluate_block is checked against",
    "load_volume": "reads the volume.vol snapshot that `bloch synth` writes",
    "random_real_field": "the random probe fields of the field and operator tests",
}


def attribute_loads(tree: ast.Module) -> set[str]:
    """Attribute names the code loads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names and attribute names the code loads; a string listed in __all__ is not a load."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | attribute_loads(tree))


def uncalled_public_names() -> list[str]:
    """Public module-level functions and classes of the package that no code in
    src/dynamo, scripts/ or perfbench/ loads and README.md does not name."""
    read, defined = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= loaded_names(tree)
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    for path in [*(REPO / "scripts").rglob("*.py"), *(REPO / "perfbench").rglob("*.py")]:
        read |= loaded_names(ast.parse(path.read_text(), filename=str(path)))
    readme = (REPO / "README.md").read_text()
    return [f"{module}.{name}" for module, name in defined
            if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_every_public_name_has_a_caller():
    found = [name for name in uncalled_public_names() if name.split(".")[1] not in REFERENCE_ORACLES]
    assert not found, f"public names that only tests reach (delete them or give them a caller): {', '.join(found)}"


def test_reference_oracles_are_still_uncalled():
    # an oracle that gains a production reader leaves the list
    assert sorted(name.split(".")[1] for name in uncalled_public_names()) == sorted(REFERENCE_ORACLES)


def uncalled_public_members() -> list[str]:
    """Public methods and properties of the package's public classes that no
    attribute load in src/dynamo, scripts/ or perfbench/ reads and no string
    constant in perfbench/ names (its span hooks wrap methods by name).

    A bare name load does not count: ``step`` and ``axis`` are also local
    variables.
    """
    read, defined = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= attribute_loads(tree)
        defined += [(path.stem, cls.name, fn.name) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    for path in (REPO / "scripts").rglob("*.py"):
        read |= attribute_loads(ast.parse(path.read_text(), filename=str(path)))
    for path in (REPO / "perfbench").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= attribute_loads(tree) | {node.value for node in ast.walk(tree)
                                         if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"{module}.{cls}.{name}" for module, cls, name in defined if name not in read]


def test_every_public_member_has_a_caller():
    found = uncalled_public_members()
    assert not found, f"members that only tests reach (delete them or give them a caller): {', '.join(found)}"
