"""Every name a `klora` module imports is one it uses."""

import ast
from pathlib import Path

import pytest

import klora

PACKAGE = Path(klora.__file__).parent
# perfbench's span recorder wraps these by name in `experiments`, which no longer calls them
KEPT_FOR_TRACING = {"experiments.py": {"reduce_mean", "square", "sub"}}


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# the package's `__init__` imports are its public names, used by its importers
@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == KEPT_FOR_TRACING.get(name, set())


def _module_private_names(tree: ast.Module) -> set:
    """The `_name`s a module defines at its top level: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _referenced_names(tree: ast.Module) -> set:
    """Every name a module reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_private_module_name_is_referenced():
    """A module-level `_name` that nothing in the package reads is dead code."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    dead = {f"{name}.{private}" for name, tree in trees.items()
            for private in _module_private_names(tree) - referenced}
    assert dead == set()
