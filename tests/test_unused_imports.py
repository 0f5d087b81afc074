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
