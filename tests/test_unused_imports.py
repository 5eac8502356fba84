"""Every name a package module imports is used in that module.

No linter ships with the test dependencies, so this walks the syntax tree
of each src/trinoid/*.py file with the standard library's ast module.  An
imported name counts as used when it appears as a Name node anywhere in
the module, attribute chains included (np.linalg reads np).  `from
__future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names of a module that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_catches_an_unused_import():
    src = "from os import path, sep\nimport numpy as np\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == ["path (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
