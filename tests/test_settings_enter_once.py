"""Settings enter the program once, at the command line.

The environment is read in one module, config, and the one reader of
TRINOID_TOL_SCALE, config.default_tolerances, is called by one function,
cli._config_from.  Every library function takes its tolerances as an
argument (the unscaled Tolerances() by default), so a library call does
not depend on the environment it runs in.  This walks the syntax tree of
each src/trinoid/*.py file with the standard library's ast module: os.environ
and os.getenv count as reads of the environment, as do their imports from
os, and a call counts when its callee is the name default_tolerances or an
attribute of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"

ENV_READERS = {"config.py"}
TOLERANCE_CALLERS = {("cli.py", "_config_from")}


def _calls_in(tree: ast.AST):
    """(enclosing function name or None, call node) for every call in tree."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield func, child
            yield from walk(child, func)

    yield from walk(tree, None)


def _callee_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def violations(sources: dict) -> list:
    """Breaches of the two rules in sources, a map of file name to text."""
    found = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in ast.walk(tree):
            reads = (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in ("environ", "getenv") for a in node.names)
            )
            if reads and name not in ENV_READERS:
                found.append(f"{name}:{node.lineno} reads the environment")
        for func, call in _calls_in(tree):
            if _callee_name(call) == "default_tolerances" and (name, func) not in TOLERANCE_CALLERS:
                found.append(f"{name}:{call.lineno} calls default_tolerances in {func}")
    return found


def test_guard_catches_planted_violations():
    config = (
        "import os\n"
        "def default_tolerances():\n"
        "    return os.environ.get('TRINOID_TOL_SCALE')\n"
    )
    cli = (
        "from .config import default_tolerances\n"
        "def _config_from(ns):\n"
        "    ns.tol = default_tolerances()\n"
    )
    clean = {"config.py": config, "cli.py": cli}
    assert violations(clean) == []
    planted = {
        "surface.py": (
            "import os\n"
            "from os import getenv\n"
            "from . import config\n"
            "def transport(tol=None):\n"
            "    tol = tol or config.default_tolerances()\n"
            "    return os.getenv('HOME')\n"
        ),
        "cli.py": cli + "def build(tol=None):\n    return tol or default_tolerances()\n",
    }
    assert violations({**clean, **planted}) == [
        "cli.py:5 calls default_tolerances in build",
        "surface.py:2 reads the environment",
        "surface.py:6 reads the environment",
        "surface.py:5 calls default_tolerances in transport",
    ]


def test_settings_enter_only_at_the_command_line():
    sources = {m.name: m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))}
    assert violations(sources) == []
