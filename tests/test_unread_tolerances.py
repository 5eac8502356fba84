"""Every Tolerances field is read somewhere in the package.

A threshold whose last reader is deleted would otherwise stay in the record,
be scaled by TRINOID_TOL_SCALE and be documented, while gating nothing.
This walks the syntax tree of each src/trinoid/*.py file with the standard
library's ast module: the fields are the annotated names in the body of the
Tolerances class, and a field counts as read when some module loads it as
an attribute (tol.det, cfg.tol.det, ...).  Generic access through getattr,
as TRINOID_TOL_SCALE is applied, does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"


def unread_fields(sources: list[str]) -> list[str]:
    """Fields of the Tolerances class in sources that no source reads."""
    declared = []
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
                declared += [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in declared if name not in read]


def test_guard_catches_an_unread_field():
    config = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Tolerances:\n"
        "    det: float = 1e-9\n"
        "    planted: float = 1e-7\n"
    )
    reader = "def gate(tol, x):\n    return abs(x) < tol.det\n"
    writer = "def plant(tol):\n    tol.planted = 0.0\n    return getattr(tol, 'planted')\n"
    assert unread_fields([config, reader, writer]) == ["planted"]
    assert unread_fields([config, reader, writer, "y = cfg.tol.planted\n"]) == []


def test_every_tolerance_field_is_read():
    sources = [m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources) == []
