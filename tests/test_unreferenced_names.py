"""Every module-level function and class of the package is referenced in it.

A helper whose last caller is deleted would otherwise stay behind, tested
and documented, while no program path reads it.  This walks the syntax tree
of each src/trinoid/*.py file with the standard library's ast module: the
definitions are the functions and classes at module level, and a name
counts as referenced when some module loads it as a Name or reads it as an
Attribute (np.linalg.norm references norm).  The names that only tests or
the benchmark use are listed in KEPT, each with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"

KEPT = {
    "chebyshev_transfer": "test constructor: the batch-of-one collocation transfer",
    "mat2": "test constructor: a 2x2 complex matrix from its entries",
    "su2_defect": "test oracle: distance of a conjugated generator from SU(2)",
    "integrate_matrix_ode": "benchmark probe and test oracle: matrix transport along a path",
    "integrate_scalar_ode": "test oracle: scalar transport, checked against Abel's identity",
    "hypergeometric_monodromy": "test oracle: the hypergeometric equation's loop monodromy",
    "apparent_point_check": "test oracle: the apparent points carry no monodromy",
    "profile_curve": "test oracle: plane sections that show the surface's symmetries",
}


def unreferenced(sources: list[str]) -> list[str]:
    """Module-level functions and classes that no source references."""
    defined = set()
    referenced = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(name for name in defined if name not in referenced)


def test_guard_catches_an_unreferenced_helper():
    lib = "def used():\n    return 1\n\ndef orphan():\n    return used()\n\nclass Box:\n    pass\n"
    caller = "from lib import Box\nimport lib\nx = lib.used() + 1\ny = Box\n"
    assert unreferenced([lib]) == ["Box", "orphan"]
    assert unreferenced([lib, caller]) == ["orphan"]


def test_every_unreferenced_name_is_kept_on_purpose():
    sources = [m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))]
    assert unreferenced(sources) == sorted(KEPT)
