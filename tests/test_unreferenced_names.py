"""Every module-level function and class of the package, and every method
and property of its classes, is referenced in it.

A helper whose last caller is deleted would otherwise stay behind, tested
and documented, while no program path reads it.  This walks the syntax tree
of each src/trinoid/*.py file with the standard library's ast module: the
definitions are the functions and classes at module level and the
functions in the body of each such class, dunders excepted, which the
language calls.  A name counts as referenced when some module loads it as
a Name or reads it as an Attribute (np.linalg.norm references norm); a
method matches by its bare name, whatever the class, and is reported as
Class.method.  The names that only tests or the benchmark use are listed
in KEPT, each with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"

KEPT = {
    "chebyshev_transfer": "test constructor: the batch-of-one collocation transfer",
    "mat2": "test constructor: a 2x2 complex matrix from its entries",
    "su2_defect": "test oracle: distance of a conjugated generator from SU(2)",
    "integrate_matrix_ode": "benchmark probe and test oracle: matrix transport along a path",
    "hypergeometric_monodromy": "test oracle: the hypergeometric equation's loop monodromy",
    "apparent_point_check": "test oracle: the apparent points carry no monodromy",
    "profile_curve": "test oracle: plane sections that show the surface's symmetries",
    "GaussMap.deriv": "test oracle: G' vanishes at the umbilics",
    "HopfDifferential.deriv": "test oracle: Q' against finite differences",
}


def unreferenced(sources: list[str]) -> list[str]:
    """Module-level functions and classes, and methods of those classes as
    Class.method, that no source references."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}  # reported name -> the name a reference must use
    referenced = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("__"):
                        defined[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(name for name, ref in defined.items() if ref not in referenced)


def test_guard_catches_an_unreferenced_helper():
    lib = "def used():\n    return 1\n\ndef orphan():\n    return used()\n\nclass Box:\n    pass\n"
    caller = "from lib import Box\nimport lib\nx = lib.used() + 1\ny = Box\n"
    assert unreferenced([lib]) == ["Box", "orphan"]
    assert unreferenced([lib, caller]) == ["orphan"]
    # methods and properties of a class, dunders skipped, match by name
    shape = (
        "class Shape:\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    def area(self):\n        return self.n\n"
        "    @property\n    def size(self):\n        return self.area()\n"
        "    def orphan(self):\n        return 0\n"
    )
    user = "from shape import Shape\nprint(Shape().size)\n"
    assert unreferenced([shape]) == ["Shape", "Shape.orphan", "Shape.size"]
    assert unreferenced([shape, user]) == ["Shape.orphan"]


def test_every_unreferenced_name_is_kept_on_purpose():
    sources = [m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))]
    assert unreferenced(sources) == sorted(KEPT)
