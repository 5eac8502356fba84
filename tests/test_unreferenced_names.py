"""Every module-level function and class of the package, every method
and property of its classes, and every field of its dataclasses, is
referenced in it.

A helper whose last caller is deleted would otherwise stay behind, tested
and documented, while no program path reads it; a dataclass field that
nothing reads is computed and stored for no one.  This walks the syntax
tree of each src/trinoid/*.py file with the standard library's ast module:
the definitions are the functions and classes at module level, the
functions in the body of each such class, dunders excepted, which the
language calls, and the annotated fields of each class decorated with
dataclass.  A name counts as referenced when some module loads it as a
Name or reads it as an Attribute (np.linalg.norm references norm); a field
is read only through its object, so it counts when some module reads it
as an Attribute.  Methods and fields match by their bare name, whatever
the class, and are reported as Class.name.  The names that only tests or
the benchmark use are listed in KEPT, each with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"

KEPT = {
    "mat2": "test constructor: a 2x2 complex matrix from its entries",
    "su2_defect": "test oracle: distance of a conjugated generator from SU(2)",
    "integrate_matrix_ode": "benchmark probe and test oracle: matrix transport along a path",
    "hypergeometric_monodromy": "test oracle: the hypergeometric equation's loop monodromy",
    "apparent_point_check": "test oracle: the apparent points carry no monodromy",
    "profile_curve": "test oracle: plane sections that show the surface's symmetries",
    "GaussMap.deriv": "test oracle: G' vanishes at the umbilics",
    "HopfDifferential.deriv": "test oracle: Q' against finite differences",
    "H3Point.minkowski": "test oracle: the hyperboloid point of a projection",
    "MonodromyRep.eigenvalue_defect": "test oracle: eigenvalues against the expected traces",
    "ProfileCurve.points3d": "test oracle: the longest chain of a plane section",
    "ProfileCurve.t": "test oracle: the arclength parameter of that chain",
    "ProfileCurve.closed": "test oracle: whether that chain is a cycle",
    "ProfileCurve.chains": "test oracle: every chain of a plane section",
    "WeierstrassData.g": "test oracle: the recovered Gauss map in the induced metric",
    "WeierstrassData.gauss_ratio": "test oracle: the column ratio against the hyperbolic Gauss map",
    "WeierstrassData.null_defect": "benchmark gate and test oracle: the rank-one shape defect",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        deco = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
            return True
    return False


def unreferenced(sources: list[str]) -> list[str]:
    """Module-level functions and classes, and methods and dataclass fields
    of those classes as Class.name, that no source references."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}  # reported name -> the name a reference must use
    fields = {}  # reported name -> the attribute a read must use
    referenced, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not item.name.startswith("__"):
                        defined[f"{node.name}.{item.name}"] = item.name
                    elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and _is_dataclass(node)):
                        fields[f"{node.name}.{item.target.id}"] = item.target.id
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return sorted(
        [name for name, ref in defined.items() if ref not in referenced]
        + [name for name, attr in fields.items() if attr not in read]
    )


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
    # dataclass fields count only when read through an object: a
    # parameter or a keyword of the same name does not read them
    record = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass Rec:\n    kept: int\n    dropped: int\n"
        "class Plain:\n    note: str\n"
        "def make(dropped):\n    return Rec(kept=1, dropped=dropped)\n"
    )
    reader = "from record import Rec, make\nprint(make(2).kept)\n"
    assert unreferenced([record]) == ["Plain", "Rec.dropped", "Rec.kept", "make"]
    # the annotation of a class that is not a dataclass is no field
    assert unreferenced([record, reader]) == ["Plain", "Rec.dropped"]


def test_every_unreferenced_name_is_kept_on_purpose():
    sources = [m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))]
    assert unreferenced(sources) == sorted(KEPT)
