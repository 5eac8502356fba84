"""Each coefficient formula of the transport engines is written once.

The coefficient functions of trinoid._kernel, one per mode, read the
parameter vector once and return the factors of C as a function of z
(its shape's entries function makes C of them).  Both engines,
Dormand-Prince (integrate_path) and Chebyshev collocation
(chebyshev_transfers), take them from the one table _COEFF, so the loops
and the grid edges integrate the same equations.  This walks the syntax
tree of each src/trinoid/*.py file with the standard library's ast module
and checks that

- every _coeff_* function of _kernel is a value of _COEFF;
- no code names a _coeff_* function outside the _COEFF table;
- each engine subscripts _COEFF;
- in _kernel the parameter vector, by its name params, is indexed only
  inside the _coeff_* functions: a copy of a formula must read the
  parameters, so none can grow back in an engine.

The Dormand-Prince loop is compiled once per coefficient shape from one
tableau, written as source text that no syntax tree sees, so the text of
src/trinoid/*.py is searched for the tableau's fractions: each occurs
once, and a second copy of the stage arithmetic fails.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trinoid"

KERNEL = "_kernel.py"
ENGINES = ("integrate_path", "chebyshev_transfers")


def _is_table(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_COEFF" for t in node.targets
    )


def _scoped(tree: ast.AST):
    """(enclosing scopes, node) for every node in tree; a scope is the name of
    an enclosing function, or _COEFF inside the table's assignment."""
    def walk(node, scopes):
        for child in ast.iter_child_nodes(node):
            yield scopes, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, scopes + (child.name,))
            elif _is_table(child):
                yield from walk(child, scopes + ("_COEFF",))
            else:
                yield from walk(child, scopes)

    yield from walk(tree, ())


def violations(sources: dict) -> list:
    """Breaches of the rules in sources, a map of file name to text."""
    found = []
    kernel = ast.parse(sources[KERNEL])
    defined = {
        n.name for n in kernel.body
        if isinstance(n, ast.FunctionDef) and n.name.startswith("_coeff_")
    }
    listed = {
        v.id for n in kernel.body if _is_table(n) and isinstance(n.value, ast.Dict)
        for v in n.value.values if isinstance(v, ast.Name)
    }
    found += [f"{KERNEL}: {name} is not in _COEFF" for name in sorted(defined - listed)]
    for name, source in sorted(sources.items()):
        engines_on_table = set()
        for scopes, node in _scoped(ast.parse(source)):
            if isinstance(node, ast.Name):
                named = node.id
            elif isinstance(node, ast.alias):
                named = node.name
            else:
                named = None
            if named and named.startswith("_coeff_") and "_COEFF" not in scopes:
                found.append(f"{name}:{node.lineno} names {named} outside _COEFF")
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
                if node.value.id == "_COEFF":
                    engines_on_table.update(scopes)
                in_coeff = any(s.startswith("_coeff_") for s in scopes)
                if name == KERNEL and node.value.id == "params" and not in_coeff:
                    found.append(f"{name}:{node.lineno} reads params outside the coefficient functions")
        if name == KERNEL:
            found += [
                f"{KERNEL}: {engine} does not take its coefficients from _COEFF"
                for engine in ENGINES if engine not in engines_on_table
            ]
    return found


# the Dormand-Prince 5(4) coefficients written as fractions, numerator and
# denominator: the nodes 8/9, the stage weights, the fifth-order weights and
# the error weights
TABLEAU = (
    (8, 9), (44, 45), (56, 15), (32, 9), (19372, 6561), (25360, 2187), (64448, 6561), (212, 729),
    (9017, 3168), (355, 33), (46732, 5247), (49, 176), (5103, 18656),
    (35, 384), (500, 1113), (125, 192), (2187, 6784), (11, 84),
    (71, 57600), (71, 16695), (71, 1920), (17253, 339200), (22, 525), (1, 40),
)


def tableau_violations(sources: dict) -> list:
    """Tableau fractions that do not occur exactly once in sources, a map
    of file name to text; a fraction matches as p / q, p.0 / q.0 and the
    like, whatever the spacing."""
    text = "\n".join(sources.values())
    found = []
    for num, den in TABLEAU:
        pattern = rf"(?<![\w.]){num}(?:\.0*)?\s*/\s*{den}(?:\.0*)?(?![\w.])"
        count = len(re.findall(pattern, text))
        if count != 1:
            found.append(f"{num}.0 / {den}.0 occurs {count} times")
    return found


def test_guard_catches_planted_violations():
    kernel = (
        "def _coeff_a(params):\n"
        "    c = params[0]\n"
        "    def coeff(z):\n"
        "        return c * z\n"
        "    return coeff\n"
        "_COEFF = {0: _coeff_a}\n"
        "def integrate_path(rows, mode, params, u0, rtol):\n"
        "    return _COEFF[mode](params)\n"
        "def chebyshev_transfers(mode, params, a, b, rtol):\n"
        "    return _COEFF[mode](params)\n"
    )
    assert violations({KERNEL: kernel}) == []
    planted = {
        KERNEL: (
            "def _coeff_a(params):\n"
            "    return lambda z: params[0] * z\n"
            "def _coeff_b(params):\n"
            "    return lambda z: params[1] * z\n"
            "_COEFF = {0: _coeff_a}\n"
            "def integrate_path(rows, mode, params, u0, rtol):\n"
            "    c = params[0]\n"
            "    return _coeff_a(params), c\n"
            "def chebyshev_transfers(mode, params, a, b, rtol):\n"
            "    return None\n"
        ),
        "surface.py": "from ._kernel import _coeff_a\n",
    }
    assert violations(planted) == [
        "_kernel.py: _coeff_b is not in _COEFF",
        "_kernel.py:7 reads params outside the coefficient functions",
        "_kernel.py:8 names _coeff_a outside _COEFF",
        "_kernel.py: integrate_path does not take its coefficients from _COEFF",
        "_kernel.py: chebyshev_transfers does not take its coefficients from _COEFF",
        "surface.py:1 names _coeff_a outside _COEFF",
    ]


def test_each_coefficient_formula_is_written_once():
    sources = {m.name: m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))}
    assert violations(sources) == []


def _one_tableau():
    return " ".join(f"({num}.0 / {den}.0)" for num, den in TABLEAU)


def test_tableau_guard_catches_planted_violations():
    assert tableau_violations({KERNEL: _one_tableau()}) == []
    # a second copy of the last stage's arithmetic, and a weight written
    # another way
    planted = {
        KERNEL: _one_tableau().replace("(71.0 / 1920.0)", "0.036979166666666667"),
        "surface.py": "v = u + hs * ((9017/3168) * k1 - (355.0/33.0) * k2 + (5103. / 18656.) * k5)\n",
    }
    assert tableau_violations(planted) == [
        "9017.0 / 3168.0 occurs 2 times",
        "355.0 / 33.0 occurs 2 times",
        "5103.0 / 18656.0 occurs 2 times",
        "71.0 / 1920.0 occurs 0 times",
    ]


def test_each_tableau_coefficient_is_written_once():
    sources = {m.name: m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))}
    assert tableau_violations(sources) == []
