"""Every name a package module imports is used in that module.

Deleting code tends to leave its imports behind; this walks the syntax
tree of each module (standard library `ast`, no linter needed) and lists
the imported names that no expression or annotation mentions.
`__init__.py` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ehrhart_lab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from fractions import Fraction\n"
        "from .exact import RatPoly as Poly, IntMatrix\n"
        "def f(x: Poly) -> int:\n"
        "    return math.gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["Fraction", "IntMatrix", "os"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text()))
    }
    assert unused == {}
