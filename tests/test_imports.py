"""Every name a package module imports is used in that module, and
every module-level private function or class is used in the package.

Deleting code tends to leave its imports and helpers behind; this walks
the syntax tree of each module (standard library `ast`, no linter
needed) and lists the imported names that no expression or annotation
mentions, then the `_private` top-level definitions that nothing outside
their own body refers to.  `__init__.py` is skipped for imports: they are
the public re-exports.
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


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """module:name of each top-level `_private` def or class in sources
    that no code of sources refers to outside its own definition."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((module, own))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(f"{module}:{name}" for module, name in defined if name not in used)


def test_guard_sees_unreferenced_private_defs():
    sources = {
        "exact.py": (
            "def _sign(x):\n"
            "    return (x > 0) - (x < 0)\n"
            "def _remainder_chain(f, g):\n"
            "    return [f] + _remainder_chain(g, f)\n"
            "class _Cache:\n"
            "    pass\n"
            "def _used_elsewhere():\n"
            "    return 1\n"
        ),
        "roots.py": (
            "from . import exact\n"
            "def verdict(x):\n"
            "    return _sign(x) + exact._used_elsewhere()\n"
        ),
    }
    assert unreferenced_private_defs(sources) == [
        "exact.py:_Cache", "exact.py:_remainder_chain"]


def test_package_private_defs_are_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []
