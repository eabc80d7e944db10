"""Every name a package module imports is used in that module, every
module-level private function or class is used in the package, and every
public function, class or method is used somewhere in the repository.

Deleting code tends to leave its imports and helpers behind; this walks
the syntax tree of each module (standard library `ast`, no linter
needed) and lists the imported names that no expression or annotation
mentions, then the `_private` top-level definitions that nothing outside
their own body refers to, then the public definitions that no code in
`src/`, `tests/` or `bench/` refers to outside their own body.
`__init__.py` is skipped for imports: they are the public re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ehrhart_lab"
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def public_defs(source: str) -> list[str]:
    """Public top-level functions and classes, and Class.method for the
    public methods of the public classes."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")]
    return out


def references(source: str) -> set[str]:
    """Names and attributes the code mentions outside the body of the
    definition of that name.  A string constant that is a dotted name
    mentions each of its parts: `bench/spans.py` names the functions it
    wraps as strings such as "RatPoly.shift"."""
    used = set()
    for node in ast.parse(source).body:
        own = getattr(node, "name", None)
        if isinstance(node, ast.ClassDef):
            parts = [(p, own) for p in node.bases + node.decorator_list]
            parts += [(p, getattr(p, "name", None)) for p in node.body]
        else:
            parts = [(node, own)]
        for part, part_own in parts:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    if DOTTED_NAME.fullmatch(sub.value):
                        used.update(sub.value.split("."))
                    continue
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name not in (own, part_own):
                    used.add(name)
    return used


def unreferenced_public_defs(package: dict[str, str], code: list[str]) -> list[str]:
    """module:name of each public definition of the package sources that
    none of the code sources refers to."""
    used = set().union(*map(references, code))
    return sorted(f"{module}:{name}" for module, source in package.items()
                  for name in public_defs(source)
                  if name.split(".")[-1] not in used)


def test_guard_sees_unreferenced_public_defs():
    package = {
        "roots.py": (
            "class RootSet:\n"
            "    def csv_rows(self):\n"
            "        return [r.csv_rows for r in self.roots]\n"
            "    def to_json(self):\n"
            "        return RootSet()\n"
            "    def shift(self):\n"
            "        return self.shift()\n"
            "def find_roots(p):\n"
            "    return find_roots(p)\n"
            "def hypothesis_report(p):\n"
            "    return RootSet().to_json()\n"
        ),
    }
    code = list(package.values()) + [
        "from roots import hypothesis_report\n"
        "hypothesis_report(1)\n"
        "WRAPPED = [(\"roots\", \"RootSet.shift\")]\n"
        "NOTE = \"RootSet.csv_rows is gone\"\n"
    ]
    assert unreferenced_public_defs(package, code) == [
        "roots.py:RootSet.csv_rows", "roots.py:find_roots"]


def test_package_public_defs_are_referenced():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    code = [p.read_text() for part in ("src", "tests", "bench")
            for p in sorted((ROOT / part).rglob("*.py"))]
    assert unreferenced_public_defs(package, code) == []
