"""Every name a module imports is read somewhere in that module.

No linter is configured for this repository, so this scan stands in for
one: it parses each module under src/ and tests/ with the standard
library's ast and lists the names an import binds that no expression in
the module reads.  A name listed in the module's __all__ counts as read,
and `from __future__` imports are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of a module that nothing in it reads."""
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "js = None\n"
        "print(os.path.sep, gcd(4, 6))\n"
    )
    assert unused_imports(source) == ["js", "lcm"]


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = {}
    for path in MODULES:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused, f"imported but never read: {unused}"
