"""Source hygiene: no module imports a name it never uses.

A pure-``ast`` scan of ``src/vorokit/*.py`` and ``tests/*.py``.  A name
counts as used when it is read anywhere in the module or listed in a
literal ``__all__``; ``from __future__`` imports are compiler directives and
never count as unused.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "vorokit").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree):
    # bound name → line, for every import statement in the module
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def test_scanner_flags_unused_and_honours_all_and_future():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(sys.argv, np)\n"
    )
    assert unused_imports(src) == [("os", 2), ("pi", 4)]


def test_no_unused_imports():
    assert FILES
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in FILES for name, line in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
