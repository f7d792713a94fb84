"""Every name that a module of `voa` imports is used in that module.

`__init__` re-exports what it imports, so it is left out.  The modules are
read with `ast` and not imported: a name counts as used when it occurs as
a `Name` node, which covers calls, annotations and the head of an
attribute chain (`fractions.Fraction` uses `fractions`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "voa"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """(line, name) of each imported name that the source never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_are_found():
    assert {"fields.py", "coords.py", "ope.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    # negative control: each kind of import statement, left unused
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import math as m\n"
              "from fractions import Fraction\n"
              "from .fock import State, basis_monomials as bm\n"
              "def f(x: State) -> int:\n"
              "    return m.floor(x)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "Fraction"), (5, "bm")]
