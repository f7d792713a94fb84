"""Every function, method and class that `voa` defines is named somewhere.

A definition in `src/voa` that nothing names, apart from its own body, is
code that nothing uses.  The sources of `src/`, `tests/` and `perfbench/`
are read with `ast` and not imported.  A name counts where it occurs as a
`Name` node, as the attribute of an `Attribute` node, as an imported name,
or as a string constant that is exactly the name (the benchmark tracer and
`__all__` name functions by string).  Occurrences inside the definition
itself, like a recursive call, do not count.  Dunder names are left out:
Python calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "voa"
CORPUS = sorted(p for d in ("src", "tests", "perfbench")
                for p in (ROOT / d).rglob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree) -> Counter:
    """How often each name occurs in the tree, definitions excluded."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def _unreferenced(defining: dict, others: Counter) -> list:
    """(file, line, name) of each non-dunder definition in the `defining`
    sources ({label: source}) named nowhere outside its own body, neither
    in them nor in the `others` name counts."""
    trees = {label: ast.parse(text) for label, text in defining.items()}
    counts = {label: _names(tree) for label, tree in trees.items()}
    total = sum(counts.values(), Counter(others))
    found = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - _names(node)[name] <= 0:
                found.append((label, node.lineno, name))
    return sorted(found)


def test_corpus_is_found():
    labels = {p.relative_to(ROOT).as_posix() for p in CORPUS}
    assert {"src/voa/fock.py", "tests/test_fock.py",
            "perfbench/tracer.py"} <= labels


def test_every_definition_is_named_somewhere():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = sum((_names(ast.parse(p.read_text())) for p in CORPUS
                  if p.parent != SRC), Counter())
    assert _unreferenced(defining, others) == []


def test_unreferenced_definition_is_reported():
    # negative control: a recursive function and a method that only their
    # own bodies name are reported; names reached by call, attribute,
    # import or exact string are not, and dunders are left out
    source = ("def fact(n):\n"
              "    return 1 if n < 2 else n * fact(n - 1)\n"
              "def used():\n"
              "    return 1\n"
              "class Box:\n"
              "    def __repr__(self):\n"
              "        return 'Box'\n"
              "    def size(self):\n"
              "        return self.size\n"
              "    def width(self):\n"
              "        return 0\n"
              "def traced():\n"
              "    pass\n"
              "def imported():\n"
              "    pass\n")
    user = ("from m import imported\n"
            "TRACED = [('m', 'traced')]\n"
            "print(used(), Box().width())\n")
    assert _unreferenced({"m.py": source}, _names(ast.parse(user))) == [
        ("m.py", 1, "fact"), ("m.py", 8, "size")]
