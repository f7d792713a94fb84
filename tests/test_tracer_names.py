"""The voa names that the benchmark tracer patches must exist.

`perfbench/tracer.py` wraps the functions of its `TRACED` table by name and
reads `ModeAlgebra._apply_memo`.  Its own smoke test is not collected with
these tests, so deleting or renaming one of those names would break only a
traced benchmark run.  The table is read with `ast`, without importing the
tracer.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from voa import get_preset, ope

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER.name}")


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [f"voa.{layer}.{name}" for layer, name, _ in traced
               if not callable(getattr(importlib.import_module(f"voa.{layer}"),
                                       name, None))]
    assert missing == []


def test_apply_memo_is_a_dict():
    assert type(get_preset("heisenberg").algebra._apply_memo) is dict


def test_axiom_checks_call_the_traced_ope_functions(monkeypatch):
    # the tracer counts these four and splits verify_axioms into phases at
    # the first singular_part and associativity_defect; the checks must call
    # them through the ope module's globals, or every traced count reads 0
    names = ("singular_part", "locality_witness", "locality_defect",
             "associativity_defect")
    counts = Counter()
    for name in names:
        def counted(*args, _fn=getattr(ope, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ope, name, counted)
    assert ope.verify_axioms(get_preset("heisenberg").algebra, 2).passed
    assert {name: counts[name] > 0 for name in names} == dict.fromkeys(
        names, True)
