"""Outside-in tracing of the voa layers.

The tracer never edits voa.  It replaces public functions by wrappers, as
attributes of every voa module that holds them (so calls through
`from .x import f` bindings are seen too) and of the classes whose methods
it counts, and puts the originals back on exit.  Functions called millions
of times (Scalar arithmetic, apply_mode, field_mode) only add to per-name
counters; coarse boundaries also keep real spans with name, start, end,
parent and task.

Self time of a call is its duration minus the time of the traced calls it
makes.  `incl_s` counts the outermost call of a recursive function only.
"""

from __future__ import annotations

import sys
import time

import voa  # noqa: F401  (imports every layer module listed in TRACED)
from voa import fock, scalars

# (layer, function name, keeps spans); the metric name is layer.function
TRACED = [
    ("scalars", "poly_gcd", False),
    ("fock", "apply_mode", False),
    ("fields", "state_field_mode", False),
    ("fields", "field_mode", False),
    ("fields", "translate", False),
    ("ope", "verify_axioms", True),
    ("ope", "singular_part", True),
    ("ope", "locality_witness", True),
    ("ope", "locality_defect", False),
    ("ope", "associativity_defect", True),
    ("ope", "coset_graded", True),
    ("linalg", "kernel_basis", True),
    ("correlators", "heisenberg_npoint", True),
    ("correlators", "consistency_check", True),
    ("correlators", "bootstrap_verify", True),
    ("correlators", "expand", True),
    ("correlators", "matrix_element_coefficient", False),
    ("coords", "huang_check", True),
    ("coords", "primary_differential_check", True),
    ("coords", "decompose", True),
    ("coords", "reconstruct", True),
    ("coords", "R_apply", False),
    ("coords", "R_inverse_apply", False),
    ("coords", "laurent_coefficients", False),
    ("characters", "character", True),
    ("characters", "lattice_theta_character", True),
    ("presets", "get_preset", True),
    ("presets", "boson_fermion_check", True),
]

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__")

# Stored spans beyond this many are only counted, so memory stays bounded.
MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Counters and spans for one traced pass; a context manager."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.rational_calls = 0          # Scalar ops with two plain rationals
        self.kernel_cells = 0            # rows x columns fed to kernel_basis
        self.phase_s = {"translation": 0.0, "locality": 0.0,
                        "associativity": 0.0}
        self.spans: list[tuple] = []     # (name, start, end, parent, task)
        self.spans_dropped = 0
        self.task = -1
        self.algebras: list = []         # ModeAlgebras built in this task
        self._child = [0.0]              # child time of each open call
        self._open_spans = [-1]          # index of each open span
        self._marks = None               # verify_axioms phase marks
        self._undo: list[tuple] = []
        # hooks run on entry to a span, before its clock starts
        self._enter = {"ope.verify_axioms": self._open_phases,
                       "ope.singular_part": self._mark(0),
                       "ope.associativity_defect": self._mark(1),
                       "linalg.kernel_basis": self._count_cells}

    # -- wrappers ---------------------------------------------------------

    def _counter(self, stat: Stat, fn, before=None):
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stat.calls += 1
            stat.depth += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - child.pop()
                child[-1] += dt
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dt
        return wrapper

    def _span(self, name: str, stat: Stat, fn):
        child, open_spans, spans = self._child, self._open_spans, self.spans
        clock = time.perf_counter
        enter = self._enter.get(name)

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            stat.calls += 1
            stat.depth += 1
            child.append(0.0)
            idx = -1
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append(None)
            else:
                self.spans_dropped += 1
            parent = open_spans[-1]
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.self_s += dt - child.pop()
                child[-1] += dt
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dt
                open_spans.pop()
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent, self.task)
                if name == "ope.verify_axioms":
                    self._close_phases(t0, t1)
        return wrapper

    # verify_axioms runs vacuum+translation, then locality (starting at the
    # first singular_part), then associativity (first associativity_defect)
    def _mark(self, slot):
        def enter(_args):
            if self._marks is not None and self._marks[slot] is None:
                self._marks[slot] = time.perf_counter()
        return enter

    def _open_phases(self, _args):
        self._marks = [None, None]

    def _close_phases(self, t0, t1):
        loc, assoc = self._marks
        loc = t1 if loc is None else loc
        assoc = t1 if assoc is None else assoc
        self.phase_s["translation"] += loc - t0
        self.phase_s["locality"] += assoc - loc
        self.phase_s["associativity"] += t1 - assoc
        self._marks = None

    def _count_rational(self, args):
        a, b = args[0], args[1]
        if a.is_rational and (not isinstance(b, scalars.Scalar)
                              or b.is_rational):
            self.rational_calls += 1

    def _count_cells(self, args):
        rows, ncols = args[0], args[1]
        self.kernel_cells += len(rows) * ncols

    def _register_algebra(self, init):
        algebras = self.algebras

        def wrapper(alg, *args, **kwargs):
            init(alg, *args, **kwargs)
            algebras.append(alg)
        return wrapper

    # -- install / remove -------------------------------------------------

    def __enter__(self):
        replace = {}
        for layer, fname, spans in TRACED:
            module = sys.modules[f"voa.{layer}"]
            fn = getattr(module, fname)
            name = f"{layer}.{fname}"
            stat = self.stats.setdefault(name, Stat())
            replace[id(fn)] = (self._span(name, stat, fn) if spans else
                               self._counter(stat, fn))
        # every module binding of a traced function, including re-exports
        for modname, module in list(sys.modules.items()):
            if modname != "voa" and not modname.startswith("voa."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        arith = self.stats.setdefault("scalars.arith", Stat())
        for dunder in ARITH:
            fn = scalars.Scalar.__dict__[dunder]
            self._patch(scalars.Scalar, dunder,
                        self._counter(arith, fn, self._count_rational))
        self._patch(fock.ModeAlgebra, "__init__",
                    self._register_algebra(fock.ModeAlgebra.__init__))
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- per-task memo sampling ------------------------------------------

    def start_task(self, index: int):
        self.task = index
        self.algebras.clear()

    def memo_sizes(self) -> dict[str, int]:
        """Entries of `_apply_memo` of this task's algebras, by key kind.

        Untagged keys (g, n, mono) come from apply_mode, "fm" keys from
        field_mode, "um" keys from the ope associativity check; the rest
        (translate's "T" keys) are "other".
        """
        sizes = {"untagged": 0, "fm": 0, "um": 0, "other": 0}
        for alg in self.algebras:
            for key in alg._apply_memo:
                tag = key[0]
                if isinstance(tag, int):
                    sizes["untagged"] += 1
                elif tag in ("fm", "um"):
                    sizes[tag] += 1
                else:
                    sizes["other"] += 1
        return sizes

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over the traced functions of one layer."""
        return sum(stat.self_s for name, stat in self.stats.items()
                   if name.startswith(layer + "."))

    def span_records(self) -> list[list]:
        return [list(s) for s in self.spans if s is not None]
