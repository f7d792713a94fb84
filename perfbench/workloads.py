"""The three workloads: fixed task lists over the public voa API.

Every task builds its own inputs (presets, states, regions, coordinate
changes) and then asks voa for one verdict, so no cache carries over from
one task to the next, as for a fresh command-line run.  Each task carries
the answer it must give, taken from `oracles` or from the mathematics
(every preset is a vertex algebra), never from voa.

The seed only changes choices that leave the amount of work unchanged: the
order of tasks in a pass and the rational coefficients of the extra
decompose/reconstruct round-trips in `symbolic`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable

import voa
from voa.correlators import VACUUM_PHI, zvar

import oracles


@dataclass(frozen=True)
class Task:
    name: str
    build: Callable[[], Any]     # inputs: presets, states, regions, changes
    solve: Callable[[Any], Any]  # one call into voa, returning the answer
    expect: Any                  # the known answer


# -- verify ---------------------------------------------------------------

def _verify(name, D, **preset_args):
    return Task(f"verify_axioms {name} D={D}",
                lambda: voa.get_preset(name, **preset_args).algebra,
                lambda alg: voa.verify_axioms(alg, D).passed,
                True)


def _corrupted_heisenberg():
    """Heisenberg with [b_m, b_n] = 1 instead of m: not a vertex algebra."""
    return voa.ModeAlgebra(
        "heisenberg-corrupted", [voa.GeneratorSpec("b", Fraction(1))],
        {(0, 0): voa.BracketRule((), voa.CentralTerm(voa.Scalar.one(),
                                                     voa.Poly.const(1)))})


def _fails_with_witness(alg, D):
    report = voa.verify_axioms(alg, D)
    return report.passed, any(c.witness for c in report.checks
                              if not c.passed)


def verify_tasks(rng, smoke):
    plan = [("heisenberg", 4), ("commutative", 4), ("affine:sl2", 3),
            ("fermion", 3), ("lattice:1", 3), ("lattice:2", 3),
            ("lattice:3", 3), ("affine:sl3", 2), ("weyl:1", 2)]
    if smoke:
        plan = [(name, min(D, 1)) for name, D in plan]
    tasks = [_verify(name, D) for name, D in plan]
    tasks.append(Task("negative control: corrupted heisenberg D=2",
                      _corrupted_heisenberg,
                      lambda alg: _fails_with_witness(alg, 2),
                      (False, True)))
    return tasks


# -- symbolic -------------------------------------------------------------

def _quadratic():
    return voa.CoordChange((voa.Scalar.one(), voa.Scalar.param("eps")))


def _scaling():
    return voa.CoordChange((voa.Scalar.param("a"),))


def _coord_check(label, check, preset, state, change, window, D,
                 first_order_in=None, **preset_args):
    """A huang/primary check on one state of a preset under one change."""
    def build():
        inst = voa.get_preset(preset, **preset_args)
        return inst, state(inst), change()

    def solve(inputs):
        inst, A, rho = inputs
        return check(inst, A, rho, window=window, D=D,
                     first_order_in=first_order_in).passed

    return Task(f"{label} D={D}", build, solve, True)


def _b1(inst):
    return inst.state([("b", -1)])


def _currents_coset(label, d, expect, **preset_args):
    def build():
        inst = voa.get_preset("affine:sl2", **preset_args)
        return inst.algebra, [s for _, s in inst.generator_states()]

    return Task(f"{label} d={d}", build,
                lambda inputs: len(voa.coset_graded(*inputs, d)), expect)


def _round_trips(rng):
    """decompose/reconstruct of seeded changes with M <= 6: the identity."""
    coeffs = []
    for M in range(1, 7):
        for _ in range(4):
            cs = [Fraction(rng.randint(1, 4))]
            cs += [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(M - 1)]
            coeffs.append(tuple(cs))

    def solve(rhos):
        return [tuple(c.as_fraction() for c in
                      voa.reconstruct(voa.decompose(rho)).coeffs)
                for rho in rhos]

    return Task("decompose/reconstruct round-trips M<=6",
                lambda: [voa.CoordChange(cs) for cs in coeffs], solve, coeffs)


def symbolic_tasks(rng, smoke):
    D, crit_d = (0, 2) if smoke else (2, 4)
    sl2_e = lambda inst: inst.gen_state("e")  # noqa: E731
    omega = lambda inst: inst.conformal  # noqa: E731
    tasks = [
        _coord_check("primary_differential_check affine:sl2 e (1, eps)",
                     voa.primary_differential_check, "affine:sl2", sl2_e,
                     _quadratic, 2, D, "eps"),
        _coord_check("huang_check heisenberg b(-1) (1, eps)",
                     voa.huang_check, "heisenberg", _b1, _quadratic, 2, D,
                     "eps", lam=0),
        _coord_check("huang_check heisenberg b(-1) (a,)",
                     voa.huang_check, "heisenberg", _b1, _scaling, 2, 2 * D,
                     lam=0),
        _coord_check("huang_check heisenberg omega (a,)",
                     voa.huang_check, "heisenberg", omega, _scaling, 2, 2 * D,
                     lam=0),
        _coord_check("primary_differential_check heisenberg b(-1) (1, eps)",
                     voa.primary_differential_check, "heisenberg", _b1,
                     _quadratic, 2, D, "eps", lam=0),
        # generic level: the center of V_k(sl2) is trivial in degree > 0
        _currents_coset("coset_graded affine:sl2 generic k", crit_d, 0),
        # critical level: Feigin-Frenkel, the center is freely generated by
        # Segal-Sugawara vectors of degrees 2, 3, 4, ...
        _currents_coset("coset_graded affine:sl2 k=-2", crit_d,
                        oracles.partition_counts(crit_d, 2)[crit_d],
                        level=-2),
        _verify("virasoro", 3 if smoke else 6),
        _verify("heisenberg", 2 if smoke else 5),
        _round_trips(rng),
    ]
    return tasks


# -- correlate ------------------------------------------------------------

def _consistency(n, order):
    def build():
        inst = voa.get_preset("heisenberg", lam=0)
        regions = [voa.ExpansionRegion(tuple(zvar(i) for i in perm))
                   for perm in permutations(range(1, n + 1))]
        return inst.algebra, [_b1(inst)] * n, regions

    def solve(inputs):
        alg, states, regions = inputs
        return voa.consistency_check(alg, states, VACUUM_PHI, regions,
                                     order).passed

    return Task(f"consistency_check heisenberg n={n} order={order}",
                build, solve, True)


def correlator_value(f, points) -> Fraction:
    """Value of a RationalCorrelator at z_i = points[i-1], term by term."""
    total = Fraction(0)
    for t in f.terms:
        num = Fraction(0)
        for mono, c in t.num.terms.items():
            for var, e in mono:
                c *= points[int(var[1:]) - 1] ** e
            num += c
        value = t.coeff * num
        for i, j, mult in t.poles:
            value /= (points[i - 1] - points[j - 1]) ** mult
        for i, power in t.zpows:
            value /= points[i - 1] ** power
        total += value
    return total


def _npoint(n):
    points = [pts[:n] for pts in oracles.EVAL_POINTS]
    expect = [oracles.pairing_sum(pts) for pts in points]

    def solve(_):
        f = voa.heisenberg_npoint(VACUUM_PHI, n)
        return [correlator_value(f, pts) for pts in points]

    return Task(f"heisenberg_npoint n={n}", lambda: None, solve, expect)


def _characters(cutoff):
    """Heisenberg, Virasoro at c=1 and the lattice theta series N=1..3."""
    def build():
        return (voa.get_preset("heisenberg", lam=0), voa.get_preset("virasoro"),
                voa.ParamPoint(c="1"))

    def solve(inputs):
        heis, vir, c1 = inputs
        h = voa.character(heis, cutoff=cutoff)
        v = voa.character(vir, cutoff=cutoff, point=c1)
        return ([h.offset] + [h.coefficient(d) for d in range(cutoff + 1)],
                [v.offset] + [v.coefficient(d) for d in range(cutoff + 1)],
                [voa.lattice_theta_character(N, cutoff).absolute()
                 for N in (1, 2, 3)])

    c24 = Fraction(-1, 24)
    expect = ([c24] + oracles.partition_counts(cutoff),
              [c24] + oracles.partition_counts(cutoff, 2),
              [oracles.theta_series(N, cutoff) for N in (1, 2, 3)])
    return Task(f"characters cutoff={cutoff}", build, solve, expect)


def correlate_tasks(rng, smoke):
    n, order, points, boot, bf, cutoff = ((3, 4, 4, 4, 2, 6) if smoke
                                          else (4, 8, 8, 6, 4, 10))
    return [
        _consistency(n - 1, order),
        _consistency(n, order),
        _npoint(points),
        Task(f"bootstrap_verify n={boot}", lambda: None,
             lambda _: voa.bootstrap_verify(VACUUM_PHI, boot).passed, True),
        Task(f"boson_fermion_check D={bf}", lambda: None,
             lambda _: voa.boson_fermion_check(bf).passed, True),
        _characters(cutoff),
    ]


_TASK_LISTS = {"verify": verify_tasks, "symbolic": symbolic_tasks,
             "correlate": correlate_tasks}


def tasks_for(workload: str, seed: int, smoke: bool = False) -> list[Task]:
    """The workload's task list, in the order the seed picks."""
    rng = random.Random(seed)
    tasks = _TASK_LISTS[workload](rng, smoke)
    rng.shuffle(tasks)
    return tasks
