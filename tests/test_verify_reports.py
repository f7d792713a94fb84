"""`verify_axioms` reports on seeded corrupted algebras, against a fixture.

Each case is an algebra built from a seed: a one-coefficient perturbation of
the bracket table of `heisenberg`, `affine:sl2` (level 1), `fermion`,
`weyl:1` or `lattice:1`, or a random table of 2-3 generators.  Most of them
fail some check, so the fixture pins the first witness of every check, on
algebras no hand-written pin was chosen for.  `tests/fixtures/
verify_reports.json` holds each case's algebra document and its rendered
report; write it again with

    PYTHONPATH=src python tests/test_verify_reports.py

only where a change of the reports is meant.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from voa import (BracketRule, BracketTerm, CentralTerm, GeneratorSpec,
                 ModeAlgebra, Poly, Scalar, algebra_to_json, get_preset,
                 verify_axioms)

FIXTURE = Path(__file__).parent / "fixtures" / "verify_reports.json"

_BASES = ("heisenberg", "affine:sl2", "fermion", "weyl:1", "lattice:1")
_COEFFS = (1, -1, 2, -2, Fraction(1, 2))
_M, _N = Poly.var("m"), Poly.var("n")
_TERM_MONOMIALS = (Poly.const(1), _M, _N)


def _bump(rng, poly, monomials):
    return poly + monomials[rng.randrange(len(monomials))].scale(
        rng.choice(_COEFFS))


def _central_monomials(degree):
    return [_M ** e for e in range(degree + 1)]


def _perturbed(rng):
    """A preset's table with one coefficient of one bracket changed."""
    name = rng.choice(_BASES)
    alg = get_preset(name, level=1).algebra
    gens = alg.generators
    rules = dict(alg.rules)
    i = rng.randrange(len(gens))
    j = rng.randrange(i, len(gens))
    rule = rules.get((i, j), BracketRule(()))
    parity = gens[i].odd != gens[j].odd
    targets = [t for t, g in enumerate(gens) if g.odd == parity]
    # a non-central bracket of the lattice's charge generator has no
    # lattice vertex operator, and a central term needs an even bracket
    if not parity and (alg.has_sectors or not targets or rng.randrange(2)):
        old = rule.central or CentralTerm(Scalar.one(), Poly())
        rule = BracketRule(rule.terms, CentralTerm(
            old.scalar, _bump(rng, old.coeff, _central_monomials(3))))
    else:
        target = rng.choice(targets)
        terms = {t.target: t for t in rule.terms}
        old = terms.get(target, BracketTerm(target, Poly()))
        terms[target] = old._replace(
            coeff=_bump(rng, old.coeff, _TERM_MONOMIALS))
        rule = BracketRule(tuple(terms[t] for t in sorted(terms)),
                           rule.central)
    rules[(i, j)] = rule
    return ModeAlgebra(f"{name}-perturbed", gens, rules,
                       lattice_N=alg.lattice_N, charge_gen=alg.charge_gen)


def _random_table(rng):
    """2-3 generators of weight 0-2, random parities and brackets."""
    n = rng.randrange(2, 4)
    weights = [rng.choice((1, 1, 2, 0)) for _ in range(n)]
    if weights.count(0) > 1:
        weights = [w or 1 for w in weights]
    gens = [GeneratorSpec(name, Fraction(w), rng.randrange(3) == 0)
            for name, w in zip("acd", weights)]
    rules = {}
    for i in range(n):
        for j in range(i, n):
            if rng.randrange(2):
                continue
            parity = gens[i].odd != gens[j].odd
            targets = [t for t, g in enumerate(gens) if g.odd == parity]
            terms = ()
            if targets and rng.randrange(2):
                t = rng.choice(targets)
                terms = (BracketTerm(t, _bump(rng, Poly(), _TERM_MONOMIALS)),)
            central = None
            if not parity and (rng.randrange(2) or not terms):
                central = CentralTerm(Scalar.one(),
                                      _bump(rng, Poly(), _central_monomials(3)))
            if terms or central:
                rules[(i, j)] = BracketRule(terms, central)
    return ModeAlgebra("random", gens, rules)


def build(seed):
    rng = random.Random(seed)
    return (_perturbed if rng.randrange(3) else _random_table)(rng)


def cases():
    """(seed, D): seeds 0-99 at D=2, and at D=3 the first 20 seeds from 100
    on whose algebra has no even generator of weight 0.  The zero modes of
    such a generator span the degree-0 space up to `fock.ZERO_MODE_CAP`:
    with them, seeds 100-119 at D=3 took 2.9 s, 1.6 s of it in one
    `weyl:1` case, against 0.5 s for the 20 cases kept (before the
    identity-field skip, 2-core x86_64, Python 3.11)."""
    heavy = [seed for seed in range(100, 200)
             if all(g.weight or g.odd for g in build(seed).generators)]
    return [(seed, 2) for seed in range(100)] + [(seed, 3)
                                                 for seed in heavy[:20]]


def report(seed, D):
    alg = build(seed)
    return {"seed": seed, "D": D, "algebra": algebra_to_json(alg),
            "report": verify_axioms(alg, D).render()}


def test_reports_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    assert [(c["seed"], c["D"]) for c in expected] == cases()
    assert [report(seed, D) for seed, D in cases()] == expected


if __name__ == "__main__":
    reports = [report(seed, D) for seed, D in cases()]
    FIXTURE.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"wrote {len(reports)} reports to {FIXTURE}", file=sys.stderr)
