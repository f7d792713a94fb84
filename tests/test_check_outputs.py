"""Outputs of `morphism_check`, `coset_graded` and `consistency_check` on
seeded inputs, against a fixture.

Each case is a JSON spec built from a seed, and its rendered output:

- `boson_fermion_check(D)` for D = 0..4, and `morphism_check` on the
  Frenkel-Kac map V_1(sl2) -> V_{sqrt2 Z}, the boson-fermion map and
  b -> a b(-j) on the Heisenberg algebra, each image scaled by a seeded
  rational (most scales break the map, so most cases have a witness),
  and the boson-fermion map at D = 4 with seeded scales;
- `coset_graded` in V_k(sl2) at generic k and at k = -2, degrees 0..3,
  for all three currents and for seeded lists of linear combinations of
  them, rendered basis state by basis state;
- `consistency_check` on the Heisenberg algebra, n = 2 and 3, for seeded
  insertions b(-1-j), functionals phi, windows and region orders, some
  on the algebra with its central term scaled (a failing control);
- `lattice_vertex_op` on `lattice:1..3` for charges +-1 and +-2 over the
  window -6..4, on seeded targets in sectors -2..2 at most 3 above the
  sector vacuum;
- `translate` on seeded states of every preset, the lattice ones with
  sector vacua and charged monomials among them.

`tests/fixtures/check_outputs.json` holds the cases; write it again with

    PYTHONPATH=src python tests/test_check_outputs.py

only where a change of the outputs is meant.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from voa import (PRESET_NAMES, BracketRule, CentralTerm, ExpansionRegion,
                 GeneratorSpec, ModeAlgebra, PbwMonomial, Poly, State, affine,
                 basis_monomials, boson_fermion_check, consistency_check,
                 coset_graded, get_preset, lattice_vertex_op, morphism_check,
                 normal_order, parse_scalar, render_state, sl2_data,
                 translate)

FIXTURE = Path(__file__).parent / "fixtures" / "check_outputs.json"

_SCALES = ("1", "1", "-1", "2", "1/2")


def _scale(state, text):
    return state.scale(parse_scalar(text))


# -- morphism_check -----------------------------------------------------------

def _maps():
    """map name -> (source, target, unscaled images, degrees D)."""
    sl2 = affine(sl2_data(), 1).algebra
    lat2 = get_preset("lattice:2").algebra
    fermion = get_preset("fermion").algebra
    lat1 = get_preset("lattice:1").algebra
    heis = get_preset("heisenberg").algebra
    b = normal_order(lat2, [("b", -1)])
    return {
        "frenkel-kac": (sl2, lat2, [State.vacuum(1), b.scale(2),
                                    State.vacuum(-1)], (2, 3)),
        "boson-fermion": (fermion, lat1, [State.vacuum(-1),
                                          State.vacuum(1)], (2, 3)),
        "heisenberg-b(-1)": (heis, heis, [normal_order(heis, [("b", -1)])],
                             (2, 3)),
        "heisenberg-b(-2)": (heis, heis, [normal_order(heis, [("b", -2)])],
                             (2,)),
    }


def _morphism_spec(rng, maps):
    name = rng.choice(sorted(maps))
    _, _, images, degrees = maps[name]
    return {"check": "morphism_check", "map": name,
            "scales": [rng.choice(_SCALES) for _ in images],
            "D": rng.choice(degrees)}


def _morphism_output(spec, maps):
    src, tgt, images, _ = maps[spec["map"]]
    return morphism_check(src, tgt, [_scale(x, s) for x, s in
                                     zip(images, spec["scales"])], spec["D"])


# -- coset_graded -------------------------------------------------------------

def _coset_specs(rng):
    """All currents, then two seeded lists of combinations, at each level
    and degree."""
    specs = []
    for level in (None, -2):
        for d in range(4):
            lists = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
            for _ in range(2):
                combos = []
                for _ in range(rng.randrange(1, 3)):
                    combo = ["0", "0", "0"]
                    while combo == ["0", "0", "0"]:
                        combo = [rng.choice(("0", "0", "1", "-1", "2"))
                                 for _ in range(3)]
                    combos.append(combo)
                lists.append(combos)
            specs += [{"check": "coset_graded", "level": level, "d": d,
                       "W": combos} for combos in lists]
    return specs


def _coset_output(spec, instances):
    inst = instances[spec["level"]]
    currents = [s for _, s in inst.generator_states()]
    W = [State.sum((x, parse_scalar(c)) for x, c in zip(currents, combo))
         for combo in spec["W"]]
    return [render_state(inst.algebra, v)
            for v in coset_graded(inst.algebra, W, spec["d"])]


# -- consistency_check --------------------------------------------------------

_PHI_WORDS = {"|0>": (), "b(-1)": ((0, -1),), "b(-2)": ((0, -2),),
              "b(-1)^2": ((0, -1), (0, -1)),
              "b(-2)b(-1)": ((0, -2), (0, -1))}


def _consistency_spec(rng):
    n = rng.choice((2, 3))
    phi = {"|0>": "1"}
    if rng.randrange(2):
        phi = {w: rng.choice(("1", "-1", "2", "1/3", "-3/2"))
               for w in rng.sample(sorted(_PHI_WORDS), rng.randrange(1, 4))}
    regions = [list(p) for p in permutations(range(1, n + 1))]
    rng.shuffle(regions)
    return {"check": "consistency_check",
            "central": rng.choice(("1", "1", "2", "-1", "1/2")),
            "insertions": [rng.choice((0, 0, 1, 2)) for _ in range(n)],
            "phi": phi, "window": rng.choice((2, 3, 3)), "regions": regions}


def _consistency_output(spec):
    alg = ModeAlgebra(
        "heisenberg", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(parse_scalar(spec["central"]),
                                             Poly.var("m")))})
    states = [State.monomial(PbwMonomial(0, ((0, -1 - j),)))
              for j in spec["insertions"]]
    phi = {PbwMonomial(0, _PHI_WORDS[w]): Fraction(c)
           for w, c in spec["phi"].items()}
    regions = [ExpansionRegion(tuple(f"z{i}" for i in r))
               for r in spec["regions"]]
    return consistency_check(alg, states, phi, regions, 8,
                             window=spec["window"]).render()


# -- lattice_vertex_op and translate -----------------------------------------

def _target_spec(rng, alg, sectors):
    """One to three seeded PBW monomials, each in a seeded sector at most 3
    above its vacuum, with seeded coefficients."""
    terms = []
    for _ in range(rng.randrange(1, 4)):
        sector = rng.choice(sectors)
        monos = basis_monomials(alg, alg.sector_energy(sector)
                                + rng.randrange(4), sector)
        if monos:
            mono = rng.choice(monos)
            terms.append([sector, [list(x) for x in mono.word],
                          rng.choice(_SCALES)])
    return terms


def _target(terms):
    return State.sum((State.monomial(PbwMonomial(s, tuple(map(tuple, w)))),
                      parse_scalar(c)) for s, w, c in terms)


def _vertex_spec(rng):
    name = f"lattice:{rng.randrange(1, 4)}"
    return {"check": "lattice_vertex_op", "preset": name,
            "charge": rng.choice((1, -1, 2, -2)),
            "target": _target_spec(rng, get_preset(name).algebra,
                                   range(-2, 3))}


def _vertex_output(spec):
    inst = get_preset(spec["preset"])
    coeffs = lattice_vertex_op(inst, spec["charge"], range(-6, 5),
                               _target(spec["target"]))
    return [[str(e), render_state(inst.algebra, v)]
            for e, v in coeffs.items()]


def _translate_spec(rng, name):
    alg = get_preset(name).algebra
    sectors = range(-2, 3) if alg.has_sectors else (0,)
    return {"check": "translate", "preset": name,
            "state": _target_spec(rng, alg, sectors)}


def _translate_output(spec):
    alg = get_preset(spec["preset"]).algebra
    return render_state(alg, translate(alg, _target(spec["state"])))


# -- the cases ----------------------------------------------------------------

def outputs():
    """[{"spec": ..., "output": ...}] for every case, in a fixed order."""
    rng = random.Random(0)
    maps = _maps()
    instances = {None: affine(sl2_data()), -2: affine(sl2_data(), -2)}
    cases = [({"check": "boson_fermion_check", "D": D},
              boson_fermion_check(D).render()) for D in range(5)]
    for _ in range(40):
        spec = _morphism_spec(rng, maps)
        cases.append((spec, _morphism_output(spec, maps)))
    for spec in _coset_specs(rng):
        cases.append((spec, _coset_output(spec, instances)))
    for _ in range(32):
        spec = _consistency_spec(rng)
        cases.append((spec, _consistency_output(spec)))
    for _ in range(8):
        spec = {"check": "morphism_check", "map": "boson-fermion",
                "scales": [rng.choice(_SCALES) for _ in range(2)], "D": 4}
        cases.append((spec, _morphism_output(spec, maps)))
    for _ in range(24):
        spec = _vertex_spec(rng)
        cases.append((spec, _vertex_output(spec)))
    for name in PRESET_NAMES:
        for _ in range(3):
            spec = _translate_spec(rng, name)
            cases.append((spec, _translate_output(spec)))
    return [{"spec": spec, "output": out} for spec, out in cases]


def test_outputs_match_the_fixture():
    assert outputs() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    cases = outputs()
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}", file=sys.stderr)
