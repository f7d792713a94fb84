"""Tests for OPE extraction, commutator formulas, axioms, and cosets."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voa import (BracketRule, BracketTerm, CentralTerm, CoordChange,
                 ExpansionRegion,
                 GeneratorSpec, ModeAlgebra, Poly, Scalar, State, affine,
                 algebra_from_json, apply_mode, basis_monomials,
                 consistency_check, coset_graded, get_preset, graded_dim,
                 huang_check, lattice_vertex_op, NotLocalUpTo, locality_order,
                 morphism_check, normal_order, parse_scalar, render_state,
                 singular_part, sl2_data, state_field_mode, translate,
                 verify_axioms)
from voa import ope
from voa.correlators import VACUUM_PHI, zvar
from voa.fields import OperatorCache
from voa.ope import (_grouped_basis, apply_combination, associativity_defect,
                     commutator_direct, commutator_via_formula)


@pytest.fixture(scope="module")
def vir():
    return get_preset("virasoro")


@pytest.fixture(scope="module")
def heis():
    return get_preset("heisenberg")


def _basis_states(alg, D):
    out = []
    for d in range(D + 1):
        out.extend(State.monomial(m) for m in basis_monomials(alg, d, 0))
    return out


def test_singular_part_conformal_heisenberg_symbolic(heis):
    alg = heis.algebra
    omega = heis.conformal
    table = singular_part(alg, omega, omega)
    c = parse_scalar("1 - 12*lam^2")
    assert set(table) == {4, 2, 1}
    assert table[4] == State.vacuum().scale(c / 2)
    assert table[2] == omega.scale(2)
    assert table[1] == translate(alg, omega)


def test_singular_part_generator_pair(heis):
    # b(z)b(w) ~ 1/(z-w)^2
    alg = heis.algebra
    b = heis.gen_state("b")
    table = singular_part(alg, b, b)
    assert set(table) == {2}
    assert table[2] == State.vacuum()


def test_singular_part_fermion():
    inst = get_preset("fermion")
    table = singular_part(inst.algebra, inst.gen_state("psi"),
                          inst.gen_state("psi*"))
    assert set(table) == {1}
    assert table[1] == State.vacuum()


def test_commutator_formula_virasoro_small(vir):
    alg = vir.algebra
    L = alg.gen_index("L")
    omega = vir.conformal
    c = Scalar.param("c")
    for v in _basis_states(alg, 3):
        for m in range(-2, 3):
            for n in range(-2, 3):
                comb = commutator_via_formula(alg, omega, m, omega, n)
                got = apply_combination(alg, comb, v)
                expect = apply_mode(alg, L, m + n, v).scale(
                    Fraction(m - n))
                if m + n == 0:
                    expect = expect + v.scale(
                        c * Fraction(m ** 3 - m, 12))
                assert got == expect


def test_commutator_formula_matches_direct_affine():
    inst = get_preset("affine:sl2")
    alg = inst.algebra
    e = inst.gen_state("e")
    f = inst.gen_state("f")
    for v in _basis_states(alg, 2):
        for m in range(-2, 3):
            for n in range(-2, 3):
                comb = commutator_via_formula(alg, e, m, f, n)
                assert apply_combination(alg, comb, v) == \
                    commutator_direct(alg, e, m, f, n, v)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(-3, 3), n=st.integers(-3, 3), idx=st.integers(0, 5))
def test_commutator_formula_matches_direct_virasoro(m, n, idx):
    inst = get_preset("virasoro")
    alg = inst.algebra
    states = _basis_states(alg, 4)
    v = states[idx % len(states)]
    omega = inst.conformal
    comb = commutator_via_formula(alg, omega, m, omega, n)
    assert apply_combination(alg, comb, v) == \
        commutator_direct(alg, omega, m, omega, n, v)


def test_locality_orders():
    heis = get_preset("heisenberg")
    assert locality_order(heis.algebra, heis.gen_state("b"),
                          heis.gen_state("b"), 4) == 2
    vir = get_preset("virasoro")
    assert locality_order(vir.algebra, vir.conformal, vir.conformal, 6) == 4
    ferm = get_preset("fermion")
    assert locality_order(ferm.algebra, ferm.gen_state("psi"),
                          ferm.gen_state("psi*"), 4) == 1
    comm = get_preset("commutative")
    assert locality_order(comm.algebra, comm.gen_state("x"),
                          comm.gen_state("x"), 4) == 0


def test_verify_axioms_heisenberg_quick(heis):
    report = verify_axioms(heis.algebra, 3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"vacuum", "translation", "locality", "associativity"} <= names


def _corrupted_heisenberg(central=Poly.const(1)):
    # [b_m, b_n] = central(m) delta_{m+n,0} in place of m: the constant 1
    # breaks skew symmetry, and m^3 does not fit the weight of b
    return ModeAlgebra(
        "heisenberg-corrupted", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(), central))})


def test_verify_axioms_negative_control():
    report = verify_axioms(_corrupted_heisenberg(), 2)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert failed
    assert any(c.witness for c in failed)


def test_locality_order_negative_control():
    # no N makes (z-w)^N [Y(b,z), Y(b,w)] vanish when [b_m, b_n] = delta;
    # the witness is the first window (r, t) and test state C of the last N
    alg = _corrupted_heisenberg()
    b = normal_order(alg, [("b", -1)], 0)
    with pytest.raises(NotLocalUpTo) as info:
        locality_order(alg, b, b, 2)
    r, t, C = info.value.witness
    assert (r, t, render_state(alg, C)) == (-4, 0, "|0>")
    assert info.value.D == 2
    assert str(info.value) == ("no locality order found up to degree bound 2: "
                               "modes (-4,0), C=|0>")


def test_verify_axioms_negative_control_witnesses():
    # the first failing case of each check, in the search order; the
    # associativity failure needs a pair of total degree 3.  With the
    # central term m^3 the first failing locality window is not the first
    # window tried.
    m = Poly.var("m")
    for central, locality in (
            (Poly.const(1), "modes (-2,0)"), (m * m * m, "modes (-3,1)")):
        for D, associativity in (
                (2, None),
                (3, "A=b(-1) |0>, B=b(-1)^2 |0>, n=2, m=-2, C=|0>")):
            report = verify_axioms(_corrupted_heisenberg(central), D)
            witness = {c.name: c.witness for c in report.checks}
            assert witness["vacuum"] is None
            assert witness["translation"] == \
                "A=b(-1) |0>, B=b(-1) |0>, mode 2"
            assert witness["locality"] == \
                f"A=b(-1) |0>, B=b(-1) |0>, N=2, {locality}, C=|0>"
            assert witness["associativity"] == associativity



def _wrong_odd_lattice():
    # the odd lattice with [b_m, b_n] = 2m in place of m
    return ModeAlgebra(
        "lattice-wrong", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(),
                                             Poly.var("m").scale(2)))},
        lattice_N=1, charge_gen=0)


def test_verify_axioms_odd_lattice_negative_control():
    # the sector vacua's energies and vertex operators no longer fit the
    # boson; every witness has half-integral or mixed modes
    alg = _wrong_odd_lattice()
    witness = {c.name: c.witness for c in verify_axioms(alg, 2).checks}
    assert witness == {
        "vacuum": None,
        "translation": "A=1_{1,1}, B=1_{1,1}, mode -3/2",
        "locality": "A=1_{1,1}, B=1_{1,1}, N=0, modes (-5/2,1/2), C=|0>",
        "associativity": "A=1_{1,1}, B=1_{1,1}, n=0, m=-3, C=|0>"}


def _weyl_with_central_m():
    # weyl:1 with [a_m, a*_n] = m delta_{m+n,0}: an associativity failure at
    # the second position of a pair {A, B} is found before the first
    # failing pair
    weyl = get_preset("weyl:1").algebra
    return ModeAlgebra("weyl-m", list(weyl.generators), {
        (0, 1): BracketRule((), CentralTerm(Scalar.one(), Poly.var("m")))})


@pytest.mark.parametrize("build", [
    _corrupted_heisenberg, _weyl_with_central_m, _wrong_odd_lattice,
    lambda: get_preset("lattice:1").algebra],
    ids=["heisenberg-delta", "weyl-m", "lattice-wrong", "lattice:1"])
def test_identity_field_cases_are_zero(build):
    # verify_axioms does not run the cases in which the identity field |0>
    # is one of the two fields; on algebras that fail other checks, each of
    # them is zero when computed case by case, outside the sweep, over wider
    # mode windows than the sweep's
    alg, D = build(), 2
    u, ops = alg.unit, OperatorCache(alg)
    vac = State.vacuum()
    vac_mono, = vac.terms
    i = ops.field(vac)
    groups = _grouped_basis(alg, D)
    states = [(d, B) for d, Bs in groups for B in Bs]
    tests = [(C, ope.TwoModeProducts(ops, C)) for _, C in states]
    window = range(-(D + 3) * u, (D + 3) * u + 1)
    assert next(ope._vacuum_failures(ops, groups, D * u), None) is None
    for dB, B in states:
        b, = B.terms
        # locality: [1_[r], B_[t]] = 0, in both orders, already at N = 0
        assert ope.locality_witness(ops, vac, B, 0, tests, D) is None
        assert ope.locality_witness(ops, B, vac, 0, tests, D) is None
        # translation: [T, 1_[p]] B = (1 - p) 1_[p-1] B = 0
        TB = translate(alg, B)
        for p in window:
            assert translate(alg, ops.col(i, p, b)) == ops.apply(i, p, TB)
            assert ops.col(i, p - u, b).scale(alg.from_units(u - p)).is_zero
        assert ops.col(i, 0, b) == B
        # associativity of (|0>, B) and (B, |0>), for n >= 0 and every m
        x = ops.field(B)
        sB = u - dB
        for n in range(D + 2):
            to_b = ops.field(ops.col(i, n * u + u, vac_mono))
            b_to = ops.field(ops.col(x, n * u + sB, vac_mono))
            for C, products in tests:
                for m in window:
                    assert associativity_defect(products, i, x, to_b, n, m, u,
                                                sB, (-1) ** n).is_zero
                    assert associativity_defect(products, x, i, b_to, n, m,
                                                sB, u, (-1) ** n).is_zero


def test_sector_vacuum_is_an_ordinary_field():
    # the identity-field cases are those of the sector-0 vacuum only: in the
    # wrong odd lattice, 1_{1,1} fails locality with itself
    alg = _wrong_odd_lattice()
    ops = OperatorCache(alg)
    one = State.vacuum(1)
    tests = [(C, ope.TwoModeProducts(ops, C))
             for _, Cs in _grouped_basis(alg, 2) for C in Cs]
    assert ope.locality_witness(ops, one, one, 0, tests, 2) is not None


_REPORTS = Path(__file__).parent / "fixtures" / "verify_reports.json"


def test_no_accepted_table_fails_the_vacuum_check():
    # B_(n)|0> = 0 for n >= 0 holds by construction for every table that
    # ModeAlgebra accepts (`verify_axioms`), so the sweep skips (B, |0>)
    # as it skips (|0>, B): the vacuum check finds no witness, one degree
    # above the report's, on the 120 seeded algebras of the report fixture
    # (83 + 19 of them fail some check) and on an even and an odd lattice
    cases = [(algebra_from_json(case["algebra"]), case["D"] + 1)
             for case in json.loads(_REPORTS.read_text())]
    cases += [(get_preset(name).algebra, 4) for name in ("lattice:1",
                                                         "lattice:3")]
    assert len(cases) == 122
    for alg, D in cases:
        groups = _grouped_basis(alg, D)
        failures = ope._vacuum_failures(OperatorCache(alg), groups,
                                        D * alg.unit)
        assert next(failures, None) is None, alg.name


def _sl2_doubled():
    # [e_m, f_n] = 2 h_{m+n} + m delta at level 1: the Jacobi identity of
    # e, h, f fails, which only a pair of total degree 3 can see
    sl2 = get_preset("affine:sl2", level=1).algebra
    rule = sl2.rules[(0, 2)]
    return ModeAlgebra("sl2-doubled", list(sl2.generators), {
        **sl2.rules, (0, 2): BracketRule((BracketTerm(1, Poly.const(2)),),
                                         rule.central)})


def _weyl_with_aa():
    # weyl:1 with [a_m, a_n] = 2 delta_{m+n,0}, a central term that is not
    # skew-symmetric
    weyl = get_preset("weyl:1").algebra
    return ModeAlgebra("weyl-aa", list(weyl.generators), {
        **weyl.rules,
        (0, 0): BracketRule((), CentralTerm(Scalar.one(), Poly.const(2)))})


def _two_currents():
    # [a_m, c_n] = (m+n) c_{m+n} + 2m delta and [c_m, c_n] = 2 delta: the
    # first associativity failure at D = 2, (a, c), comes before the first
    # locality failure, (c, c)
    m, n = Poly.var("m"), Poly.var("n")
    one = Scalar.one()
    return ModeAlgebra(
        "two-currents", [GeneratorSpec("a", Fraction(1)),
                         GeneratorSpec("c", Fraction(1))],
        {(0, 1): BracketRule((BracketTerm(1, m + n),),
                             CentralTerm(one, m.scale(2))),
         (1, 1): BracketRule((), CentralTerm(one, Poly.const(2)))})


def _brackets_of_a():
    # [a_m, a_n] = m a_{m+n} + m^3 delta and [a_m, c_n] = 2 a_{m+n} + m^2
    # delta, with a spectator d of weight 0: at D = 3 the pair (a, a)
    # fails associativity first at n = 1 on C = |0> and at n = 0 on a later
    # C, and the witness is the one of n = 0
    m = Poly.var("m")
    one = Scalar.one()
    return ModeAlgebra(
        "brackets-of-a", [GeneratorSpec("a", Fraction(1)),
                          GeneratorSpec("c", Fraction(1)),
                          GeneratorSpec("d", Fraction(0))],
        {(0, 0): BracketRule((BracketTerm(0, m),), CentralTerm(one, m * m * m)),
         (0, 1): BracketRule((BracketTerm(0, Poly.const(2)),),
                             CentralTerm(one, m * m))})


def _pair_position(alg, D, witness):
    """Positions in the pair order of the witness's (A, B) and (B, A)."""
    A, B = witness[2:].split(", B=")[0], witness.split(", B=")[1].split(", ")[0]
    order = [(render_state(alg, X), render_state(alg, Y)) for _, X, _, Y in
             ope._pairs(_grouped_basis(alg, D), D * alg.unit)]
    return order.index((A, B)), order.index((B, A))


_E, _H, _F = "e(-1) |0>", "h(-1) |0>", "f(-1) |0>"
_A, _AS = "a(-1) |0>", "a*(0) |0>"
_C = "c(-1) |0>"


@pytest.mark.parametrize("build, D, expected", [
    (_sl2_doubled, 2, {"vacuum": None, "translation": None,
                       "locality": None, "associativity": None}),
    (_sl2_doubled, 3, {
        "vacuum": None,
        "translation": f"A={_E}, B=h(-1) f(-1) |0>, mode 3",
        "locality": f"A={_E}, B={_H}, N=1, modes (-1,1), C={_F}",
        "associativity": f"A={_E}, B={_H}, n=0, m=1, C={_F}"}),
    (_weyl_with_aa, 2, {
        "vacuum": None,
        "translation": f"A={_A}, B={_A}, mode 2",
        "locality": f"A={_A}, B={_A}, N=2, modes (-2,0), C=|0>",
        "associativity": f"A=a(-1) a*(0) |0>, B={_A}, n=0, m=-2, C=|0>"}),
    (_weyl_with_aa, 3, {
        "vacuum": None,
        "translation": f"A={_A}, B={_A}, mode 2",
        "locality": f"A={_A}, B={_A}, N=2, modes (-2,0), C=|0>",
        "associativity": f"A=a(-1) a*(0) |0>, B={_A}, n=0, m=-2, C=|0>"}),
    (_two_currents, 2, {
        "vacuum": None,
        "translation": f"A={_A}, B={_C}, mode 0",
        "locality": f"A={_C}, B={_C}, N=2, modes (-2,0), C=|0>",
        "associativity": f"A={_A}, B={_C}, n=0, m=-2, C=|0>"}),
    (_two_currents, 3, {
        "vacuum": None,
        "translation": f"A={_A}, B={_C}, mode 0",
        "locality": f"A={_A}, B={_A}, N=0, modes (0,1), C={_C}",
        "associativity": f"A={_A}, B={_A}, n=0, m=1, C={_C}"}),
    (_weyl_with_central_m, 2, {
        "vacuum": None,
        "translation": f"A={_AS}, B={_A}, mode 2",
        "locality": f"A={_AS}, B={_A}, N=1, modes (-2,1), C=|0>",
        "associativity": f"A=a*(0)^2 |0>, B={_A}, n=0, m=-2, C=|0>"}),
    (_weyl_with_central_m, 3, {
        "vacuum": None,
        "translation": f"A={_AS}, B={_A}, mode 2",
        "locality": f"A={_AS}, B={_A}, N=1, modes (-2,1), C=|0>",
        "associativity": f"A=a*(0)^2 |0>, B={_A}, n=0, m=-2, C=|0>"}),
    (_brackets_of_a, 2, {
        "vacuum": None,
        "translation": f"A={_A}, B={_A}, mode 1",
        "locality": f"A={_A}, B={_A}, N=2, modes (-3,1), C=|0>",
        "associativity": f"A={_A}, B={_A}, n=1, m=-2, C=|0>"}),
    (_brackets_of_a, 3, {
        "vacuum": None,
        "translation": f"A={_A}, B={_A}, mode 1",
        "locality": f"A={_A}, B={_A}, N=2, modes (-3,1), C=|0>",
        "associativity": f"A={_A}, B={_A}, n=0, m=1, C={_C}"}),
], ids=["sl2-D2", "sl2-D3", "weyl-D2", "weyl-D3", "currents-D2",
        "currents-D3", "weyl-m-D2", "weyl-m-D3", "brackets-of-a-D2",
        "brackets-of-a-D3"])
def test_verify_axioms_multi_generator_witnesses(build, D, expected):
    # each check reports its first failing case in the pair order
    # (deg A, deg B, A, B) even when the other check fails earlier or later
    alg = build()
    witness = {c.name: c.witness for c in verify_axioms(alg, D).checks}
    assert witness == expected


def test_first_failing_pairs_sit_where_the_pins_need_them():
    # the weyl pin's associativity pair comes after its reverse, which
    # passes; the two-current pin's locality pair comes after the
    # associativity pair
    for D in (2, 3):
        alg = _weyl_with_aa()
        report = {c.name: c.witness for c in verify_axioms(alg, D).checks}
        first, reverse = _pair_position(alg, D, report["associativity"])
        assert reverse < first
        assert _pair_position(alg, D, report["locality"])[0] < reverse
    alg = _two_currents()
    report = {c.name: c.witness for c in verify_axioms(alg, 2).checks}
    assert (_pair_position(alg, 2, report["associativity"])[0]
            < _pair_position(alg, 2, report["locality"])[0])


def _a_c_delta():
    # currents a, c with [a_m, c_n] = delta_{m+n,0} in place of m delta:
    # (a, c) and (c, a) both fail locality, on the same first C
    return ModeAlgebra(
        "a-c-delta", [GeneratorSpec("a", Fraction(1)),
                      GeneratorSpec("c", Fraction(1))],
        {(0, 1): BracketRule((), CentralTerm(Scalar.one(), Poly.const(1)))})


@pytest.mark.parametrize("D", [2, 3])
def test_locality_witness_names_the_earlier_order(D):
    # the sweep tries both orders of a pair of equal degrees on each C; when
    # both fail on the first C, the witness is that of (a, c), the earlier
    # of the two in the pair order, whichever order is tried first
    alg = _a_c_delta()
    ops = OperatorCache(alg)
    a, c = (normal_order(alg, [(g, -1)]) for g in "ac")
    vac = State.vacuum()
    tests = [(vac, ope.TwoModeProducts(ops, vac))]
    for X, Y in ((a, c), (c, a)):
        N = max(singular_part(alg, X, Y), default=0)
        assert ope.locality_witness(ops, X, Y, N, tests, D) is not None
    witness = {c.name: c.witness for c in verify_axioms(alg, D).checks}
    assert witness["locality"] == \
        "A=a(-1) |0>, B=c(-1) |0>, N=2, modes (-2,0), C=|0>"


def test_verify_axioms_odd_lattice_quick():
    # in lattice:3 the sum of two half-integral modes is an integral mode,
    # which a single-letter field must receive as an int
    assert verify_axioms(get_preset("lattice:3").algebra, 3).passed

def test_morphism_check_frenkel_kac():
    # level-1 sl2 in the lattice algebra of sqrt(2) Z: e -> 1_1, f -> 1_-1
    # and h -> 2 b(-1)|0> in the boson normalization [b_m, b_n] = m/2
    src = affine(sl2_data(), 1).algebra
    lat = get_preset("lattice:2").algebra
    b = normal_order(lat, [("b", -1)])
    e, f = State.vacuum(1), State.vacuum(-1)
    assert morphism_check(src, lat, [e, b.scale(2), f], 3) is None
    assert morphism_check(src, lat, [e, b, f], 3) == "h(-1) on e(-1) v_k"


def _wakimoto_target():
    """A beta-gamma pair a, a* and a boson b with [b_m, b_n] = (2k+4) m."""
    return algebra_from_json({
        "name": "wakimoto",
        "generators": [{"name": "a", "weight2": 2},
                       {"name": "a*", "weight2": 0},
                       {"name": "b", "weight2": 2}],
        "bracket": [
            {"lhs": "a", "rhs": "a*",
             "central": {"param": "1", "coeff": "1"}},
            {"lhs": "b", "rhs": "b",
             "central": {"param": "2*k+4", "coeff": "m"}}],
        "central_params": ["k"]})


def test_morphism_check_wakimoto_symbolic_level():
    src = affine(sl2_data()).algebra
    tgt = _wakimoto_target()

    def state(*word):
        return normal_order(tgt, word)

    e = state(("a", -1))
    h = state(("a", -1), ("a*", 0)).scale(-2) + state(("b", -1))
    f = (state(("a", -1), ("a*", 0), ("a*", 0)).scale(-1)
         + state(("a*", -1)).scale(parse_scalar("k"))
         + state(("a*", 0), ("b", -1)))
    assert morphism_check(src, tgt, [e, h, f], 2) is None
    assert morphism_check(src, tgt, [e, h, f.scale(2)], 2) == \
        "f(-1) on e(-1) v_k"


def _memo_kinds(alg):
    """Kinds of key in the algebra's memo; apply_mode's keys are untagged."""
    return {key[0] if isinstance(key[0], str) else "apply_mode"
            for key in alg._apply_memo}


def test_axiom_checks_free_their_caches():
    # after verify_axioms, locality_order, coset_graded and morphism_check
    # return, the algebra holds only its memo of generator modes and T (and
    # the E-/E+ terms of the vertex operators on a lattice target): the
    # modes of composite fields lived in the call's OperatorCache
    pure = {"apply_mode", "T"}
    inst = get_preset("heisenberg")
    alg, b = inst.algebra, inst.gen_state("b")
    assert verify_axioms(alg, 3).passed
    assert _memo_kinds(alg) <= pure
    assert locality_order(alg, b, b, 3) == 2
    assert _memo_kinds(alg) <= pure
    sl2 = get_preset("affine:sl2")
    currents = [s for _, s in sl2.generator_states()]
    assert coset_graded(sl2.algebra, currents, 3) == []
    assert _memo_kinds(sl2.algebra) <= pure
    src = affine(sl2_data(), 1).algebra
    lat = get_preset("lattice:2").algebra
    images = [State.vacuum(1), normal_order(lat, [("b", -1)]).scale(2),
              State.vacuum(-1)]
    assert morphism_check(src, lat, images, 3) is None
    assert "fm" not in _memo_kinds(lat)
    assert _memo_kinds(lat) <= pure | {"E-", "E+"}


_RSS_GROWTH = """
from voa import get_preset, verify_axioms

def status_kib(key):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1])

alg = get_preset("weyl:1").algebra
start = status_kib("VmRSS")
assert verify_axioms(alg, 3).passed
print(status_kib("VmHWM") - start)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_verify_axioms_memory_stays_flat():
    # in a fresh interpreter, the peak RSS of verify_axioms(weyl:1, 3) grows
    # by about 14 MB over the RSS after import and preset build (Python
    # 3.11); keeping the two-mode products for the whole call, not for one
    # test state, makes it about 40 MB.  The child reads its peak as VmHWM:
    # its ru_maxrss starts at the RSS of this process, which it inherits
    # through fork and exec.
    result = subprocess.run([sys.executable, "-c", _RSS_GROWTH],
                            capture_output=True, text=True, check=True)
    growth_mb = int(result.stdout) / 1024
    assert growth_mb < 24, f"peak RSS grew by {growth_mb:.1f} MB"


def test_one_shot_calls_free_their_caches():
    # each one-shot call makes its own OperatorCache: composite fields,
    # vertex operators and the coordinate and correlator checks leave only
    # the generator-level memo kinds on the algebra
    pure = {"apply_mode", "T", "E-", "E+"}
    heis = get_preset("heisenberg", lam=0)
    alg, omega, b = heis.algebra, heis.conformal, heis.gen_state("b")
    assert set(singular_part(alg, omega, omega)) == {1, 2, 4}
    assert state_field_mode(alg, omega, 0, omega) == omega.scale(2)
    terms, _ = commutator_via_formula(alg, omega, 1, omega, -1)
    assert len(terms) == 2
    assert huang_check(heis, omega, CoordChange((Scalar.from_fraction(2),)),
                       window=2, D=2).passed
    regions = [ExpansionRegion(tuple(zvar(i) for i in perm))
               for perm in permutations((1, 2, 3))]
    states = [b, heis.state([("b", -2)]), b]
    assert consistency_check(alg, states, VACUUM_PHI, regions, 8).passed
    assert _memo_kinds(alg) <= pure
    lat = get_preset("lattice:2")
    coeffs = lattice_vertex_op(lat, 1, range(-3, 3), State.vacuum())
    assert coeffs and _memo_kinds(lat.algebra) <= pure


def _numbers(key):
    """Every number in a memo key: mode indices, generator indices, sectors
    and the modes inside the monomials' words."""
    for x in key:
        if isinstance(x, tuple):
            yield from _numbers(x)
        elif not isinstance(x, str):
            yield x


def _verify_numbers(monkeypatch, alg, D):
    """Every number in the memo keys of verify_axioms(alg, D): those of the
    algebra, those of each OperatorCache the call made and those of each
    table of two-mode products."""
    caches, tables = [], []

    class Recorded(ope.OperatorCache):
        def __init__(self, alg):
            super().__init__(alg)
            caches.append(self)

    class RecordedProducts(ope.TwoModeProducts):
        def __init__(self, ops, C):
            super().__init__(ops, C)
            tables.append(self)

    monkeypatch.setattr(ope, "OperatorCache", Recorded)
    monkeypatch.setattr(ope, "TwoModeProducts", RecordedProducts)
    assert verify_axioms(alg, D).passed
    assert any(ops._modes for ops in caches)
    assert any(tables)
    keys = [*alg._apply_memo]
    for ops in caches:
        keys += [*ops._modes, *ops._cols]
    for table in tables:
        keys += [*table]
    return [x for key in keys for x in _numbers(key)]


@pytest.mark.parametrize("name", ["heisenberg", "affine:sl2", "weyl:1",
                                  "lattice:2"])
def test_integral_indices_are_ints(name, monkeypatch):
    alg = get_preset(name).algebra
    assert alg.unit == 1
    numbers = _verify_numbers(monkeypatch, alg, 2)
    assert {type(x) for x in numbers} == {int}
    for g, spec in enumerate(alg.generators):
        assert type(alg.weight(g)) is int
        assert type(spec.weight) is Fraction
    assert {type(d) for d, _ in _grouped_basis(alg, 3)} == {int}


def test_odd_lattice_indices_are_ints_in_half_units(monkeypatch):
    # modes and degrees are ints in units of 1/2 on the odd lattice: the
    # half-integral modes are the odd keys
    alg = get_preset("lattice:1").algebra
    assert alg.unit == 2
    numbers = _verify_numbers(monkeypatch, alg, 2)
    assert {type(x) for x in numbers} == {int}
    caches = []

    class Recorded(ope.OperatorCache):
        def __init__(self, alg):
            super().__init__(alg)
            caches.append(self)

    monkeypatch.setattr(ope, "OperatorCache", Recorded)
    verify_axioms(alg, 2)
    assert any(p % 2 for ops in caches for _, p, _ in ops._modes)
    degrees = [d for d, _ in _grouped_basis(alg, 3)]
    assert degrees == list(range(7))
    real = [alg.from_units(d) for d in degrees]
    assert real == [0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    assert [type(d) for d in real[::2]] == [int] * 4
    assert type(alg.weight(0)) is int
    assert type(alg.generators[0].weight) is Fraction
    assert alg.sector_energy(1) == Fraction(1, 2)
    assert type(alg.sector_energy(2)) is int
    assert alg.scaled_energy(1) == 1


def test_odd_lattice_modes_enter_the_cache_in_half_units():
    inst = get_preset("lattice:1")
    alg = inst.algebra
    ops = ope.OperatorCache(alg)
    assert alg.to_units(Fraction(3, 2)) == 3 and alg.to_units(-2) == -4
    assert alg.to_units(Fraction(1, 3)) is None
    A, b = State.vacuum(1), inst.gen_state("b")
    x = ops.field(A)
    for p in (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)):
        for v in (State.vacuum(), State.vacuum(-1), b):
            assert state_field_mode(alg, A, p, v) == \
                ops.apply(x, alg.to_units(p), v)
    assert not state_field_mode(alg, A, Fraction(-1, 2),
                                State.vacuum()).is_zero
    # a mode off the grid of 1/2 acts by zero
    assert state_field_mode(alg, A, Fraction(1, 3), State.vacuum()).is_zero
    # a real Fraction mode is refused where the recursion reaches a vertex
    # operator, a generator or a composite word, not read as units
    vac, = State.vacuum().terms
    bb = inst.state([("b", -1), ("b", -1)])
    for X in (A, b, bb):
        for bad in (Fraction(-1, 2), Fraction(-2)):
            fresh = ope.OperatorCache(alg)
            with pytest.raises(TypeError):
                fresh.col(fresh.field(X), bad, vac)


def test_singular_part_reads_through_a_given_cache(monkeypatch):
    # the locality check passes its cache, so N costs no mode that the
    # translation check computed; a one-term state with coefficient 1 gets
    # the cached column itself
    from voa import fields
    heis = get_preset("heisenberg", lam=0)
    alg, omega = heis.algebra, heis.conformal
    ops = ope.OperatorCache(alg)
    poles = singular_part(alg, omega, omega, ops)
    assert poles == singular_part(alg, omega, omega)
    raw = fields._field_mode_raw
    calls = []

    def counted(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(fields, "_field_mode_raw", counted)
    assert singular_part(alg, omega, omega, ops) == poles
    assert calls == []
    x, (m,) = ops.field(omega), omega.terms
    assert ops.apply(x, 1, State.monomial(m)) is ops.col(x, 1, m)


# The two JSON algebras below have generators of half-integral weight but
# integral modes, so no state has its generator's weight: the algebra is
# refused before any check runs.
@pytest.mark.parametrize("doc, message", [
    ({"name": "nsf",
      "generators": [{"name": "psi", "weight2": 1, "parity": "odd"}],
      "bracket": [{"lhs": "psi", "rhs": "psi",
                   "central": {"param": "1", "coeff": "1"}}]},
     "generator 'psi' has non-integral weight 1/2"),
    ({"name": "half", "generators": [{"name": "x", "weight2": 3}]},
     "generator 'x' has non-integral weight 3/2"),
], ids=["nsf", "half"])
def test_half_weight_json_algebra_is_refused(doc, message):
    with pytest.raises(ValueError) as exc:
        algebra_from_json(doc)
    assert str(exc.value) == message


def test_coset_commutative_is_everything():
    inst = get_preset("commutative")
    alg = inst.algebra
    gens = [s for _, s in inst.generator_states()]
    for d in range(4):
        assert len(coset_graded(alg, gens, d)) == graded_dim(alg, d)
    # every field of a commutative vertex algebra is regular, also the
    # two-term parametric x(-2)|0> + k x(-1)^2|0>
    A = (normal_order(alg, [("x", -2)])
         + normal_order(alg, [("x", -1), ("x", -1)]).scale(Scalar.param("k")))
    assert len(A.terms) == 2
    dims = [len(coset_graded(alg, [A], d)) for d in range(5)]
    assert dims == [graded_dim(alg, d) for d in range(5)] == [1, 1, 2, 3, 5]


def _partitions_min_part(d, smallest):
    """Number of partitions of d into parts >= smallest (a hand oracle)."""
    if d == 0:
        return 1
    return sum(_partitions_min_part(d - part, part)
               for part in range(smallest, d + 1))


def _center_dims(name, level, degrees):
    inst = get_preset(name, level=level)
    currents = [s for _, s in inst.generator_states()]
    return [len(coset_graded(inst.algebra, currents, d)) for d in degrees]


def test_feigin_frenkel_center_critical_sl2():
    # At the critical level k = -2 the center of V_k(sl2) is the polynomial
    # algebra on the Segal-Sugawara modes S_{-2}, S_{-3}, ... (Feigin-Frenkel
    # 1992): its degree-d piece has one vector per partition of d into parts
    # >= 2.  The dense elimination took about 27 s for d = 2..6.
    degrees = range(2, 8)
    t0 = time.monotonic()
    dims = _center_dims("affine:sl2", -2, degrees)
    dt = time.monotonic() - t0
    assert dims == [_partitions_min_part(d, 2) for d in degrees]
    assert dims == [1, 1, 2, 2, 4, 4]
    assert dt < 10, f"center of V_-2(sl2), d = 2..7, took {dt:.1f} s"


def test_center_generic_sl2_trivial():
    # away from the critical level the center of V_k(sl2) is C|0>; the dense
    # elimination took about 8 s for d = 1..5
    t0 = time.monotonic()
    dims = _center_dims("affine:sl2", None, range(1, 6))
    dt = time.monotonic() - t0
    assert dims == [0] * 5
    assert dt < 4, f"center of V_k(sl2), d = 1..5, took {dt:.1f} s"


def test_feigin_frenkel_center_critical_sl3():
    # at k = -3 the center of V_k(sl3) is generated by Segal-Sugawara vectors
    # of degrees 2 and 3; the dense elimination took about 11 s for d = 2, 3
    t0 = time.monotonic()
    dims = _center_dims("affine:sl3", -3, (2, 3))
    dt = time.monotonic() - t0
    assert dims == [1, 2]
    assert dt < 5, f"center of V_-3(sl3), d = 2, 3, took {dt:.1f} s"


def test_coset_heisenberg_center_trivial(heis):
    alg = heis.algebra
    gens = [s for _, s in heis.generator_states()]
    assert len(coset_graded(alg, gens, 0)) == 1
    for d in range(1, 4):
        assert len(coset_graded(alg, gens, d)) == 0
