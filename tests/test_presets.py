"""Tests for the preset algebra constructors and their structural data."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from voa import (BracketRule, InvalidLieData, LieData, ModeAlgebra,
                 ParamPoint, Scalar, State, boson_fermion_check, get_preset,
                 graded_dim, morphism_check, parse_scalar, singular_part,
                 sl2_data, sl3_data, state_field_mode, sugawara, translate)
from voa import presets
from voa.presets import _matrix_lie, affine, lattice

FIXTURES = Path(__file__).parent / "fixtures"


def test_preset_central_charges():
    assert get_preset("heisenberg").central_charge == \
        parse_scalar("1 - 12*lam^2")
    assert get_preset("heisenberg", lam=Fraction(1, 2)).central_charge == \
        parse_scalar("-2")
    assert get_preset("virasoro").central_charge == Scalar.param("c")
    assert get_preset("fermion").central_charge == parse_scalar("-2")
    assert get_preset("weyl:1").central_charge == parse_scalar("2")
    assert get_preset("lattice:1").central_charge == Scalar.one()
    assert get_preset("lattice:2").central_charge == Scalar.one()
    sl2 = get_preset("affine:sl2").central_charge
    assert sl2 == parse_scalar("3*k/(k+2)")
    assert sl2.evaluate(ParamPoint(k="1")) == Scalar.one()
    sl3 = get_preset("affine:sl3").central_charge
    assert sl3 == parse_scalar("8*k/(k+3)")


def test_lie_data_invariants():
    for lie in (sl2_data(), sl3_data()):
        n = len(lie.basis)
        # symmetric invariant form
        for i in range(n):
            for j in range(n):
                assert lie.form[i][j] == lie.form[j][i]
    assert sl2_data().h_vee == 2
    assert sl3_data().h_vee == 3


def test_lie_data_is_integral_where_it_can_be():
    # integral structure constants and form entries are ints, as Poly
    # coefficients are, also from matrices of Fractions; with the basis
    # e, 2h, f, [e, f] = (1/2) (2h) stays a Fraction
    from_fractions = _matrix_lie("sl2", [("e", _E), ("h", _H), ("f", _F)])
    for lie in (sl2_data(), sl3_data(), from_fractions):
        values = [c for dec in lie.bracket.values() for c in dec.values()]
        values += [x for row in lie.form for x in row]
        assert {type(x) for x in values} == {int}
        assert type(lie.h_vee) is Fraction
    two_h = [[2, 0], [0, -2]]
    lie = _matrix_lie("sl2", [("e", [[0, 1], [0, 0]]), ("h", two_h),
                              ("f", [[0, 0], [1, 0]])])
    assert lie.pair(0, 2) == {1: Fraction(1, 2)}
    assert type(lie.pair(0, 2)[1]) is Fraction
    assert lie.pair(1, 0) == {0: 4} and type(lie.pair(1, 0)[0]) is int
    assert lie.h_vee == 2


def test_sl2_data_against_hand_table():
    # basis e, h, f: [e,f] = h, [h,e] = 2e, [h,f] = -2f, (e,f) = 1, (h,h) = 2
    lie = sl2_data()
    assert lie.basis == ["e", "h", "f"]
    assert lie.bracket == {(0, 2): {1: 1}, (2, 0): {1: -1},
                           (1, 0): {0: 2}, (0, 1): {0: -2},
                           (1, 2): {2: -2}, (2, 1): {2: 2}}
    assert lie.form == [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    assert lie.gram_inverse() == [[0, 0, 1], [0, Fraction(1, 2), 0],
                                  [1, 0, 0]]


def test_sl3_data_spot_entries():
    # e1 = E12, e2 = E23, e3 = E13, f_i their transposes,
    # h1 = E11 - E22, h2 = E22 - E33
    lie = sl3_data()
    e1, e2, e3, f1, f2, f3, h1, h2 = range(8)
    assert lie.pair(e1, e2) == {e3: 1}
    assert lie.pair(e1, f1) == {h1: 1}
    assert lie.pair(e3, f3) == {h1: 1, h2: 1}
    assert lie.pair(f1, f2) == {f3: -1}
    assert lie.pair(h1, e1) == {e1: 2}
    assert lie.pair(h2, e1) == {e1: -1}
    assert lie.pair(h1, h2) == {}
    assert lie.form[e1][f1] == lie.form[e3][f3] == 1
    assert lie.form[h1][h1] == 2 and lie.form[h1][h2] == -1
    assert lie.form[e1][e1] == lie.form[e1][f2] == lie.form[e1][h1] == 0
    # the inverse of the e-f pairing and of the Cartan block [[2,-1],[-1,2]]
    expected = [[0] * 8 for _ in range(8)]
    for e, f in ((e1, f1), (e2, f2), (e3, f3)):
        expected[e][f] = expected[f][e] = 1
    expected[h1][h1] = expected[h2][h2] = Fraction(2, 3)
    expected[h1][h2] = expected[h2][h1] = Fraction(1, 3)
    assert lie.gram_inverse() == expected


def test_gram_inverse_solved_once_and_copied(monkeypatch):
    import voa.presets as presets
    calls = []
    real = presets.kernel_basis

    def counting(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(presets, "kernel_basis", counting)
    lie = sl2_data()
    assert len(calls) == 2          # the bracket, then the form in h_vee
    first = lie.gram_inverse()
    first[1][1] = Fraction(7)
    assert lie.gram_inverse() == [[0, 0, 1], [0, Fraction(1, 2), 0],
                                  [1, 0, 0]]
    assert len(calls) == 2
    del calls[:]
    get_preset("affine:sl2")
    assert len(calls) == 2          # sugawara reuses the solved inverse


_E = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
_H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
_F = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]


def test_matrix_lie_rejects_commutator_outside_span():
    # [e, f] = h is not a combination of e and f
    with pytest.raises(InvalidLieData,
                       match="commutator not in the span of the basis"):
        _matrix_lie("bad", [("e", _E), ("f", _F)])


def test_matrix_lie_rejects_dependent_basis():
    # e and 2e make the structure constants non-unique
    double_e = [[2 * x for x in row] for row in _E]
    with pytest.raises(InvalidLieData,
                       match="basis matrices are linearly dependent"):
        _matrix_lie("bad", [("e", _E), ("h", _H), ("f", _F),
                            ("e2", double_e)])


def _sl2_with(bracket=None, form=None):
    # basis e, h, f: [e,f] = h is the (0, 2) entry, [f,e] = -h the (2, 0)
    lie = sl2_data()
    new_bracket = dict(lie.bracket)
    new_bracket.update(bracket or {})
    return LieData("sl2", lie.basis, new_bracket,
                   form if form is not None else lie.form)


@pytest.mark.parametrize("bracket,form,message", [
    ({(0, 2): {1: Fraction(2)}}, None, "not antisymmetric"),
    ({(0, 2): {1: Fraction(2)}, (2, 0): {1: Fraction(-2)}}, None,
     "form not invariant"),
    (None, [[Fraction(0)] * 3 for _ in range(3)],
     "invariant form is degenerate"),
], ids=["one-sided", "both-sides", "zero-form"])
def test_invalid_lie_data(bracket, form, message):
    assert sl2_data().basis == ["e", "h", "f"]
    with pytest.raises(InvalidLieData, match=message):
        _sl2_with(bracket, form)


def test_conformal_vector_ope_shape_everywhere():
    for name in ("heisenberg", "virasoro", "affine:sl2", "fermion",
                 "weyl:1", "lattice:1", "lattice:2"):
        inst = get_preset(name)
        alg = inst.algebra
        omega = inst.conformal
        table = singular_part(alg, omega, omega)
        assert table.get(3, State.zero()).is_zero
        assert table[4] == State.vacuum().scale(inst.central_charge / 2)
        assert table[2] == omega.scale(2)
        assert table[1] == translate(alg, omega)


def test_sugawara_l2_against_hand_expanded_oracle():
    """The engine value of L_2 on the Sugawara vector for sl2 must equal
    the hand expansion frozen in tests/fixtures/sugawara_sl2_l2_oracle.json,
    which was computed from the affine bracket alone."""
    doc = json.loads(
        (FIXTURES / "sugawara_sl2_l2_oracle.json").read_text())
    A = parse_scalar(doc["normalization_A"])
    casimir = parse_scalar(doc["casimir_coeff"])
    double = parse_scalar(doc["double_central_coeff"])
    k = Scalar.param("k")
    contraction = Scalar.zero()
    for term in doc["contraction_terms"]:
        contraction = contraction + \
            parse_scalar(term["coefficient"]) * parse_scalar(term["form_value"])
    oracle = A * A * (casimir * k + double * k * k) * contraction
    assert oracle == parse_scalar(doc["expected_scalar"])
    assert oracle == parse_scalar("3*k/(2*(k+2))")

    inst = get_preset("affine:sl2")
    alg = inst.algebra
    omega = sugawara(inst)
    assert omega == inst.conformal
    got = state_field_mode(alg, omega, 2, omega)
    assert got == State.vacuum().scale(oracle)


def test_sugawara_at_fixed_level():
    inst = get_preset("affine:sl2", level=1)
    alg = inst.algebra
    omega = inst.conformal
    got = state_field_mode(alg, omega, 2, omega)
    assert got == State.vacuum().scale(Fraction(1, 2))  # c/2 with c = 1


@pytest.mark.parametrize("level", [1, 2, None], ids=["k=1", "k=2", "k"])
@pytest.mark.parametrize("order", ["hef", "ehf"])
def test_sugawara_level_in_any_basis_order(order, level):
    # sugawara reads k from a central term m (x, y) k; with h first that
    # term is the one of (h, h) = 2, which must not halve the level
    mats = {"e": _E, "h": _H, "f": _F}
    inst = affine(_matrix_lie("sl2", [(x, mats[x]) for x in order]), level)
    alg, omega = inst.algebra, inst.conformal
    for _, x in inst.generator_states():
        assert state_field_mode(alg, omega, 0, x) == x      # L_0 x = x
    poles = singular_part(alg, omega, omega)
    assert poles[4] == State.vacuum().scale(inst.central_charge / 2)


def test_sugawara_critical_level_has_no_conformal_vector():
    inst = get_preset("affine:sl2", level=-2)
    assert inst.conformal is None
    assert inst.central_charge is None


def test_lattice_sector_energies():
    for N in (1, 2, 3):
        alg = get_preset(f"lattice:{N}").algebra
        for m in range(-3, 4):
            assert alg.sector_energy(m) == Fraction(m * m * N, 2)


def test_lattice_parity_is_super_iff_odd():
    for N in (1, 2, 3):
        alg = get_preset(f"lattice:{N}").algebra
        assert alg.sector_parity(1) == (N % 2)
        assert alg.sector_parity(2) == 0


def test_graded_dims_match_free_field_counts():
    # heisenberg: partitions; fermion: charged pairs of distinct parts
    heis = get_preset("heisenberg").algebra
    assert [graded_dim(heis, d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    vir = get_preset("virasoro").algebra
    # partitions into parts >= 2
    assert [graded_dim(vir, d) for d in range(8)] == [1, 0, 1, 1, 2, 2, 4, 4]


def test_boson_fermion_check_small():
    report = boson_fermion_check(2)
    assert report.passed
    assert all(nf == nl for _, nf, nl in report.dims)


def test_boson_fermion_check_degree_4():
    report = boson_fermion_check(4)
    assert report.dims == [(0, 2, 2), (1, 4, 4), (2, 6, 6), (3, 12, 12),
                           (4, 18, 18)]
    assert report.mismatch is None and report.passed


def test_boson_fermion_check_negative_control(monkeypatch):
    # the even lattice 2Z in place of Z: the two fermion states of degree
    # 0, |0> and psi*(0) |0>, against the one lattice state of degree 0
    monkeypatch.setattr(presets, "lattice", lambda N: lattice(2))
    report = boson_fermion_check(3)
    assert not report.passed
    assert report.mismatch == "graded dimension at degree 0: 2 != 1"


def test_morphism_check_catches_wrong_psi_image():
    # swapping the two images is no control: 1_m -> 1_{-m} is an automorphism
    falg = get_preset("fermion").algebra
    lalg = get_preset("lattice:1").algebra
    images = [State.vacuum(-1).scale(2), State.vacuum(1)]
    assert morphism_check(falg, lalg, images, 2) == "psi(0) on psi*(0) |0>"
    with pytest.raises(ValueError):
        morphism_check(falg, lalg, images[:1], 2)
    # psi* doubled: the half-integral shifts of the odd lattice reach the
    # images through mode_index
    images = [State.vacuum(-1), State.vacuum(1).scale(2)]
    assert morphism_check(falg, lalg, images, 2) == "psi(0) on psi*(0) |0>"


def test_morphism_check_catches_wrong_sign_and_wrong_source():
    falg = get_preset("fermion").algebra
    lalg = get_preset("lattice:1").algebra
    images = [State.vacuum(-1), State.vacuum(1).scale(-1)]
    assert morphism_check(falg, lalg, images, 3) == "psi(0) on psi*(0) |0>"
    # the fermion corrupted to [psi_m, psi*_n] = 2 delta_{m+n}
    rule = falg.rules[0, 1]
    doubled = BracketRule((), rule.central._replace(
        scalar=Scalar.from_fraction(2)))
    bad = ModeAlgebra("fermion", falg.generators, {(0, 1): doubled})
    images = [State.vacuum(-1), State.vacuum(1)]
    assert morphism_check(bad, lalg, images, 3) == "psi(0) on psi*(0) |0>"


def test_get_preset_unknown():
    with pytest.raises(ValueError):
        get_preset("nope")


@pytest.mark.parametrize("name", ["weyl:0", "weyl:-1", "lattice:0"])
def test_get_preset_rejects_rank_below_one(name):
    with pytest.raises(ValueError, match="rank parameter N must be >= 1"):
        get_preset(name)


@pytest.mark.parametrize("name, message", [
    ("weyl:x", "weyl rank parameter must be an integer, got 'x'"),
    ("lattice:", "lattice rank parameter must be an integer, got ''"),
])
def test_get_preset_rejects_malformed_rank(name, message):
    with pytest.raises(ValueError) as info:
        get_preset(name)
    assert str(info.value) == message
