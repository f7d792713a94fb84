from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voa import PRESET_NAMES, get_preset, verify_axioms
from voa.scalars import Scalar, parse_scalar
from voa.fock import (
    ModeAlgebra, GeneratorSpec, BracketRule, BracketTerm, CentralTerm,
    PbwMonomial, State, normal_order, apply_mode, graded_dim,
    basis_monomials, all_sector_monomials, render_monomial, render_state,
    algebra_to_json, algebra_from_json, UnknownGenerator, SectorMismatch,
)


def P(text):
    s = parse_scalar(text)
    assert s.den.is_constant
    return s.num


@pytest.fixture
def heis():
    return ModeAlgebra(
        "heisenberg", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(), P("m")))})


@pytest.fixture
def vir():
    return ModeAlgebra(
        "virasoro", [GeneratorSpec("L", Fraction(2))],
        {(0, 0): BracketRule((BracketTerm(0, P("m-n")),),
                             CentralTerm(Scalar.param("c"), P("(m^3-m)/12")))},
        central_params=("c",), vacuum_symbol="|0>")


@pytest.fixture
def ferm():
    return ModeAlgebra(
        "fermion",
        [GeneratorSpec("psi", Fraction(1), True),
         GeneratorSpec("psi*", Fraction(0), True)],
        {(0, 1): BracketRule((), CentralTerm(Scalar.one(), P("1")))})


@pytest.fixture
def lat():
    return ModeAlgebra(
        "lattice:1", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.one(), P("m")))},
        lattice_N=1, charge_gen=0)


# Oracle: partition numbers p(n), and partitions into parts >= 2.
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
PARTITIONS_GE2 = [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]


class TestGradedDims:
    def test_heisenberg_partitions(self, heis):
        assert [graded_dim(heis, d) for d in range(11)] == PARTITIONS

    def test_virasoro_parts_ge2(self, vir):
        assert [graded_dim(vir, d) for d in range(11)] == PARTITIONS_GE2

    def test_fermion_dims(self, ferm):
        # prod_{n>=1}(1+q^n) for psi, prod_{n>=0}(1+q^n) for psi*
        def oracle(deg):
            series = [1] + [0] * deg
            for n in range(1, deg + 1):          # psi_{-n}
                for d in range(deg, n - 1, -1):
                    series[d] += series[d - n]
            for n in range(0, deg + 1):          # psi*_{-n}, n=0 doubles
                if n == 0:
                    series = [2 * x for x in series]
                else:
                    for d in range(deg, n - 1, -1):
                        series[d] += series[d - n]
            return series[deg]
        for d in range(7):
            assert graded_dim(ferm, d) == oracle(d)

    def test_lattice_sector_energies(self, lat):
        assert lat.sector_energy(1) == Fraction(1, 2)
        assert lat.sector_energy(-2) == 2
        assert lat.sector_parity(1) == 1
        assert lat.sector_parity(2) == 0
        assert [m.sector for m in basis_monomials(lat, Fraction(1, 2), 1)] == [1]


class TestBrackets:
    def test_heisenberg_pairing(self, heis):
        v = normal_order(heis, [("b", 1), ("b", -1)])
        assert v == State.vacuum()
        v = normal_order(heis, [("b", 2), ("b", -1)])
        assert v.is_zero
        v = normal_order(heis, [("b", 2), ("b", -2)])
        assert v == State.vacuum().scale(2)

    def test_heisenberg_two_step(self, heis):
        # b_1 b_{-1}^2 |0> = 2 b_{-1} |0>
        v = normal_order(heis, [("b", 1), ("b", -1), ("b", -1)])
        b = heis.gen_index("b")
        assert v == State.monomial(PbwMonomial(0, ((b, -1),)), 2)

    def test_virasoro_central(self, vir):
        # L_2 L_{-2} |0> = (c/2) |0>
        v = normal_order(vir, [("L", 2), ("L", -2)])
        assert v == State.vacuum().scale(Scalar.param("c") * Fraction(1, 2))
        # L_1 L_{-1} |0> = 0 since L_{-1}|0> = 0
        assert normal_order(vir, [("L", 1), ("L", -1)]).is_zero

    def test_virasoro_commutator(self, vir):
        # [L_3, L_{-2}] = 5 L_1 + (c/12)*(27-3) delta -> on L_{-1}-free states
        terms, central = vir.bracket(0, 3, 0, -2)
        assert central.is_zero
        assert terms == ((0, Scalar.from_fraction(5)),)
        terms, central = vir.bracket(0, 2, 0, -2)
        assert terms == ((0, Scalar.from_fraction(4)),)
        assert central == Scalar.param("c") * Fraction(1, 2)

    def test_skew_symmetry(self, vir, heis):
        t1, c1 = vir.bracket(0, -2, 0, 3)
        assert t1 == ((0, Scalar.from_fraction(-5)),)
        t, c = heis.bracket(0, -1, 0, 1)
        assert c == Scalar.from_fraction(-1)

    def test_fermion_anticommutator(self, ferm):
        # psi_{-1}^2 = 0, {psi_1, psi*_{-1}} = 1
        assert normal_order(ferm, [("psi", -1), ("psi", -1)]).is_zero
        assert normal_order(ferm, [("psi", 1), ("psi*", -1)]) == State.vacuum()
        # odd-odd bracket is symmetric: {psi*_m, psi_n} = {psi_n, psi*_m}
        t, c = ferm.bracket(1, -1, 0, 1)
        assert c == Scalar.one()

    def test_reordering_sign(self, ferm):
        # psi*_0 psi_{-1} |0> = -psi_{-1} psi*_0 |0> (no contraction)
        v = normal_order(ferm, [("psi*", 0), ("psi", -1)])
        mono = PbwMonomial(0, ((0, -1), (1, 0)))
        assert v == State.monomial(mono, -1)

    def test_lattice_zero_mode(self, lat):
        v = normal_order(lat, [("b", 0)], sector=3)
        assert v == State.vacuum(3).scale(3)
        assert normal_order(lat, [("b", 0)], sector=0).is_zero

    def test_shift_requires_sectors(self, heis):
        with pytest.raises(SectorMismatch):
            normal_order(heis, [("S", 1)])

    def test_unknown_generator(self, heis):
        with pytest.raises(UnknownGenerator):
            normal_order(heis, [("a", -1)])


class TestJacobi:
    def check_jacobi(self, alg, triples):
        # [x_m,[y_n,z_p]] = [[x_m,y_n],z_p] +- [y_n,[x_m,z_p]] on states
        for (gx, m), (gy, n), (gz, p) in triples:
            for mono in basis_monomials(alg, 3):
                s = State.monomial(mono)
                def act(g, q, st):
                    return apply_mode(alg, alg.gen_index(g), q, st)
                lhs = act(gx, m, act(gy, n, act(gz, p, s))) \
                    - act(gy, n, act(gx, m, act(gz, p, s))).scale(
                        -1 if alg.odd(alg.gen_index(gx)) and alg.odd(alg.gen_index(gy)) else 1)
                # lhs = [x_m, y_n] z_p s computed via structure constants
                terms, central = alg.bracket(alg.gen_index(gx), m, alg.gen_index(gy), n)
                rhs = act(gz, p, s).scale(central)
                for tg, sc in terms:
                    rhs = rhs + apply_mode(alg, tg, m + n, act(gz, p, s)).scale(sc)
                assert lhs == rhs, (gx, m, gy, n, gz, p)

    def test_virasoro(self, vir):
        triples = [(("L", a), ("L", b), ("L", c))
                   for a in (-2, 1, 2) for b in (-3, -1, 2) for c in (-2, 0)]
        self.check_jacobi(vir, triples)

    def test_fermion(self, ferm):
        triples = [(("psi", a), ("psi*", b), ("psi", c))
                   for a in (-1, 1) for b in (0, -1, 1) for c in (-2, -1)]
        self.check_jacobi(ferm, triples)


class TestRendering:
    def test_monomial(self, heis):
        m = PbwMonomial(0, ((0, -2), (0, -2), (0, -1)))
        assert render_monomial(heis, m) == "b(-2)^2 b(-1) |0>"

    def test_state(self, vir):
        v = normal_order(vir, [("L", 2), ("L", -2)])
        assert render_state(vir, v) == "(c/2) |0>"

    def test_sector_vacuum(self, lat):
        assert render_monomial(lat, PbwMonomial(2, ())) == "1_{2,1}"


class TestJson:
    def test_roundtrip(self, vir):
        doc = algebra_to_json(vir)
        alg2 = algebra_from_json(doc)
        assert [g.name for g in alg2.generators] == ["L"]
        v = normal_order(alg2, [("L", 2), ("L", -2)])
        assert render_state(alg2, v) == "(c/2) |0>"
        assert algebra_to_json(alg2)["bracket"] == doc["bracket"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_roundtrip(self, name):
        alg = get_preset(name).algebra
        alg2 = algebra_from_json(algebra_to_json(alg))
        window = range(-2, 3)
        gens = range(len(alg.generators))
        for i in gens:
            for j in gens:
                for m in window:
                    for n in window:
                        assert alg2.bracket(i, m, j, n) == \
                            alg.bracket(i, m, j, n)
        assert alg2.vacuum_symbol == alg.vacuum_symbol
        step = Fraction(1, alg.grading_denominator)
        for k in range(4 * alg.grading_denominator + 1):
            assert len(all_sector_monomials(alg2, k * step)) == \
                len(all_sector_monomials(alg, k * step))
        assert verify_axioms(alg2, 2).passed and verify_axioms(alg, 2).passed

    def test_lattice_fields(self, lat):
        doc = algebra_to_json(lat)
        alg2 = algebra_from_json(doc)
        assert alg2.lattice_N == 1 and alg2.charge_gen == 0

    @pytest.mark.parametrize("weight2, shown", [(-2, "-1"), (-1, "-1/2")])
    def test_negative_weight_is_refused(self, weight2, shown):
        # x(1) and x(0) of a weight -1 generator would count as creation
        # modes that basis_monomials never enumerates
        doc = {"generators": [{"name": "x", "weight2": weight2}],
               "bracket": []}
        with pytest.raises(ValueError, match=rf"^generator 'x' has negative "
                                             rf"weight {shown}$"):
            algebra_from_json(doc)


# ---------------------------------------------------------------------------
# State.sum against the left fold of State.__add__ and State.scale
# ---------------------------------------------------------------------------

_MONOS = [PbwMonomial(0, ((0, -n),)) for n in range(1, 5)]
_TERM_VALUES = [1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4),
                Fraction(5, 6), "k", "1/(k+1)", "k/2"]
_COEFFS = [0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(1, 3),
           Fraction(-1, 4), Fraction(1, 6), Fraction(4, 2), "k", "k/3"]


def _scalar(v):
    return parse_scalar(v) if isinstance(v, str) else Scalar.from_fraction(v)


def _fold(pairs):
    """The oracle: add the scaled states one after the other."""
    out = State()
    for state, c in pairs:
        out = out + state.scale(c)
    return out


def _state(items):
    """State of (monomial index, value) items; repeated indices add up."""
    return _fold([(State.monomial(_MONOS[i], _scalar(v)), 1)
                  for i, v in items])


def _assert_sum_is_fold(pairs):
    got, want = State.sum(pairs), _fold(pairs)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(v._frac) for v in got.terms.values()] == \
        [type(v._frac) for v in want.terms.values()]


_states = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_TERM_VALUES)),
                   max_size=4).map(_state)
_coeffs = st.sampled_from(_COEFFS).flatmap(
    lambda c: st.sampled_from([c, _scalar(c)] if not isinstance(c, str)
                              else [_scalar(c)]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_states, _coeffs), max_size=8))
def test_state_sum_is_left_fold(pairs):
    _assert_sum_is_fold(pairs)


def _mono_state(*values):
    """State with values[i] on monomial i, skipping None entries."""
    return State({_MONOS[i]: _scalar(v) for i, v in enumerate(values)
                  if v is not None})


@pytest.mark.parametrize("pairs", [
    # rescales mid-sum: 1/2, 1/3, 1/4, 1/6 of an int state
    [(_mono_state(1, 2), Fraction(1, 2)), (_mono_state(1, 2), Fraction(1, 3)),
     (_mono_state(1, 2), Fraction(1, 4)), (_mono_state(3, 1), Fraction(1, 6))],
    # a term cancels to 0 and comes back at the end; the sum is integral
    [(_mono_state(1), Fraction(1, 2)), (_mono_state(1), Fraction(-1, 2)),
     (_mono_state(None, 1), 1), (_mono_state(1), Fraction(1, 3)),
     (_mono_state(1), Fraction(2, 3))],
    # a parametric coefficient after the switch
    [(_mono_state(1), Fraction(1, 2)), (_mono_state(None, 1), Scalar.param("k")),
     (_mono_state(1, 1), Fraction(1, 3))],
    # a parametric term inside a state after the switch
    [(_mono_state(Fraction(1, 3)), 1),
     (_mono_state(Fraction(2, 3), "k", 1, Fraction(1, 5)), 1),
     (_mono_state(1), Fraction(1, 2))],
    # a parametric partial sum meets a non-integral coefficient
    [(_mono_state("k"), 1), (_mono_state(1, 1), Fraction(1, 2))],
    # a Fraction coefficient on an int state, and zero coefficients
    [(_mono_state(1, 2), 0), (_mono_state(2), Fraction(3, 4)),
     (_mono_state(1, 2), Fraction(0)), (_mono_state(1), Scalar.zero()),
     (_mono_state(2, 1), Scalar.from_fraction(Fraction(5, 4)))],
    # a parametric entry stays put while the denominator grows to 6
    [(_mono_state("k", 1), 1), (_mono_state(None, 1), Fraction(1, 2)),
     (_mono_state(None, 1), Fraction(1, 3)), (_mono_state(1, 1), Fraction(1, 6)),
     (_mono_state(None, None, 1), Fraction(1, 3))],
    # a parametric entry cancels and comes back as a rational
    [(_mono_state(1, "k"), Fraction(1, 2)),
     (_mono_state(None, "k"), Fraction(-1, 2)),
     (_mono_state(None, 1), Fraction(1, 3)), (_mono_state(1, 1), Fraction(1, 2))],
    # k + (1 - k) leaves the rational 1 in a parametric entry
    [(_mono_state("k"), 1), (_mono_state(1), 1), (_mono_state("k"), -1),
     (_mono_state(Fraction(1, 2)), 1), (_mono_state(None, 1), Fraction(1, 2))],
])
def test_state_sum_integer_loop_cases(pairs):
    # numerators over a running denominator, with parametric entries mixed in
    _assert_sum_is_fold(pairs)


def test_empty_state_is_shared():
    # a sum with no term left, a zero scale and State.zero() are one object,
    # which nothing changes in place
    zero = State.zero()
    assert State.sum([]) is zero
    assert State.sum([(_mono_state(1), 1), (_mono_state(1), -1)]) is zero
    assert _mono_state(1, 2).scale(0) is zero
    assert State.monomial(_MONOS[0], 0) is zero
    assert (zero + _mono_state(1)) == _mono_state(1)
    assert State.sum([(zero, 1), (_mono_state(1), 2)]) == _mono_state(2)
    assert zero.terms == {} and zero is State.zero()
