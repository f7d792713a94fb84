"""Tests for state fields, reconstruction, and the translation operator."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from voa import (PbwMonomial, State, algebra_from_json, apply_mode,
                 basis_monomials, get_preset, lattice_vertex_op,
                 state_field_mode, translate)
from voa import fields


@pytest.fixture(scope="module")
def heis():
    return get_preset("heisenberg", lam=0)


@pytest.fixture(scope="module")
def vir():
    return get_preset("virasoro")


def _basis_states(alg, D, sectors=(0,)):
    out = []
    for d in range(D + 1):
        for s in sectors:
            out.extend(State.monomial(m) for m in basis_monomials(alg, d, s))
    return out


# -- gbinom -----------------------------------------------------------------

def _falling_over_factorial(a, k):
    """C(a, k) as a (a-1) ... (a-k+1) / k!, all in Fractions."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a) - i
    return num / factorial(k)


# (a, k, C(a, k)) worked out by hand, the negative ones included
GBINOM_HAND = [(0, 0, 1), (5, 2, 10), (3, 5, 0), (6, 6, 1), (-1, 3, -1),
               (-1, 4, 1), (-2, 3, -4), (-3, 2, 6), (-6, 3, -56),
               (-4, 0, 1), (Fraction(1, 2), 2, Fraction(-1, 8)),
               (Fraction(-1, 2), 3, Fraction(-5, 16))]


def _gbinom_mismatch(binom):
    """First (a, k) where binom disagrees with the oracles, else None."""
    for a, k, want in GBINOM_HAND:
        if binom(a, k) != want:
            return a, k
    for a in range(-6, 7):
        for k in range(7):
            got = binom(a, k)
            if type(got) is not int or got != _falling_over_factorial(a, k):
                return a, k
            if a >= 0 and got != comb(a, k):
                return a, k
    for twice in range(-13, 13, 2):
        a = Fraction(twice, 2)
        for k in range(7):
            if binom(a, k) != _falling_over_factorial(a, k):
                return a, k
    return None


def test_gbinom_against_hand_values_and_product():
    assert _gbinom_mismatch(fields.gbinom) is None
    for a in (0, 3, -2, Fraction(5, 2), Fraction(-3, 2)):
        assert fields.gbinom(a, -1) == 0
    assert type(fields.gbinom(Fraction(1, 2), 3)) is Fraction


def test_gbinom_oracle_negative_control():
    # the upper negation with its sign (-1)^k dropped must be caught
    def unsigned(a, k):
        if type(a) is int and a < 0 and k >= 0:
            return comb(k - a - 1, k)
        return fields.gbinom(a, k)

    assert _gbinom_mismatch(unsigned) == (-1, 3)


# (preset, generator, mode n, coefficient of g_m in Y(g(n)|0>)_[m]): the
# field of g(n)|0> is d^j g / j! with j = -n - wt g, written out by hand.
DERIVATIVE_FIELDS = [
    ("heisenberg", "b", -1, lambda m: 1),
    ("heisenberg", "b", -2, lambda m: -m - 1),
    ("heisenberg", "b", -3, lambda m: Fraction((m + 1) * (m + 2), 2)),
    ("fermion", "psi*", 0, lambda m: 1),
    ("fermion", "psi*", -1, lambda m: -m),
    ("fermion", "psi*", -2, lambda m: Fraction(m * (m + 1), 2)),
]


def test_generator_field_matches_mode_action():
    for name, gen, n, coeff in DERIVATIVE_FIELDS:
        inst = get_preset(name)
        alg = inst.algebra
        g = alg.gen_index(gen)
        A = inst.state([(gen, n)])
        for v in _basis_states(alg, 3):
            for m in range(-3, 4):
                assert state_field_mode(alg, A, m, v) == \
                    apply_mode(alg, g, m, v).scale(coeff(m))


# (preset, word g(n) h(-wt h), coefficient of g_k in Y(g(n)|0>)_[k], sign
# of moving g past h): Y(A)_[m] = sum_{k+l=m} c(k) :g_k h_l:, where
# :g_k h_l: = g_k h_l for k < 0 and sign * h_l g_k for k >= 0.
NORMAL_PRODUCTS = [
    ("heisenberg", [("b", -2), ("b", -1)], lambda k: -k - 1, 1),
    ("fermion", [("psi", -1), ("psi*", 0)], lambda k: 1, -1),
]


@pytest.mark.parametrize("name,word,coeff,sign", NORMAL_PRODUCTS,
                         ids=["db-b", "psi-psi*"])
def test_normal_product_of_two_generators(name, word, coeff, sign):
    inst = get_preset(name)
    alg = inst.algebra
    g, h = (alg.gen_index(gen) for gen, _ in word)
    A = inst.state(word)
    for v in _basis_states(alg, 3):
        d = int(alg.mono_degree(next(iter(v.terms))))
        for m in range(-4, 4):
            expect = State.zero()
            for k in range(min(m - d, 0), d + 1):
                if k < 0:
                    term = apply_mode(alg, g, k, apply_mode(alg, h, m - k, v))
                else:
                    term = apply_mode(alg, h, m - k, apply_mode(alg, g, k, v))
                    term = term.scale(sign)
                expect = expect + term.scale(coeff(k))
            assert state_field_mode(alg, A, m, v) == expect


def test_annihilation_mode_in_word_raises(heis):
    alg = heis.algebra
    b = alg.gen_index("b")
    vac = State.vacuum()
    for word in (((b, 1),), ((b, -1), (b, 1))):
        A = State.monomial(PbwMonomial(0, word))
        with pytest.raises(ValueError, match="annihilation mode"):
            state_field_mode(alg, A, -1, vac)


def test_vacuum_field_is_identity(heis, vir):
    for inst in (heis, vir):
        alg = inst.algebra
        vac = State.vacuum()
        for v in _basis_states(alg, 3):
            assert state_field_mode(alg, vac, 0, v) == v
            assert state_field_mode(alg, vac, 1, v).is_zero
            assert state_field_mode(alg, vac, -1, v).is_zero


def test_creation_axiom_constant_term(vir):
    # Y(A, z)|0> is regular at z = 0 with constant term A.
    alg = vir.algebra
    vac = State.vacuum()
    for A in _basis_states(alg, 4):
        d = alg.mono_degree(next(iter(A.terms)))
        assert state_field_mode(alg, A, -d, vac) == A
        for p in range(int(-d) + 1, int(-d) + 4):
            assert state_field_mode(alg, A, p, vac).is_zero


def test_translate_heisenberg_modes(heis):
    alg = heis.algebra
    # T b(-n)|0> = n b(-n-1)|0>
    for n in range(1, 5):
        v = heis.state([("b", -n)])
        assert translate(alg, v) == heis.state([("b", -n - 1)]).scale(n)
    assert translate(alg, State.vacuum()).is_zero


def test_translate_is_conformal_minus_one_mode(vir):
    alg = vir.algebra
    omega = vir.conformal
    for v in _basis_states(alg, 4):
        assert translate(alg, v) == state_field_mode(alg, omega, -1, v)


def test_conformal_zero_mode_grades(heis):
    alg = heis.algebra
    omega = heis.conformal
    for d in range(5):
        for m in basis_monomials(alg, d, 0):
            v = State.monomial(m)
            assert state_field_mode(alg, omega, 0, v) == v.scale(d)


def test_composite_field_virasoro_bracket(vir):
    # omega_[m] acts as L_m: check on L(-2)L(-2)|0>.
    alg = vir.algebra
    omega = vir.conformal
    v = vir.state([("L", -2), ("L", -2)])
    L = alg.gen_index("L")
    for m in range(-2, 4):
        assert state_field_mode(alg, omega, m, v) == apply_mode(alg, L, m, v)


def test_fermion_field_anticommutes():
    inst = get_preset("fermion")
    alg = inst.algebra
    psi = inst.gen_state("psi")
    star = inst.gen_state("psi*")
    v = inst.state([("psi", -2), ("psi*", -1)])
    for p in range(-2, 3):
        for q in range(-2, 3):
            lhs = state_field_mode(alg, psi, p,
                                   state_field_mode(alg, star, q, v))
            rhs = state_field_mode(alg, star, q,
                                   state_field_mode(alg, psi, p, v))
            anti = lhs + rhs
            expect = v if p + q == 0 else State.zero()
            assert anti == expect


def test_lattice_vertex_operator_shifts_sector():
    inst = get_preset("lattice:1")
    alg = inst.algebra
    vac = State.vacuum()
    coeffs = lattice_vertex_op(inst, 1, range(-3, 3), vac)
    # Y(1_1, z)|0> = e^{...} z^{...} 1_1: the constant term is the shifted
    # vacuum itself and no singular term appears.
    nonzero = {e: s for e, s in coeffs.items() if not s.is_zero}
    assert State.vacuum(1) in nonzero.values()
    for e, s in nonzero.items():
        for mono in s.terms:
            assert mono.sector == 1


@pytest.mark.parametrize("name, sectors", [
    ("heisenberg", (0,)), ("affine:sl2", (0,)), ("lattice:1", (0, 1, -1)),
    ("lattice:3", (0, 1, -1))])
def test_coeff_matches_state_field_mode(name, sectors):
    # the coefficient of z^e in Y(X, z) v, read through one held cache, is
    # the one-shot mode X_[p] v at p = -e - deg X; on the odd lattices the
    # odd sectors give half-integral degrees and modes
    inst = get_preset(name)
    alg = inst.algebra
    X_states = [A for _, A in inst.generator_states()]
    X_states += [State.vacuum(s) for s in sectors if s]
    names = {spec.name for spec in alg.generators}
    X_states += [inst.state([(g, -1)], s) for g in ("b", "e") if g in names
                 for s in sectors if s]
    if inst.conformal is not None:
        X_states.append(inst.conformal)
    targets = [State.monomial(m) for twice in range(5) for s in sectors
               for m in basis_monomials(alg, Fraction(twice, 2), s)]
    ops = fields.OperatorCache(alg)
    for X in X_states:
        x, d = ops.field(X), X.degree(alg)
        for v in targets:
            for e in range(-4, 3):
                assert ops.coeff(x, e, v) == \
                    state_field_mode(alg, X, -e - d, v), (X, v, e)


def test_commutative_field_has_no_singular_part():
    inst = get_preset("commutative")
    alg = inst.algebra
    x = inst.gen_state("x")
    for v in _basis_states(alg, 3):
        for p in range(1, 4):
            assert state_field_mode(alg, x, p, v).is_zero


# -- lattice vertex operators against the partition expansion -------------

def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for tail in _partitions(n - part, part):
            yield (part,) + tail


def _exp_terms(lam_N, degree, creation):
    """(coefficient, modes) of the degree-`degree` part of
    exp(lam_N sum_n b_{-n} z^n / n) (creation) or
    exp(-lam_N sum_n b_n z^-n / n): prod (+-lam_N/n)^k / k! per partition."""
    for part in _partitions(degree):
        coeff, modes = Fraction(1), []
        for n, k in Counter(part).items():
            coeff *= Fraction(lam_N if creation else -lam_N, n) ** k \
                / factorial(k)
            modes += [-n if creation else n] * k
        yield coeff, modes


def _vertex_mode_oracle(alg, m, p, mono):
    """Y(1_m)_[p] mono, one chain of apply_mode per pair of partitions."""
    lam_N, b = m * alg.lattice_N, alg.charge_gen
    d = int(alg.mono_degree(mono) - alg.sector_energy(mono.sector))
    shift = p + alg.sector_energy(m) + lam_N * mono.sector
    out = State.zero()
    for j in range(d + 1):
        k = j - shift
        if k < 0 or k.denominator != 1:
            continue
        for cb, bmodes in _exp_terms(lam_N, j, False):
            mid = State.monomial(mono)
            for n in bmodes:
                mid = apply_mode(alg, b, n, mid)
            mid = State({PbwMonomial(x.sector + m, x.word): c
                         for x, c in mid.terms.items()})
            for ca, amodes in _exp_terms(lam_N, int(k), True):
                res = mid
                for n in amodes:
                    res = apply_mode(alg, b, n, res)
                out = out + res.scale(cb * ca)
    return out


def _vertex_mode_mismatch(alg, charges=(1, -1, 2, -2, 3), top=5,
                          sectors=range(-2, 3)):
    """First (m, p, mono) where vertex_mode differs from the oracle.

    Monomials run over degrees <= top in the given sectors, and p over
    every mode in the right coset from the largest that can give a nonzero
    result (one above it as well) down through 5 creation layers;
    vertex_mode takes p in units of 1/u.
    """
    step = Fraction(1, alg.unit)
    monos = [mono for i in range(int(top / step) + 1)
             for s in sectors for mono in basis_monomials(alg, i * step, s)]
    for m in charges:
        for mono in monos:
            d = alg.mono_degree(mono) - alg.sector_energy(mono.sector)
            p_max = d - alg.sector_energy(m) - m * alg.lattice_N * mono.sector
            for i in range(-1, 6):
                p = p_max - i
                got = fields.vertex_mode(alg, m, alg.to_units(p), mono)
                if got != _vertex_mode_oracle(alg, m, p, mono):
                    return m, p, mono
                if i < 0:
                    assert got.is_zero
    return None


def _sector_algebra(kappa="1", extra=None):
    """A boson b with [b_m, b_n] = kappa m delta (not the lattice presets'
    m/N) in the sectors of N = 2; with `extra`, a second generator a of
    weight 1 whose bracket with b is that rule."""
    rules = [{"lhs": "b", "rhs": "b", "central": {"param": kappa,
                                                  "coeff": "m"}}]
    gens = [{"name": "b", "weight2": 2}]
    if extra is not None:
        rules.append(dict(extra, lhs="b", rhs="a"))
        gens.append({"name": "a", "weight2": 2})
    return algebra_from_json({"name": "sectors", "generators": gens,
                              "bracket": rules, "central_params": ["k"],
                              "lattice_N": 2, "charge_gen": "b"})


@pytest.mark.parametrize("name", ["lattice:1", "lattice:2", "lattice:3"])
def test_vertex_mode_matches_partition_expansion(name):
    assert _vertex_mode_mismatch(get_preset(name).algebra) is None


def test_vertex_mode_custom_sector_algebra():
    # kappa(n) = n gives c_n = -2m; a central [b_m, a_n] shifts the letters
    # of a second generator as well, with parametric c_n at symbolic k
    assert _vertex_mode_mismatch(_sector_algebra()) is None
    central = {"central": {"param": "1/k", "coeff": "m"}}
    assert _vertex_mode_mismatch(_sector_algebra("k", central),
                                 charges=(1, -1, 2), top=3,
                                 sectors=(-1, 0, 1)) is None


def test_vertex_mode_rejects_non_central_bracket():
    alg = _sector_algebra(extra={"terms": [{"gen": "a", "coeff": "1"}]})
    with pytest.raises(ValueError, match=r"^no lattice vertex operator in "
                       r"'sectors': \[b, a\] is not central$"):
        fields.vertex_mode(alg, 1, 0, PbwMonomial(0, ()))
    with pytest.raises(ValueError, match="is not central"):
        state_field_mode(alg, State.vacuum(1), 0, State.vacuum())


def test_vertex_mode_oracle_negative_control(monkeypatch):
    # two mutations of the product formulas, each of which the comparison
    # above must see: the sign of c_n flipped, and E+ without its 1/z_lambda
    annihilation, creation = fields._annihilation_terms, fields._creation_terms

    def flipped(alg, lam_N, word):
        return [(kept, j, c * (-1) ** (len(word) - len(kept)))
                for kept, j, c in annihilation(alg, lam_N, word)]

    def without_z(alg, lam_N, k):
        return [(letters, lam_N ** len(letters) * factorial(k))
                for letters, _ in creation(alg, lam_N, k)]

    for name, mutant in (("_annihilation_terms", flipped),
                         ("_creation_terms", without_z)):
        with monkeypatch.context() as patch:
            patch.setattr(fields, name, mutant)
            alg = get_preset("lattice:1").algebra
            assert _vertex_mode_mismatch(alg, charges=(1,), top=2,
                                         sectors=(0,)) is not None
