"""Tests for exact free-boson correlation functions."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from voa import (BracketRule, CentralTerm, ExpansionRegion, GeneratorSpec,
                 ModeAlgebra, PbwMonomial, RationalCorrelator, Scalar, State,
                 bootstrap_verify, consistency_check, expand, get_preset,
                 heisenberg_npoint)
from voa import correlators, fields
from voa.correlators import (Term, VACUUM_PHI, _diagonal_coefficients,
                             _reduce_term, _rename,
                             matrix_element_coefficient, state_insertion,
                             zvar)
from voa.scalars import Poly


def _pole(i, j, mult):
    return RationalCorrelator([Term(Fraction(1), Poly.const(1),
                                    ((i, j, mult),), ())])


def _perfect_matchings(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for pos, j in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1:]
        for m in _perfect_matchings(remaining):
            yield [(first, j)] + m


def _pairing_oracle(n):
    """Sum over perfect matchings of prod 1/(z_i - z_j)^2."""
    out = RationalCorrelator.zero()
    for matching in _perfect_matchings(list(range(1, n + 1))):
        prod = RationalCorrelator.constant(1)
        for i, j in matching:
            prod = prod * _pole(i, j, 2)
        out = out + prod
    return out


def test_two_point():
    f = heisenberg_npoint(VACUUM_PHI, 2)
    assert f == _pole(1, 2, 2)
    assert f.render() == "1/(z1-z2)^2"


@pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_npoint_equals_pairing_formula(n, count):
    matchings = list(_perfect_matchings(list(range(1, n + 1))))
    assert len(matchings) == count  # (2m-1)!!
    assert heisenberg_npoint(VACUUM_PHI, n) == _pairing_oracle(n)


def test_odd_npoint_vanishes():
    for n in (1, 3, 5):
        assert heisenberg_npoint(VACUUM_PHI, n).is_zero


def test_expand_geometric_series():
    f = _pole(1, 2, 2)
    region = ExpansionRegion((zvar(1), zvar(2)))
    coeffs = expand(f, region, 6)
    # 1/(z1-z2)^2 = sum_{k>=0} (k+1) z2^k z1^{-2-k} for |z1| > |z2|
    for k in range(5):
        assert coeffs.get((-2 - k, k)) == k + 1
    # exponent tuples follow the region order, so in |z2| > |z1| the first
    # entry is the z2 exponent: 1/(z1-z2)^2 = sum (k+1) z1^k z2^{-2-k}
    other = ExpansionRegion((zvar(2), zvar(1)))
    coeffs2 = expand(f, other, 6)
    for k in range(5):
        assert coeffs2.get((-2 - k, k)) == k + 1


def test_expand_chain_of_poles_hand_oracle():
    # 1/((z1-z2)(z2-z3)(z3-z4)^2) in |z1| > |z2| > |z3| > |z4|, from the
    # inside out: z4^a comes with (a+1) z3^(-2-a), z3^e3 takes b = e3+2+a
    # geometric terms of 1/(z2-z3), z2^e2 takes c = e2+1+b of 1/(z1-z2),
    # and e1 = -1-c.  The corner (-5, -5, 3, 3) of the box needs b = 8.
    f = RationalCorrelator([Term(Fraction(1), Poly.const(1),
                                 ((1, 2, 1), (2, 3, 1), (3, 4, 2)), ())])
    oracle = {}
    for e1, e2, e3, e4 in product(range(-5, 4), repeat=4):
        a = e4
        b = e3 + 2 + a
        c = e2 + 1 + b
        if min(a, b, c) >= 0 and e1 == -1 - c:
            oracle[(e1, e2, e3, e4)] = a + 1
    assert oracle[(-5, -5, 3, 3)] == 4
    region = ExpansionRegion(tuple(zvar(i) for i in (1, 2, 3, 4)))
    assert expand(f, region, 3) == oracle


@pytest.mark.parametrize("term", [
    Term(Fraction(1), Poly.const(1), ((1, 3, 2),), ()),
    Term(Fraction(1), Poly.const(1), ((1, 2, 2),), ((3, 1),)),
    Term(Fraction(1), Poly.var(zvar(3)), ((1, 2, 2),), ()),
], ids=["pole", "z-power", "numerator"])
def test_expand_rejects_region_missing_a_variable(term):
    region = ExpansionRegion((zvar(1), zvar(2)))
    with pytest.raises(ValueError, match="does not order z3"):
        expand(RationalCorrelator([term]), region, 3)


def test_matrix_element_matches_expansion():
    inst = get_preset("heisenberg", lam=0)
    alg = inst.algebra
    b = inst.gen_state("b")
    states = [b, b]
    f = heisenberg_npoint(VACUUM_PHI, 2)
    region = ExpansionRegion((zvar(1), zvar(2)))
    coeffs = expand(f, region, 8)
    for e1 in range(-4, 2):
        for e2 in range(-4, 2):
            direct = matrix_element_coefficient(alg, states, VACUUM_PHI,
                                                (e1, e2), region)
            assert direct == coeffs.get((e1, e2), Fraction(0))


def test_state_insertion_descriptors():
    inst = get_preset("heisenberg", lam=0)
    assert state_insertion(inst.algebra, State.vacuum()) is None
    assert state_insertion(inst.algebra, inst.state([("b", -1)])) == 0
    assert state_insertion(inst.algebra, inst.state([("b", -3)])) == 2
    with pytest.raises(ValueError):
        state_insertion(inst.algebra,
                        inst.state([("b", -1), ("b", -1)]))


def test_consistency_all_regions_n3():
    inst = get_preset("heisenberg", lam=0)
    alg = inst.algebra
    states = [inst.state([("b", -1)]), inst.state([("b", -2)]),
              inst.state([("b", -1)])]
    regions = [ExpansionRegion(tuple(zvar(i) for i in perm))
               for perm in permutations((1, 2, 3))]
    report = consistency_check(alg, states, VACUUM_PHI, regions, 8)
    assert report.passed, report.render()


def _all_regions(n):
    return [ExpansionRegion(tuple(zvar(i) for i in perm))
            for perm in permutations(range(1, n + 1))]


# b(-1)|0> -> 3/2, b(-2)|0> -> -1: odd point counts no longer vanish
ONE_BOSON_PHI = {PbwMonomial(0, ((0, -1),)): Fraction(3, 2),
                 PbwMonomial(0, ((0, -2),)): Fraction(-1)}


@pytest.mark.parametrize("phi, any_nonzero", [(VACUUM_PHI, False),
                                              (ONE_BOSON_PHI, True)])
def test_consistency_walk_against_per_tuple_matrix_elements(phi,
                                                            any_nonzero):
    # every window tuple, read one at a time through the per-coefficient
    # path, equals the expansion coefficient consistency_check compares with
    inst = get_preset("heisenberg", lam=0)
    alg = inst.algebra
    states = [inst.state([("b", -1)]), inst.state([("b", -2)]),
              inst.state([("b", -1)])]
    f = heisenberg_npoint(phi, 3, [0, 1, 0])
    regions = _all_regions(3)
    nonzero = 0
    for region in regions:
        coeffs = expand(f, region, 3)
        for e in product(range(-5, 4), repeat=3):
            direct = matrix_element_coefficient(alg, states, phi, e, region)
            key = tuple(e[int(v[1:]) - 1] for v in region.order)
            assert direct == coeffs.get(key, Fraction(0)), (region, e)
            nonzero += bool(direct)
    assert (nonzero > 0) == any_nonzero
    assert consistency_check(alg, states, phi, regions, 8).passed


def _doubled_heisenberg():
    # Heisenberg corrupted to [b_m, b_n] = 2m delta_{m+n}: every direct
    # coefficient doubles per contraction while the expansion does not
    return ModeAlgebra(
        "heisenberg", [GeneratorSpec("b", Fraction(1))],
        {(0, 0): BracketRule((), CentralTerm(Scalar.from_fraction(2),
                                             Poly.var("m")))})


def test_consistency_negative_control_witnesses():
    alg = _doubled_heisenberg()
    b = get_preset("heisenberg", lam=0).state([("b", -1)])
    report = consistency_check(alg, [b] * 2, VACUUM_PHI, _all_regions(2), 8)
    assert report.render() == (
        "consistency: FAIL (region ('z1', 'z2'), exponents (-5, 3): "
        "direct 8 != expansion 4)")
    report = consistency_check(alg, [b] * 2, VACUUM_PHI,
                               _all_regions(2)[::-1], 8, window=2)
    assert report.render() == (
        "consistency: FAIL (region ('z2', 'z1'), exponents (0, -2): "
        "direct 2 != expansion 1)")
    report = consistency_check(alg, [b] * 4, VACUUM_PHI, _all_regions(4), 8)
    assert not report.passed
    assert report.render() == (
        "consistency: FAIL (region ('z1', 'z2', 'z3', 'z4'), exponents "
        "(-5, -5, 3, 3): direct 128 != expansion 32)")


def _order_cases():
    """Criterion 6's n = 2, 3, 4 inputs, three b(-1) under ONE_BOSON_PHI (a
    nonzero odd-point correlator), then the three pinned witnesses."""
    inst = get_preset("heisenberg", lam=0)
    b1, b2 = inst.state([("b", -1)]), inst.state([("b", -2)])
    bad = _doubled_heisenberg()
    return [
        (inst.algebra, [b1] * 2, VACUUM_PHI, _all_regions(2), 3),
        (inst.algebra, [b1, b2, b1], VACUUM_PHI, _all_regions(3), 3),
        (inst.algebra, [b1] * 4, VACUUM_PHI, _all_regions(4), 3),
        (inst.algebra, [b1] * 3, ONE_BOSON_PHI, _all_regions(3), 3),
        (bad, [b1] * 2, VACUUM_PHI, _all_regions(2), 3),
        (bad, [b1] * 2, VACUUM_PHI, _all_regions(2)[::-1], 2),
        (bad, [b1] * 4, VACUUM_PHI, _all_regions(4), 3),
    ]


@pytest.mark.parametrize("case", range(7), ids=[
    "n2", "n3", "n4", "n3-one-boson", "witness-n2", "witness-n2-window2",
    "witness-n4"])
def test_consistency_report_does_not_depend_on_order(case):
    # the expansion is exact on the compared window, so a truncation order
    # of 1 reports what 8 does: a pass stays a pass, a witness its text
    alg, states, phi, regions, window = _order_cases()[case]
    reports = [consistency_check(alg, states, phi, regions, order,
                                 window=window).render()
               for order in (1, 8)]
    assert reports[0] == reports[1]
    assert (reports[0] == "consistency: pass") == (case < 4)


def test_derivative_insertions():
    # <b(z1) (db)(z2)> = d/dz2 1/(z1-z2)^2 = 2/(z1-z2)^3
    f = heisenberg_npoint(VACUUM_PHI, 2, [0, 1])
    two_pt = heisenberg_npoint(VACUUM_PHI, 2)
    assert f == two_pt.deriv(2)
    assert f == _pole(1, 2, 3).scale(2)


def test_bootstrap():
    report = bootstrap_verify(VACUUM_PHI, 6)
    assert report.passed, report.render()


B1B1 = PbwMonomial(0, ((0, -1), (0, -1)))
B2B1 = PbwMonomial(0, ((0, -2), (0, -1)))


NON_VACUUM_PHIS = [
    {B1B1: Fraction(1)},
    {B2B1: Fraction(1)},
    {PbwMonomial(0, ()): Fraction(2), B1B1: Fraction(1, 3),
     B2B1: Fraction(-3, 2)},
]
NON_VACUUM_IDS = ["b(-1)^2", "b(-2)b(-1)", "mixed-with-vacuum"]


@pytest.mark.parametrize("phi", NON_VACUUM_PHIS, ids=NON_VACUUM_IDS)
def test_bootstrap_non_vacuum_functionals(phi):
    # phi reads the two unpaired fields of omega_4 (omega_0 = phi(|0>) may
    # be 0), so the bootstrap compares nonzero correlators
    assert not heisenberg_npoint(phi, 4).is_zero
    report = bootstrap_verify(phi, 6)
    assert report.passed, report.render()


# The bootstrap builds both of its sides from heisenberg_npoint, so the
# unpaired part (_creation_polynomial) cancels out of its comparison;
# consistency_check reads the same correlators mode by mode instead.
CREATION_CASES = [(phi, 2) for phi in NON_VACUUM_PHIS] + [({B1B1: 1}, 4)]
CREATION_IDS = [f"{name}-n2" for name in NON_VACUUM_IDS] + ["b(-1)^2-n4"]


def _boson_consistency(phi, n):
    inst = get_preset("heisenberg", lam=0)
    b = inst.gen_state("b")
    return consistency_check(inst.algebra, [b] * n, phi, _all_regions(n), 8)


@pytest.mark.parametrize("phi,n", CREATION_CASES, ids=CREATION_IDS)
def test_consistency_non_vacuum_functionals(phi, n):
    report = _boson_consistency(phi, n)
    assert report.passed, report.render()


@pytest.mark.parametrize("phi,n", CREATION_CASES, ids=CREATION_IDS)
def test_creation_polynomial_negative_control(monkeypatch, phi, n):
    # the unpaired part scaled by (number of unpaired fields + 1)
    creation = correlators._creation_polynomial

    def scaled(phi_terms, free):
        return creation(phi_terms, free).scale(len(free) + 1)

    monkeypatch.setattr(correlators, "_creation_polynomial", scaled)
    assert not _boson_consistency(phi, n).passed


def _all_partial_pairings(indices):
    if not indices:
        yield [], []
        return
    first, rest = indices[0], indices[1:]
    for pairing, free in _all_partial_pairings(rest):
        yield pairing, [first] + free
    for pos, j in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1:]
        for pairing, free in _all_partial_pairings(remaining):
            yield [(first, j)] + pairing, free


def _brute_npoint(phi, insertions):
    """Every partial pairing, kernels multiplied out as correlators."""
    dv = {i + 1: j for i, j in enumerate(insertions) if j is not None}
    out = RationalCorrelator.zero()
    for pairing, free in _all_partial_pairings(list(dv)):
        kernel = RationalCorrelator.constant(1)
        for i, j in pairing:
            kernel = kernel * RationalCorrelator(
                [correlators._pair_kernel(dv[i], dv[j], i, j)])
        rest = correlators._creation_polynomial(
            dict(phi), [(i, dv[i]) for i in free])
        out = out + kernel * RationalCorrelator(
            [Term(Fraction(1), rest, (), ())])
    return out


@pytest.mark.parametrize("phi", [phi for phi, _ in CREATION_CASES],
                         ids=NON_VACUUM_IDS + ["b(-1)^2-int"])
@pytest.mark.parametrize("n", range(7))
def test_npoint_equals_all_partial_pairings(phi, n):
    # heisenberg_npoint visits only the pairings phi can read; the sum over
    # all of them gives the same correlator
    for insertions in ([0] * n, [None if k == 2 else k % 3
                                 for k in range(n)]):
        brute = _brute_npoint(phi, insertions)
        f = heisenberg_npoint(phi, n, insertions)
        assert f == brute
        assert f.render() == brute.render()


def test_reduce_term_cancels_only_dividing_factors():
    z = {i: Poly.var(zvar(i)) for i in (1, 2, 3)}
    # (z1 - z2) z3 / ((z1 - z2)^2 z3) = 1 / (z1 - z2)
    t = _reduce_term(Term(Fraction(1), (z[1] - z[2]) * z[3], ((1, 2, 2),),
                          ((3, 1),)))
    assert t == Term(Fraction(1), Poly.const(1), ((1, 2, 1),), ())
    # a numerator without z2, or not a multiple of z1 - z2, keeps its pole
    for num in (z[1] * z[3], z[3], Poly.const(5), z[1] * z[2]):
        t = Term(Fraction(2), num, ((1, 2, 2),), ())
        assert _reduce_term(t) == t


def test_consistency_shares_mode_products_across_regions(monkeypatch):
    # the four insertions are equal, so every region walks the same partial
    # products: 24 regions cost the `OperatorCache.apply` calls of one,
    # and the shared cache stays out of the algebra's memo of
    # monomial-level actions
    inst = get_preset("heisenberg", lam=0)
    b = inst.gen_state("b")
    calls = []
    apply = fields.OperatorCache.apply

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(fields.OperatorCache, "apply", counted)
    counts = []
    for regions in (_all_regions(4)[:1], _all_regions(4)):
        calls.clear()
        report = consistency_check(inst.algebra, [b] * 4, VACUUM_PHI,
                                   regions, 8)
        assert report.passed, report.render()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert not any(isinstance(x, State) for key in inst.algebra._apply_memo
                   for x in key)


def test_consistency_walks_each_insertion_sequence_once(monkeypatch):
    # the direct side depends only on the insertion states in region order:
    # four equal insertions walk once for 24 regions, criterion 6's
    # b(-1), b(-2), b(-1) three times for 6, three distinct states 6 times
    inst = get_preset("heisenberg", lam=0)
    b1, b2, b3 = (inst.state([("b", -n)]) for n in (1, 2, 3))
    sequences = []
    region_walk = correlators._region_walk

    def counted(mode, sequence, *rest):
        sequences.append(sequence)
        return region_walk(mode, sequence, *rest)

    monkeypatch.setattr(correlators, "_region_walk", counted)
    for states, walks in (([b1] * 4, 1), ([b1, b2, b1], 3),
                          ([b1, b2, b3], 6)):
        sequences.clear()
        report = consistency_check(inst.algebra, states, VACUUM_PHI,
                                   _all_regions(len(states)), 8)
        assert report.passed, report.render()
        assert len(sequences) == len(set(sequences)) == walks


def test_matrix_element_oracle_does_not_share_the_walk(monkeypatch):
    # a wrong phi pairing in the walk fails consistency_check, while the
    # per-tuple oracle, with its own sum, still equals the expansion
    monkeypatch.setattr(correlators, "_pair", lambda phi, v: Fraction(1))
    inst = get_preset("heisenberg", lam=0)
    states = [inst.gen_state("b")] * 2
    region = ExpansionRegion((zvar(1), zvar(2)))
    assert not consistency_check(inst.algebra, states, VACUUM_PHI, [region],
                                 8).passed
    coeffs = expand(heisenberg_npoint(VACUUM_PHI, 2), region, 3)
    for e in product(range(-5, 4), repeat=2):
        assert matrix_element_coefficient(inst.algebra, states, VACUUM_PHI,
                                          e, region) == \
            coeffs.get(e, Fraction(0))


def test_matrix_element_exponent_must_be_an_int():
    inst = get_preset("heisenberg", lam=0)
    with pytest.raises(TypeError, match="exponent 1/2 is not an int"):
        matrix_element_coefficient(inst.algebra, [inst.gen_state("b")],
                                   VACUUM_PHI, (Fraction(1, 2),),
                                   ExpansionRegion((zvar(1),)))


@pytest.mark.parametrize("extra, order", [
    (None, 2),
    (Term(Fraction(1), Poly.const(1), ((1, 2, 1),), ()), 1)],
    ids=["doubled", "simple-pole"])
def test_bootstrap_fails_on_a_wrong_two_point_function(monkeypatch, extra,
                                                       order):
    # omega_2 doubled misses omega_0 at order 2; omega_2 + 1/(z1-z2) keeps
    # order 2 and leaves an order-1 coefficient
    npoint = correlators.heisenberg_npoint

    def wrong(phi, n, insertions=None):
        f = npoint(phi, n, insertions)
        if n != 2:
            return f
        return f.scale(2) if extra is None else f + RationalCorrelator([extra])

    monkeypatch.setattr(correlators, "heisenberg_npoint", wrong)
    assert bootstrap_verify(VACUUM_PHI, 4).render() == (
        f"bootstrap: FAIL (n=2, pair (1,2): order-{order} coefficient)")


def test_bootstrap_negative_control(monkeypatch):
    # every contraction doubled: the (z1-z2)^{-2} coefficient of omega_2 is
    # 2, against omega_0 = 1
    pair_kernel = correlators._pair_kernel

    def doubled(a, b, i, j):
        t = pair_kernel(a, b, i, j)
        return Term(2 * t.coeff, t.num, t.poles, t.zpows)

    monkeypatch.setattr(correlators, "_pair_kernel", doubled)
    assert bootstrap_verify(VACUUM_PHI, 6).render() == (
        "bootstrap: FAIL (n=2, pair (1,2): order-2 coefficient)")


def test_horizontality_negative_control(monkeypatch):
    # contractions with a derivative doubled: <b b> uses only the a = b = 0
    # kernel, so the regions agree, but d/dz1 <b b> no longer equals the
    # correlator with T b in place of b
    pair_kernel = correlators._pair_kernel

    def doubled(a, b, i, j):
        t = pair_kernel(a, b, i, j)
        return Term(2 * t.coeff, t.num, t.poles, t.zpows) if a + b > 0 else t

    monkeypatch.setattr(correlators, "_pair_kernel", doubled)
    inst = get_preset("heisenberg", lam=0)
    report = consistency_check(inst.algebra, [inst.state([("b", -1)])] * 2,
                               VACUUM_PHI, _all_regions(2), 8)
    assert report.render() == \
        "consistency: FAIL (horizontality at insertion 1)"


def test_partial_fractions_compare_equal():
    # 1/((z1-z2)(z1-z3)) = 1/((z1-z2)(z2-z3)) - 1/((z1-z3)(z2-z3)): the term
    # lists differ, so == clears the poles and compares polynomials
    lhs = _pole(1, 2, 1) * _pole(1, 3, 1)
    rhs = _pole(1, 2, 1) * _pole(2, 3, 1) - _pole(1, 3, 1) * _pole(2, 3, 1)
    assert lhs == rhs
    assert lhs != _pole(1, 2, 1) * _pole(2, 3, 1) + \
        _pole(1, 3, 1) * _pole(2, 3, 1)
    # == is not a comparison of term keys, so correlators are unhashable
    with pytest.raises(TypeError):
        hash(lhs)


def test_diagonal_coefficients_turn_poles_round():
    # f = 1/((z1-z3)^2 (z1-z2)) at z1 -> z3: 1/(z1-z2) = 1/(z3-z2) + ...
    # so c_{-2} = -1/(z2-z3) and c_{-1} = d/dz1 1/(z1-z2) = -1/(z2-z3)^2
    f = RationalCorrelator([Term(Fraction(1), Poly.const(1),
                                 ((1, 2, 1), (1, 3, 2)), ())])
    c2, c1 = _diagonal_coefficients(f, 1, 3)
    assert c2 == _pole(2, 3, 1).scale(-1)
    assert c1 == _pole(2, 3, 2).scale(-1)
    # a simple pole at (1,3): c_{-2} = 0, c_{-1} = 1/(z3-z2)^2
    f = RationalCorrelator([Term(Fraction(1), Poly.const(1),
                                 ((1, 2, 2), (1, 3, 1)), ())])
    c2, c1 = _diagonal_coefficients(f, 1, 3)
    assert c2.is_zero and c1 == _pole(2, 3, 2)
    f = RationalCorrelator([Term(Fraction(1), Poly.const(1),
                                 ((1, 2, 3),), ())])
    with pytest.raises(ValueError, match="order > 2"):
        _diagonal_coefficients(f, 1, 2)


def test_rename_adds_multiplicities_and_turns_poles_round():
    z = {i: Poly.var(zvar(i)) for i in (1, 2, 3)}
    # z1 z2 / (z1 (z1-z3)^3 (z2-z3)) under z1 -> z2, z2 -> z1
    f = RationalCorrelator([Term(Fraction(1), z[1] * z[2],
                                 ((1, 3, 3), (2, 3, 1)), ((1, 1),))])
    g = _rename(f, {1: 2, 2: 1})
    assert g == RationalCorrelator([Term(Fraction(1), z[1] * z[2],
                                         ((1, 3, 1), (2, 3, 3)), ((2, 1),))])
    # (z1-z2)^-3 under z1 -> z3 is (z3-z2)^-3 = -(z2-z3)^-3; poles and
    # z-powers landing on one label add up
    f = RationalCorrelator([Term(Fraction(5), z[1],
                                 ((1, 2, 3), (2, 3, 1)), ((1, 2), (3, 1)))])
    g = _rename(f, {1: 3})
    assert g.terms == [Term(Fraction(-5), Poly.const(1), ((2, 3, 4),),
                            ((3, 2),))]


@pytest.mark.parametrize("coeff", [Scalar.param("k") + 1, Scalar.param("k")])
def test_state_functional_must_be_rational(coeff):
    phi = State({PbwMonomial(0, ()): coeff})
    with pytest.raises(ValueError, match="not a plain rational"):
        heisenberg_npoint(phi, 0)


def test_correlator_arithmetic_and_json():
    f = _pole(1, 2, 1)
    assert f.deriv(1) == _pole(1, 2, 2).scale(-1)
    assert (f - f).is_zero
    doc = f.to_json()
    assert doc[0]["poles"] == [[1, 2, 1]]
