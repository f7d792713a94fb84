"""Tests for coordinate changes and conjugated field elements."""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import voa.coords as coords
from voa import (CoordChange, NonInvertibleLinearTerm, NotPrimary, R_apply,
                 R_inverse_apply, Scalar, State, TruncationMismatch,
                 decompose, get_preset, huang_check,
                 primary_differential_check, reconstruct)
from voa.coords import (Series, _derivative_power, _power_series,
                         laurent_coefficients)
from voa.fields import state_field_mode
from voa.fock import basis_monomials
from voa.scalars import parse_scalar


def _cc(*coeffs):
    """A CoordChange from rationals; a str names a symbolic parameter."""
    return CoordChange(tuple(Scalar.param(c) if isinstance(c, str)
                             else Scalar.from_fraction(Fraction(c))
                             for c in coeffs))


def test_identity_and_render():
    rho = CoordChange.identity(3)
    assert rho.coefficient(1) == Scalar.one()
    assert _cc(2, 0, Fraction(1, 2)).render() == "(2)*z + (1/2)*z^3"


def test_noninvertible_linear_term():
    with pytest.raises(NonInvertibleLinearTerm):
        _cc(0, 1)


def test_compose_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        _cc(1, 1).compose(_cc(1, 1, 1))


def test_compose_and_inverse():
    rho = _cc(2, 1, Fraction(-1, 3), 0, 5)
    ident = CoordChange.identity(rho.order)
    assert rho.compose(rho.inverse()) == ident
    assert rho.inverse().compose(rho) == ident


def test_decompose_reconstruct_roundtrip():
    rng = random.Random(7)
    for M in range(1, 7):
        for _ in range(3):
            coeffs = [Fraction(rng.randint(1, 5))]
            coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(M - 1)]
            rho = _cc(*coeffs)
            assert reconstruct(decompose(rho)) == rho


def test_decompose_prefix_gives_leading_charges():
    # v_1..v_j depend only on rho_1..rho_{j+1}; the changes of criterion 8
    rng = random.Random(11)
    for M in range(1, 7):
        for _ in range(4):
            coeffs = [Fraction(rng.randint(1, 4))]
            coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(M - 1)]
            rho = _cc(*coeffs)
            full = decompose(rho).charges
            for j in range(M):
                prefix = CoordChange(rho.coeffs[:j + 1])
                assert decompose(prefix).charges == full[:j]


@pytest.mark.parametrize("coeffs", [
    (1, "eps"), ("a",), (2, Fraction(1, 2), Fraction(-1, 3))])
def test_power_series_matches_rational_expansion(coeffs):
    # the truncated series of rho(t)^m against the Laurent expansion of the
    # rational function rho(t)^m, which divides and reduces by gcd
    rho = _cc(*coeffs)
    t = Scalar.param("t")
    top = 4
    for m in range(-4, 5):
        want = laurent_coefficients(rho.evaluate_at(t) ** m, "t", top)
        assert _power_series(rho, m, top) == want, m


def _dense(expansion, n):
    """The coefficients t^0..t^n of a {exponent: Scalar} expansion."""
    return [expansion.get(k, Scalar.zero()) for k in range(n + 1)]


@pytest.mark.parametrize("coeffs", [
    (1, "eps"), ("a",), (2, Fraction(1, 2), Fraction(-1, 3))])
def test_series_matches_rational_expansion(coeffs):
    # U(t) = rho(t)/t and rho'(t) as Series against the Laurent expansion
    # of the rational functions, which shares no code with Series
    rho = _cc(*coeffs)
    t = Scalar.param("t")
    n = 4
    U = Series(rho.coefficient(k) for k in range(1, n + 2))
    slope = Series(rho.coefficient(k) * k for k in range(1, n + 2))
    u_t = rho.evaluate_at(t) / t
    slope_t = sum((c * k * t ** (k - 1) for k, c in enumerate(rho.coeffs, 1)),
                  Scalar.zero())
    assert (U * slope).c == _dense(laurent_coefficients(u_t * slope_t, "t", n),
                                   n)
    assert U.inverse().c == _dense(laurent_coefficients(1 / u_t, "t", n), n)
    assert (slope / U).c == _dense(
        laurent_coefficients(slope_t / u_t, "t", n), n)
    for m in range(-3, 0):
        assert (U ** m).c == _dense(laurent_coefficients(u_t ** m, "t", n),
                                    n), m


_coefficients = st.sampled_from(
    [Scalar.zero(), Scalar.one(), Scalar.from_fraction(-2),
     Scalar.from_fraction(Fraction(1, 3)), Scalar.param("x"),
     parse_scalar("x - 1/2")])


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_coefficients, min_size=1, max_size=4),
       b=st.lists(_coefficients, min_size=1, max_size=4),
       m=st.integers(-3, 3))
def test_series_arithmetic_matches_rational_expansion(a, b, m):
    # the polynomials a(t), b(t) with a(0) != 0, kept to t^n
    if a[0].is_zero:
        a = [Scalar.one()] + a[1:]
    n = 3
    t = Scalar.param("t")
    pa = sum((c * t ** k for k, c in enumerate(a)), Scalar.zero())
    pb = sum((c * t ** k for k, c in enumerate(b)), Scalar.zero())
    A = Series(a + [Scalar.zero()] * (n + 1 - len(a)))
    B = Series(b + [Scalar.zero()] * (n + 1 - len(b)))
    for got, want in ((A + B, pa + pb), (A - B, pa - pb), (A * B, pa * pb),
                      (A * Fraction(1, 2), pa / 2), (B / A, pb / pa),
                      (A.inverse(), 1 / pa), (A ** m, pa ** m)):
        assert got.c == _dense(laurent_coefficients(want, "t", n), n)


def test_huang_check_expands_no_rational_function(monkeypatch):
    # B = R(rho_t)^{-1} A is built as a t-series; no Scalar depends on t
    def refuse(*args):
        raise AssertionError("laurent_coefficients called")
    monkeypatch.setattr(coords, "laurent_coefficients", refuse)
    inst = get_preset("heisenberg", lam=0)
    for rho in (_cc(1, "eps"), _cc("a", 1), _cc(1, 1, 1, 1)):
        report = huang_check(inst, inst.conformal, rho, window=2, D=2)
        assert report.passed, report.render()


def _B_by_rational_route(inst, A, rho, window, D):
    """R(rho_t)^{-1} A over Q(params, t') with rho_t written out by hand,
    Laurent-expanded in t' to t'^(window + D + deg A)."""
    t = Scalar.param("t'")
    dA = int(A.degree(inst.algebra))
    rho = rho.padded(dA + 1)
    rho_t = CoordChange(tuple(
        sum((rho.coeffs[i - 1] * comb(i, k) * t ** (i - k)
             for i in range(k, rho.order + 1)), Scalar.zero())
        for k in range(1, rho.order + 1)))
    out = {}
    for mono, c in R_inverse_apply(inst, rho_t, A).terms.items():
        for e, ce in laurent_coefficients(c, "t'", window + D + dA).items():
            out.setdefault(e, {})[mono] = ce
    return {e: State(terms) for e, terms in out.items()}


_B_CHANGES = [(1, "eps"), ("a",), ("a", 1), (1, "t"), (1, 1, 1, 1),
              (2, Fraction(1, 2), Fraction(-1, 3)), (1, 0, 1),
              (1, Fraction(1, 2))]


@pytest.mark.parametrize("preset, lam, word", [
    ("heisenberg", 0, [("b", -1)]), ("heisenberg", 0, None),
    ("heisenberg", 0, [("b", -2), ("b", -1)]), ("heisenberg", 0, [("b", -3)]),
    ("heisenberg", None, None), ("virasoro", None, None),
    ("virasoro", None, [("L", -3)]), ("virasoro", None, [("L", -2)] * 2),
    ("affine:sl2", None, [("e", -1)]), ("affine:sl2", None, None)])
def test_huang_insertion_matches_rational_route(monkeypatch, preset, lam,
                                                word):
    # the t-series B that huang_check inserts, against R_inverse_apply on a
    # rho_t with t' a Scalar parameter and each coefficient expanded; every
    # (t-exponent, monomial) entry is compared, also those that no verdict
    # reads (None is omega)
    inst = get_preset(preset, lam=lam)
    A = inst.conformal if word is None else inst.state(word)
    inserted = []
    monkeypatch.setattr(coords, "_transformation_check",
                        lambda inst, A, Bt, *rest: inserted.append(Bt))
    for coeffs in _B_CHANGES:
        for window, D in ((2, 2), (1, 2), (2, 1)):
            huang_check(inst, A, _cc(*coeffs), window=window, D=D)
            assert inserted.pop() == _B_by_rational_route(
                inst, A, _cc(*coeffs), window, D), (coeffs, window, D)


def test_decompose_scaling_only():
    rho = _cc(3)
    charge = decompose(rho)
    assert charge.scaling == Scalar.from_fraction(3)
    assert all(v.is_zero for v in charge.charges)


def test_scaling_action_is_inverse_power():
    # R(az) multiplies a weight-d state by a^{-d}
    inst = get_preset("heisenberg", lam=0)
    a = Scalar.param("a")
    rho = CoordChange((a,))
    v = inst.state([("b", -1)])
    assert R_apply(inst, rho, v) == v.scale(Scalar.one() / a)
    w = inst.state([("b", -2), ("b", -1)])
    assert R_apply(inst, rho, w) == w.scale(Scalar.one() / (a * a * a))


def _states_up_to(inst, D):
    return [State.monomial(mono) for d in range(D + 1)
            for mono in basis_monomials(inst.algebra, d, 0)]


def test_r_inverse_is_inverse():
    # Heisenberg at lam=0 has a conformal vector without denominators;
    # the Sugawara vector at symbolic k carries 1/(2(k+2))
    rho = _cc(2, Fraction(1, 2), Fraction(-1, 3))
    for inst, D in ((get_preset("heisenberg", lam=0), 3),
                    (get_preset("affine:sl2"), 2)):
        for v in _states_up_to(inst, D):
            assert R_inverse_apply(inst, rho, R_apply(inst, rho, v)) == v


def test_group_law():
    # R is an antihomomorphism on coordinate changes composed as
    # (mu after rho)(z) = mu(rho(z)): R(mu(rho(z))) = R(rho) R(mu)
    rho = _cc(2, 1, 0, 0)
    mu = _cc(1, Fraction(-1, 2), Fraction(1, 3), 0)
    comp = rho.compose(mu)
    for inst, D in ((get_preset("heisenberg", lam=0), 2),
                    (get_preset("affine:sl2"), 2)):
        for v in _states_up_to(inst, D):
            lhs = R_apply(inst, comp, v)
            rhs = R_apply(inst, rho, R_apply(inst, mu, v))
            assert lhs == rhs


def _R_by_steps(inst, rho, v):
    """R(rho) v with each power of exp(-sum_j v_j L_j) built from the last
    by L_j = omega_[j] on inst.conformal itself, denominators and all."""
    charge = decompose(rho)
    cur = State.zero()
    for mono, c in v.terms.items():
        d = int(inst.algebra.mono_degree(mono))
        cur = cur + State.monomial(mono, c / charge.scaling ** d)
    out = cur
    fact = 1
    for step in range(1, 2 + int(max(v.degrees(inst.algebra)))):
        nxt = State.zero()
        for j, vj in enumerate(charge.charges, start=1):
            term = state_field_mode(inst.algebra, inst.conformal, j, cur)
            nxt = nxt + term.scale(-vj)
        cur = nxt
        fact *= step
        out = out + cur.scale(Fraction(1, fact))
    return out


@pytest.mark.parametrize("coeffs", [
    (1, "eps"), (2, Fraction(1, 2), Fraction(-1, 3)), ("a", 1)])
def test_r_apply_matches_stepwise_exponential(coeffs):
    # affine:sl2 at symbolic k: omega = S / (k+2), and (a, 1) has the
    # charge v_1 = 1/a, so both denominators are cleared out of the loop
    inst = get_preset("affine:sl2")
    rho = _cc(*coeffs)
    states = _states_up_to(inst, 3)
    for v in states:
        assert R_apply(inst, rho, v) == _R_by_steps(inst, rho, v), v
    # a non-homogeneous state whose coefficients have denominators
    k = Scalar.param("k")
    v = (states[1].scale(Scalar.one() / (k + 1)) + states[5].scale(k / 3) +
         states[-1].scale(Scalar.one() / (k * k + 2)))
    assert R_apply(inst, rho, v) == _R_by_steps(inst, rho, v)


def test_huang_scaling_symbolic():
    inst = get_preset("heisenberg", lam=0)
    a = Scalar.param("a")
    rho = CoordChange((a,))
    for A in (inst.state([("b", -1)]), inst.conformal):
        report = huang_check(inst, A, rho, window=2, D=2)
        assert report.passed, report.render()


def test_huang_quadratic_first_order():
    inst = get_preset("heisenberg", lam=0)
    eps = Scalar.param("eps")
    rho = CoordChange((Scalar.one(), eps))
    A = inst.state([("b", -1)])
    report = huang_check(inst, A, rho, window=2, D=2, first_order_in="eps")
    assert report.passed, report.render()


def test_huang_exact_nonlinear():
    # genuine polynomial changes, no first-order truncation
    inst = get_preset("heisenberg", lam=0)
    A = inst.state([("b", -1)])
    for rho in (_cc(2, Fraction(1, 2)), _cc(1, 0, 1),
                _cc(1, Fraction(1, 2))):
        report = huang_check(inst, A, rho, window=2, D=2)
        assert report.passed, report.render()
    report = huang_check(inst, inst.conformal, _cc(1, Fraction(1, 2)),
                         window=2, D=2)
    assert report.passed, report.render()
    # R(rho_t)^{-1} omega has t-powers above the window that still reach it
    vir = get_preset("virasoro")
    report = huang_check(vir, vir.conformal, _cc(1, Fraction(1, 4)),
                         window=1, D=2)
    assert report.passed, report.render()


def test_primary_differential_check():
    inst = get_preset("heisenberg", lam=0)
    eps = Scalar.param("eps")
    rho = CoordChange((Scalar.one(), eps))
    A = inst.state([("b", -1)])
    report = primary_differential_check(inst, A, rho, window=2, D=2,
                                        first_order_in="eps")
    assert report.passed, report.render()
    report = primary_differential_check(inst, A, _cc(2, Fraction(1, 2)),
                                        window=2, D=2)
    assert report.passed, report.render()


@pytest.mark.parametrize("check", [huang_check, primary_differential_check])
def test_transformation_checks_fail_on_wrong_conformal_vector(check):
    # doubling omega doubles L_1, so R(rho) no longer matches the fields
    inst = get_preset("heisenberg", lam=0)
    wrong = dataclasses.replace(inst, conformal=inst.conformal.scale(2))
    A = inst.state([("b", -1)])
    report = check(wrong, A, _cc(1, Fraction(1, 2)), window=2, D=2)
    assert not report.passed
    assert report.witness == ("on |0>: coefficient of t^1 b(-1) |0>: "
                              "direct 0 vs conjugated -1")
    assert report.render() == (f"{report.description}: FAIL "
                               f"({report.witness})")


@pytest.mark.parametrize("check, preset, gen, rho, first_order_in, witness", [
    (primary_differential_check, "affine:sl2", "e", (2, Fraction(1, 2)),
     None, "on v_k: coefficient of t^1 e(-1) v_k: "
           "direct 0 vs conjugated -1/2"),
    (huang_check, "heisenberg", "b", (1, "eps"), "eps",
     "on |0>: coefficient of t^1 b(-1) |0>: direct 0 vs conjugated -2*eps"),
])
def test_wrong_conformal_vector_witnesses(check, preset, gen, rho,
                                          first_order_in, witness):
    inst = get_preset(preset, lam=0)
    wrong = dataclasses.replace(inst, conformal=inst.conformal.scale(2))
    report = check(wrong, inst.gen_state(gen), _cc(*rho), window=2, D=2,
                   first_order_in=first_order_in)
    assert not report.passed
    assert report.witness == witness


def test_second_order_defect_fails_under_first_order_parameter():
    # omega + b(-3)|0> is off only at eps^2 for rho = z + eps z^2; naming
    # eps as the infinitesimal parameter must not hide that
    inst = get_preset("heisenberg", lam=0)
    wrong = dataclasses.replace(
        inst, conformal=inst.conformal + inst.state([("b", -3)]))
    report = huang_check(wrong, inst.state([("b", -1)]), _cc(1, "eps"),
                         window=2, D=2, first_order_in="eps")
    assert not report.passed
    assert report.witness == ("on |0>: coefficient of t^1 |0>: "
                              "direct 0 vs conjugated 3*eps^2")


@pytest.mark.parametrize("check", [huang_check, primary_differential_check])
@pytest.mark.parametrize("coeffs", [(1, "{}"), ("{}",), (2, "{}", 1)])
def test_parameter_named_t(check, coeffs):
    # the Laurent series of the check are in a variable of their own, so a
    # parameter t of rho gives the verdict a parameter s gives
    inst = get_preset("heisenberg", lam=0)
    A = inst.state([("b", -1)])
    for name in ("t", "s"):
        rho = _cc(*(c.format(name) if isinstance(c, str) else c
                    for c in coeffs))
        report = check(inst, A, rho, window=2, D=2)
        assert report.passed, report.render()


@pytest.mark.parametrize("check", [huang_check, primary_differential_check])
def test_first_order_parameter_must_occur_in_rho(check):
    inst = get_preset("heisenberg", lam=0)
    with pytest.raises(ValueError, match="'zz' does not occur in rho"):
        check(inst, inst.state([("b", -1)]), _cc(1, "eps"), window=2, D=2,
              first_order_in="zz")


def test_checks_leave_no_state_behind():
    # R(rho) with its decomposed charges and cleared omega lives as long
    # as one check: the instance, the algebra's memo kinds and the module
    # are as they were
    import voa.coords as coords
    inst = get_preset("affine:sl2")
    module = dict(vars(coords))
    fields = dict(vars(inst))
    report = primary_differential_check(inst, inst.gen_state("e"),
                                        _cc(1, "eps"), window=2, D=1,
                                        first_order_in="eps")
    assert report.passed
    assert vars(inst) == fields
    assert {key[0] if isinstance(key[0], str) else "apply_mode"
            for key in inst.algebra._apply_memo} <= {"apply_mode", "T"}
    assert vars(coords) == module


def test_primary_check_rejects_nonprimary():
    inst = get_preset("virasoro")
    rho = _cc(1, Fraction(1, 4))
    with pytest.raises(NotPrimary):
        primary_differential_check(inst, inst.conformal, rho, window=2, D=2)


def test_derivative_and_evaluation():
    rho = _cc(2, 3)
    t = parse_scalar("t")
    assert rho.evaluate_at(t) == parse_scalar("2*t + 3*t^2")
    # the series rho'(t)^Delta that the primary check inserts, for the
    # changes of test_power_series_matches_rational_expansion, against the
    # Laurent expansion of rho'(t)^Delta with rho'(t) written out by hand
    top = 4
    for coeffs, derivative in [
            ((1, "eps"), "1 + 2*eps*t"), (("a",), "a"),
            ((2, Fraction(1, 2), Fraction(-1, 3)), "2 + t - t^2")]:
        for delta in range(4):
            want = laurent_coefficients(parse_scalar(derivative) ** delta,
                                        "t", top)
            assert _derivative_power(_cc(*coeffs), delta, top) == want, \
                (coeffs, delta)
