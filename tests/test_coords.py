"""Tests for coordinate changes and conjugated field elements."""

import dataclasses
import random
from fractions import Fraction

import pytest

from voa import (CoordChange, NonInvertibleLinearTerm, NotPrimary, R_apply,
                 R_inverse_apply, Scalar, State, TruncationMismatch,
                 decompose, get_preset, huang_check,
                 primary_differential_check, reconstruct)
from voa.coords import _power_series, laurent_coefficients
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


def test_r_inverse_is_inverse():
    inst = get_preset("heisenberg", lam=0)
    rho = _cc(2, Fraction(1, 2), Fraction(-1, 3))
    for word in ([("b", -1)], [("b", -2)], [("b", -1), ("b", -1)],
                 [("b", -3)]):
        v = inst.state(word)
        assert R_inverse_apply(inst, rho, R_apply(inst, rho, v)) == v


def test_group_law():
    # R is an antihomomorphism on coordinate changes composed as
    # (mu after rho)(z) = mu(rho(z)): R(mu(rho(z))) = R(rho) R(mu)
    inst = get_preset("heisenberg", lam=0)
    rho = _cc(2, 1, 0, 0)
    mu = _cc(1, Fraction(-1, 2), Fraction(1, 3), 0)
    comp = rho.compose(mu)
    for word in ([("b", -1)], [("b", -2)], [("b", -1), ("b", -1)]):
        v = inst.state(word)
        lhs = R_apply(inst, comp, v)
        rhs = R_apply(inst, rho, R_apply(inst, mu, v))
        assert lhs == rhs


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


def test_primary_check_rejects_nonprimary():
    inst = get_preset("virasoro")
    rho = _cc(1, Fraction(1, 4))
    with pytest.raises(NotPrimary):
        primary_differential_check(inst, inst.conformal, rho, window=2, D=2)


def test_derivative_and_evaluation():
    rho = _cc(2, 3)
    t = parse_scalar("t")
    assert rho.evaluate_at(t) == parse_scalar("2*t + 3*t^2")
    assert rho.derivative_at(t) == parse_scalar("2 + 6*t")
