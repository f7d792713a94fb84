"""Coordinate changes on the formal disc acting on conformal algebras.

A CoordChange is a truncated automorphism rho(z) = rho_1 z + ... + rho_M z^M
with Scalar coefficients (rho_1 invertible).  Its action on a conformal
algebra is R(rho) = rho_1^{L_0} exp(-sum_j v_j L_j), where the charges v_j
come from factoring rho through the exponential of the vector field
sum_j v_j z^{j+1} d/dz; the exponential is exact on graded components
because each L_j lowers degree.  R(rho) keeps denominators out of its
inner loop: it acts with S = q omega, where q is the monic lcm of the
denominators of omega's coefficients (q = k + 2 for the Sugawara vector),
clears the charges and the state the same way, and divides the sum of the
powers once.  A check decomposes its rho and clears omega once, and its
fields, S among them, act through one `OperatorCache`.

Huang's identity Y(A,t) = R(rho) Y(R(rho_t)^{-1} A, rho(t)) R(rho)^{-1}
(rho_t(z) = rho(t+z) - rho(t)) is verified on matrix elements compared as
Laurent series in t up to a window t^window.  Both sides are one
function, `_field_series`, of sum_j t^j Y(B_j, rho(t)) v as {t-exponent:
State} with t-free coefficients in Q(params), its fields read by
z-exponent (`OperatorCache.coeff`): B is carried as its t-series {j: B_j}
(the direct side is B = A at rho(t) = t), and rho(t)^m = t^m U(t)^m is a
truncated series in t (U = rho_1 + rho_2 t + ... is a unit).  Only B of
`huang_check`, R(rho_t)^{-1} A, is formed over Q(params, t) and expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .scalars import Poly, Scalar, _poly_divexact, poly_gcd
from .fields import OperatorCache
from .fock import State, basis_monomials, render_monomial


class NonInvertibleLinearTerm(ValueError):
    """The coordinate change has no invertible z-coefficient."""


class NotPrimary(ValueError):
    """The state is not annihilated by every positive Virasoro mode."""


class TruncationMismatch(ValueError):
    """Operands carry different truncation orders."""


def _coerce_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.from_fraction(x)


@dataclass(frozen=True)
class CoordChange:
    """rho(z) = sum_k coeffs[k-1] z^k, truncated after z^M."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(_coerce_scalar(c) for c in self.coeffs))
        if not self.coeffs or self.coeffs[0].is_zero:
            raise NonInvertibleLinearTerm(
                "coordinate change needs a nonzero linear coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def identity(M: int) -> "CoordChange":
        """The identity z; only tests use it, as a group-law oracle."""
        return CoordChange((Scalar.one(),) + (Scalar.zero(),) * (M - 1))

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k - 1] if 1 <= k <= self.order else Scalar.zero()

    def compose(self, other: "CoordChange") -> "CoordChange":
        """(self * other)(z) = other(self(z)), truncated; only tests use
        it, as a group-law oracle."""
        if self.order != other.order:
            raise TruncationMismatch(
                f"orders {self.order} != {other.order}")
        M = self.order
        out = [Scalar.zero()] * M
        cur = [Scalar.zero()] + list(self.coeffs)  # z^0..z^M of self(z)
        acc = [Scalar.one()] + [Scalar.zero()] * M
        for j in range(1, M + 1):
            acc = _series_mul(acc, cur, M)
            cj = other.coeffs[j - 1]
            if not cj.is_zero:
                for k in range(1, M + 1):
                    out[k - 1] = out[k - 1] + acc[k] * cj
        return CoordChange(tuple(out))

    def inverse(self) -> "CoordChange":
        """mu with mu(self(z)) = z modulo z^{M+1}; only tests use it, as a
        group-law oracle."""
        M = self.order
        mu = [Scalar.zero()] * M
        mu[0] = Scalar.one() / self.coeffs[0]
        acc = [Scalar.one()] + [Scalar.zero()] * M
        cur = [Scalar.zero()] + list(self.coeffs)
        powers = []
        for j in range(1, M + 1):
            acc = _series_mul(acc, cur, M)
            powers.append(list(acc))
        for k in range(2, M + 1):
            total = Scalar.zero()
            for j in range(1, k):
                total = total + mu[j - 1] * powers[j - 1][k]
            mu[k - 1] = -total / powers[k - 1][k]
        return CoordChange(tuple(mu))

    def evaluate_at(self, t: Scalar) -> Scalar:
        """rho(t); only tests use it, as an oracle of `_power_series`."""
        out = Scalar.zero()
        for k in range(1, self.order + 1):
            out = out + self.coeffs[k - 1] * (t ** k)
        return out

    def padded(self, M: int) -> "CoordChange":
        """The same polynomial at truncation order M >= order.

        Appending explicit zero coefficients states that the higher terms
        vanish exactly, which lets `decompose` solve for the higher
        Virasoro charges of a genuine polynomial instead of truncating
        them away.
        """
        if M <= self.order:
            return self
        return CoordChange(self.coeffs +
                           (Scalar.zero(),) * (M - self.order))

    def shifted(self, tname: str = "t") -> "CoordChange":
        """rho_t(z) = rho(t + z) - rho(t) with t a Scalar parameter."""
        t = Scalar.param(tname)
        out = [Scalar.zero()] * self.order
        for i in range(1, self.order + 1):
            ci = self.coeffs[i - 1]
            if ci.is_zero:
                continue
            for k in range(1, i + 1):
                out[k - 1] = out[k - 1] + ci * comb(i, k) * (t ** (i - k))
        return CoordChange(tuple(out))

    def render(self) -> str:
        from .scalars import render_scalar
        parts = []
        for k in range(1, self.order + 1):
            c = self.coeffs[k - 1]
            if c.is_zero:
                continue
            cs = render_scalar(c)
            z = "z" if k == 1 else f"z^{k}"
            parts.append(z if cs == "1" else f"({cs})*{z}")
        return " + ".join(parts) if parts else "0"


def _series_mul(a, b, M):
    """Product of z-coefficient lists (index = exponent), kept to z^M."""
    out = [Scalar.zero()] * (M + 1)
    for i, ai in enumerate(a):
        if ai.is_zero or i > M:
            continue
        for j, bj in enumerate(b):
            if i + j > M:
                break
            if not bj.is_zero:
                out[i + j] = out[i + j] + ai * bj
    return out


# ---------------------------------------------------------------------------
# Factoring through the vector-field exponential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VirasoroCharge:
    """v_0 rescaling plus v_1..v_{M-1}: rho = v_0 * exp(sum v_j z^{j+1} d/dz) z."""

    scaling: Scalar
    charges: tuple

    @property
    def order(self) -> int:
        return len(self.charges) + 1


def _exp_vector_field(charges, M):
    """Coefficients of exp(sum_j charges[j-1] z^{j+1} d/dz) applied to z."""
    cur = [Scalar.zero(), Scalar.one()] + [Scalar.zero()] * (M - 1)
    out = list(cur)
    fact = 1
    for step in range(1, M + 1):
        nxt = [Scalar.zero()] * (M + 1)
        for k in range(M + 1):
            if cur[k].is_zero:
                continue
            # D(z^k) = sum_j v_j k z^{k+j}
            for j, vj in enumerate(charges, start=1):
                if k + j <= M and not vj.is_zero:
                    nxt[k + j] = nxt[k + j] + cur[k] * (vj * k)
        cur = nxt
        fact *= step
        inv = Fraction(1, fact)
        for k in range(M + 1):
            if not cur[k].is_zero:
                out[k] = out[k] + cur[k] * inv
        if all(c.is_zero for c in cur):
            break
    return out


def decompose(rho: CoordChange) -> VirasoroCharge:
    """Solve for the charges so that reconstruct(decompose(rho)) == rho."""
    M = rho.order
    r1 = rho.coeffs[0]
    unit = [c / r1 for c in rho.coeffs]
    charges = [Scalar.zero()] * (M - 1)
    for j in range(1, M):
        cur = _exp_vector_field(charges, M)
        charges[j - 1] = unit[j] - cur[j + 1]
    return VirasoroCharge(r1, tuple(charges))


def reconstruct(charge: VirasoroCharge) -> CoordChange:
    M = charge.order
    series = _exp_vector_field(list(charge.charges), M)
    return CoordChange(tuple(series[k] * charge.scaling
                             for k in range(1, M + 1)))


# ---------------------------------------------------------------------------
# The operator R(rho) on graded components
# ---------------------------------------------------------------------------

def _common_denominator(scalars) -> Scalar:
    """The monic lcm of the denominators of some Scalars."""
    lcm = Poly.const(1)
    for den in {s.den for s in scalars}:
        if not den.is_constant:
            lcm = _poly_divexact(lcm * den, poly_gcd(lcm, den))
    return Scalar(lcm, _canonical=True)


def _scaling_power(scaling: Scalar, state: State, alg, sign: int) -> State:
    """scaling^{sign * L_0}: multiply each graded piece by scaling^(sign*deg)."""
    out = {}
    for mono, c in state.terms.items():
        d = alg.mono_degree(mono)
        if d.denominator != 1:
            raise ValueError(
                "scaling^{L_0} needs integral degrees; got degree %s" % d)
        out[mono] = c * (scaling ** (sign * int(d)))
    return State(out) if out else State.zero()


def _top_degree(alg, A: State) -> int:
    return int(max(A.degrees(alg), default=0))


class _ROperator:
    """R(rho) and its inverse with rho decomposed and omega cleared once.

    A transformation check builds one for its rho and applies it to many
    states; it lives only as long as the check, and so does its
    `OperatorCache` `ops`, through which the check also reads its field
    elements.  Degrees are >= 0 and L_j
    lowers degree by j, so on a state of top degree `top` only the charges
    v_1..v_top act: L_j with j > top kills the state and everything the
    lower L_i make of it.  The charges v_1..v_j depend only on
    rho_1..rho_{j+1}, so the first `top` charges of rho are those of its
    prefix rho_1..rho_{top+1}.
    """

    def __init__(self, inst, rho: CoordChange):
        self.alg = inst.algebra
        self.charge = decompose(rho)
        self.q = _common_denominator(inst.conformal.terms.values())
        self.ops = OperatorCache(self.alg)
        self.s = self.ops.field(inst.conformal.scale(self.q))

    def _lower(self, v: State, sign: int) -> State:
        """exp(sign * sum_j v_j L_j) v; exact since L_j lowers degree.

        Denominators are cleared first: omega = S / q, with `s` the field
        of S in `ops`, so S_[j] = q L_j, and likewise v_j = w_j / r and
        v = V / p, all of S, w_j and V free of denominators.  The powers
        C_n = (sum_j w_j S_[j])^n V then carry polynomial coefficients,
        whose adds and products form no gcd, and

            exp(...) v = sum_{n <= N} sign^n (N!/n!) (q r)^(N-n) C_n
                         / (N! (q r)^N p),

        with N the last nonzero power, is summed as polynomials too and
        divided once.
        """
        charges = self.charge.charges[:_top_degree(self.alg, v)]
        r = _common_denominator(charges)
        w = [vj * r for vj in charges]
        p = _common_denominator(v.terms.values())
        qr = self.q * r
        cur = acc = v.scale(p)
        den = p
        u = self.alg.unit
        n = 0
        while True:
            n += 1
            cur = State.sum((self.ops.apply(self.s, j * u, cur), wj)
                            for j, wj in enumerate(w, start=1)
                            if not wj.is_zero)
            if cur.is_zero:
                return acc.scale(Scalar.one() / den)
            den = den * qr * n
            acc = acc.scale(qr * n) + cur.scale(sign ** n)

    def apply(self, A: State) -> State:
        mid = _scaling_power(self.charge.scaling, A, self.alg, -1)
        return self._lower(mid, -1)

    def inverse(self, A: State) -> State:
        return _scaling_power(self.charge.scaling, self._lower(A, +1),
                              self.alg, +1)


def _acting_prefix(inst, rho: CoordChange, A: State) -> CoordChange:
    """rho_1..rho_{top+1}, all that the charges acting on A depend on."""
    return CoordChange(rho.coeffs[:_top_degree(inst.algebra, A) + 1])


def R_apply(inst, rho: CoordChange, A: State) -> State:
    """R(rho) A = exp(-sum_j v_j L_j) rho_1^{-L_0} A.

    The vector field z d/dz corresponds to -L_0, so the rescaling part of
    rho acts by the inverse power of the scaling: a primary of weight
    Delta transforms under z -> az as a^{-Delta}.  The scaling acts first;
    with the factorization rho(z) = rho_1 * rho_+(z) this is the unique
    ordering satisfying both the transformation formula and the group law
    R(mu(rho(z))) = R(rho) R(mu).

    Only the charges v_1..v_top act on a state of top degree `top`, so
    only rho_1..rho_{top+1} is decomposed.
    """
    return _ROperator(inst, _acting_prefix(inst, rho, A)).apply(A)


def R_inverse_apply(inst, rho: CoordChange, A: State) -> State:
    """R(rho)^{-1} A = rho_1^{+L_0} exp(+sum_j v_j L_j) A.

    Like `R_apply`, decomposes only rho_1..rho_{top+1}.
    """
    return _ROperator(inst, _acting_prefix(inst, rho, A)).inverse(A)


# ---------------------------------------------------------------------------
# Laurent expansion of Scalars in one parameter
# ---------------------------------------------------------------------------

def laurent_coefficients(s: Scalar, name: str, top: int) -> dict:
    """{exponent: Scalar} of s as a Laurent series in `name`, up to `top`."""
    if s.is_zero:
        return {}
    num = s.num._as_univariate(name)
    den = s.den._as_univariate(name)
    j0 = min(den)
    unit = {i - j0: Scalar(p) for i, p in den.items()}
    inv0 = Scalar.one() / unit[0]
    n_min = min(num)
    inv = {0: inv0}
    out = {}
    for e in range(n_min - j0, top + 1):
        # coefficient of t^e in num * inverse(unit) * t^{-j0}
        total = Scalar.zero()
        for i, p in num.items():
            k = e + j0 - i
            if k < 0:
                continue
            if k not in inv:
                _extend_inverse(unit, inv, inv0, k)
            total = total + Scalar(p) * inv[k]
        if not total.is_zero:
            out[e] = total
    return out


def _extend_inverse(unit, inv, inv0, upto):
    for k in range(max(inv) + 1, upto + 1):
        acc = Scalar.zero()
        for i, u in unit.items():
            if 1 <= i <= k:
                acc = acc + u * inv[k - i]
        inv[k] = -(inv0 * acc)


# ---------------------------------------------------------------------------
# Huang's transformation formula
# ---------------------------------------------------------------------------

# The parameter of the compared Laurent series.  parse_scalar makes no name
# with a quote in it, so t in rho stays apart from this one.
_T = "t'"


@dataclass
class CoordReport:
    description: str
    passed: bool
    witness: str | None = None

    def render(self) -> str:
        if self.passed:
            return f"{self.description}: pass"
        return f"{self.description}: FAIL ({self.witness})"


def _power_series(rho: CoordChange, m: int, top: int) -> dict:
    """{exponent: Scalar} of rho(t)^m up to t^top, as t^m U(t)^m.

    U(t) = rho_1 + rho_2 t + ... is a unit (rho_1 != 0), so for m < 0 its
    power is the power of its term-by-term inverse.  Only the exponents
    m..top exist, and every coefficient is free of t.
    """
    n = top - m
    if n < 0:
        return {}
    unit = dict(enumerate(rho.coeffs))
    if m < 0:
        inv0 = Scalar.one() / rho.coeffs[0]
        inv = {0: inv0}
        _extend_inverse(unit, inv, inv0, n)
        base = [inv[k] for k in range(n + 1)]
    else:
        base = [unit.get(k, Scalar.zero()) for k in range(n + 1)]
    acc = [Scalar.one()] + [Scalar.zero()] * n
    for _ in range(abs(m)):
        acc = _series_mul(acc, base, n)
    return {m + k: c for k, c in enumerate(acc) if not c.is_zero}


def _derivative_power(rho: CoordChange, n: int, top: int) -> dict:
    """rho'(t)^n up to t^top, n >= 0: t^-n (t rho'(t))^n, t rho'(t) the
    change with coefficients k rho_k."""
    slope = CoordChange(tuple(c * k for k, c in enumerate(rho.coeffs, 1)))
    return {e - n: c for e, c in _power_series(slope, n, top + n).items()}


def _t_series(B: State, top: int) -> dict:
    """{t-exponent: State} of a State with t-dependent coefficients."""
    out = {}
    for mono, c in B.terms.items():
        for j, cj in laurent_coefficients(c, _T, top).items():
            out.setdefault(j, {})[mono] = cj
    return {j: State(terms) for j, terms in out.items()}


def _field_series(ops: OperatorCache, Bt: dict, v: State, power, top: int,
                  window: int) -> dict:
    """{t-exponent: State} of sum_j t^j Y(B_j, rho(t)) v up to t^window.

    `Bt` is {j: B_j}, t-free and possibly non-homogeneous, and `power(m)`
    is {exponent: Scalar} of rho(t)^m.  The coefficient of z^m of a piece
    of B_j of weight d on the degree-dv piece of v has degree dv + d + m;
    only degrees 0..top are read, and each product is cut at t^window.
    """
    alg = ops.alg
    pieces = [(dv, v.component(alg, dv)) for dv in sorted(v.degrees(alg))]
    total = {}
    for j, Bj in Bt.items():
        for d in sorted(Bj.degrees(alg)):
            if d.denominator != 1:
                raise ValueError("field insertion needs integral weight")
            b = ops.field(Bj.component(alg, d))
            for dv, vd in pieces:
                for m in range(-dv - d, top - dv - d + 1):
                    if j + m > window:
                        break
                    w = ops.coeff(b, m, vd)
                    if w.is_zero:
                        continue
                    for e, s in power(m).items():
                        if j + e > window:
                            break
                        total.setdefault(j + e, []).append((w, s))
    return {e: State.sum(pairs) for e, pairs in total.items()}


def _compare_series(alg, lhs: dict, rhs: dict, cap: int):
    """Compare two {exponent: State} series exactly.

    Only matrix elements against basis functionals of degree <= cap are
    compared, in the order (degree, monomial, exponent); higher components
    of the conjugated side are incomplete.
    """
    entries = {(alg.mono_degree(m), str(m), e): m
               for side in (lhs, rhs) for e, st in side.items()
               for m in st.terms}
    zero = State.zero()
    for (d, _, e), mono in sorted(entries.items()):
        if d > cap:
            break
        want = lhs.get(e, zero).coeff(mono)
        got = rhs.get(e, zero).coeff(mono)
        if want != got:
            return (f"coefficient of t^{e} {render_monomial(alg, mono)}: "
                    f"direct {want} vs conjugated {got}")
    return None


def _check_first_order(rho: CoordChange, name: str | None):
    if name is not None and \
            not any(name in c.parameters() for c in rho.coeffs):
        raise ValueError(f"first-order parameter {name!r} does not occur "
                         f"in rho = {rho.render()}")


def _transformation_check(inst, A: State, Bt: dict, rho: CoordChange,
                          window: int, D: int, desc: str) -> CoordReport:
    """Y(A,t) = R(rho) Y(B, rho(t)) R(rho)^{-1} on basis states of degree <= D.

    B comes as its t-series {j: B_j} up to t^(window + D + deg A), past
    which no exponent <= window is reached; the conjugated side reads
    degrees up to D + window + deg A, which R(rho) lowers again.  The first
    basis state (by degree, then canonical order) whose matrix elements
    differ gives the witness.
    """
    alg = inst.algebra
    top = window - min(Bt, default=0)
    rho_power = cache(lambda m: _power_series(rho, m, top))
    R = _ROperator(inst, rho)
    reach = D + window + int(A.degree(alg))
    for d in range(D + 1):
        for mono in basis_monomials(alg, d, 0):
            v = State.monomial(mono)
            lhs = _field_series(R.ops, {0: A}, v, lambda m: {m: Scalar.one()},
                                D, window)
            rhs = {e: R.apply(st) for e, st in _field_series(
                R.ops, Bt, R.inverse(v), rho_power, reach, window).items()}
            witness = _compare_series(alg, lhs, rhs, D)
            if witness is not None:
                return CoordReport(
                    desc, False,
                    f"on {render_monomial(alg, mono)}: {witness}")
    return CoordReport(desc, True)


def huang_check(inst, A: State, rho: CoordChange, window: int, D: int,
                first_order_in: str | None = None) -> CoordReport:
    """Y(A,t) = R(rho) Y(R(rho_t)^{-1} A, rho(t)) R(rho)^{-1} on elements.

    Matrix elements against every basis state and functional of degree <= D
    are compared exactly as Laurent series in t up to t^window.
    `first_order_in` only names the small parameter of an infinitesimal
    change and must occur in rho; it does not change the verdict, so a
    defect of second order in it fails like any other.
    """
    _check_first_order(rho, first_order_in)
    desc = f"huang_check({rho.render()})"
    dA = int(A.degree(inst.algebra))
    rho = rho.padded(D + window + dA + 2)
    Bt = _t_series(R_inverse_apply(inst, rho.shifted(_T), A),
                   window + D + dA)
    return _transformation_check(inst, A, Bt, rho, window, D, desc)


def primary_differential_check(inst, A: State, rho: CoordChange, window: int,
                               D: int,
                               first_order_in: str | None = None) -> CoordReport:
    """For a primary A of weight Delta, Y(A,z)(dz)^Delta is invariant:

        Y(A,t) = R(rho) Y(rho'(t)^{Delta} A, rho(t)) R(rho)^{-1},

    the specialization of the transformation formula, since R(rho_t)^{-1}
    acts on a primary by rho_t,1^{L_0} = rho'(t)^{Delta}.  Compared
    exactly, as in `huang_check`.
    """
    _check_first_order(rho, first_order_in)
    alg = inst.algebra
    dA = A.degree(alg)
    ops = OperatorCache(alg)
    omega = ops.field(inst.conformal)
    for n in range(1, int(dA) + 2):
        if not ops.apply(omega, alg.to_units(n), A).is_zero:
            raise NotPrimary(f"L_{n} does not annihilate the state")
    if dA.denominator != 1:
        raise ValueError("primary check needs an integral weight")
    desc = f"primary_differential_check({rho.render()})"
    rho = rho.padded(D + window + dA + 2)
    Bt = {e: A.scale(c) for e, c in
          _derivative_power(rho, dA, window + D + dA).items()}
    return _transformation_check(inst, A, Bt, rho, window, D, desc)
