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

Truncated power series are one type, `Series`: exact modulo t^(n+1), with
Scalar coefficients (or Series ones, for a series in z over series in t).
Huang's identity Y(A,t) = R(rho) Y(R(rho_t)^{-1} A, rho(t)) R(rho)^{-1}
(rho_t(z) = rho(t+z) - rho(t)) is verified on matrix elements compared as
Laurent series in t up to a window t^window.  Both sides are one
function, `_field_series`, of sum_j t^j Y(B_j, rho(t)) v as {t-exponent:
State} with t-free coefficients in Q(params), its fields read by
z-exponent (`OperatorCache.coeff`): B is carried as its t-series {j: B_j}
(the direct side is B = A at rho(t) = t), and rho(t)^m = t^m U(t)^m is a
truncated series in t (U = rho_1 + rho_2 t + ... is a unit).  B of
`huang_check` is R(rho_t)^{-1} A with the coefficients of rho_t, and so its
charges, Series in t: R acts on {t-exponent: State} series throughout, and
no Scalar depends on t.
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


class Series:
    """sum_k c[k] t^k modulo t^(n+1), n = len(c) - 1, exactly.

    Coefficients are Scalars, or Series in another variable: a series in z
    over series in t needs only their `+`, `*` and `is_zero`.  A Scalar
    operand is a constant (`*` also takes an int or Fraction), and an
    operation keeps the shorter of two truncations.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.c)

    def _coeffs(self, other) -> list:
        if isinstance(other, Series):
            return other.c
        return [other] + [Scalar.zero()] * (len(self.c) - 1)

    def __add__(self, other) -> "Series":
        return Series(a if b.is_zero else a + b
                      for a, b in zip(self.c, self._coeffs(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return Series(a if b.is_zero else a - b
                      for a, b in zip(self.c, self._coeffs(other)))

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(a if a.is_zero else a * other for a in self.c)
        n = min(len(self.c), len(other.c))
        out = [Scalar.zero()] * n
        for i, a in enumerate(self.c[:n]):
            if a.is_zero:
                continue
            for j, b in enumerate(other.c[:n - i]):
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, unit: "Series") -> "Series":
        return self * unit.inverse()

    def inverse(self) -> "Series":
        """1/self, term by term; the constant term must be invertible."""
        inv0 = Scalar.one() / self.c[0]
        out = [inv0]
        for k in range(1, len(self.c)):
            acc = Scalar.zero()
            for i in range(1, k + 1):
                if not self.c[i].is_zero:
                    acc = acc + self.c[i] * out[k - i]
            out.append(-(inv0 * acc))
        return Series(out)

    def __pow__(self, m: int) -> "Series":
        base = self.inverse() if m < 0 else self
        out = Series([Scalar.one()] + [Scalar.zero()] * (len(self.c) - 1))
        for _ in range(abs(m)):
            out = out * base
        return out


def _coerce_scalar(x):
    # Series coefficients are those of rho_t in `huang_check`
    return x if isinstance(x, (Scalar, Series)) else Scalar.from_fraction(x)


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
        z = Series((Scalar.zero(),) + self.coeffs)  # self(z) to z^M
        out = sum((z ** j * c for j, c in enumerate(other.coeffs, 1)),
                  Scalar.zero())
        return CoordChange(tuple(out.c[1:]))

    def inverse(self) -> "CoordChange":
        """mu with mu(self(z)) = z modulo z^{M+1}; only tests use it, as a
        group-law oracle.

        By Lagrange inversion mu_k = [z^(k-1)] U(z)^(-k) / k, with
        U = rho_1 + rho_2 z + ... = self(z) / z.
        """
        U = Series(self.coeffs)
        return CoordChange(tuple((U ** -k).c[k - 1] / k
                                 for k in range(1, self.order + 1)))

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

    def _shifted(self, K: int, top: int) -> "CoordChange":
        """rho_t(z) = rho(t + z) - rho(t) to z^K, for `huang_check`: its
        coefficient rho_t,k = sum_i C(i,k) rho_i t^(i-k) is a Series in t
        cut at t^top."""
        return CoordChange(tuple(
            Series(self.coefficient(k + i) * comb(k + i, k)
                   for i in range(top + 1))
            for k in range(1, K + 1)))

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
    """Coefficients z^0..z^M of exp(sum_j charges[j-1] z^{j+1} d/dz) z.

    The vector field sends f to (z f') W with W = sum_j charges[j-1] z^j,
    so each term of the exponential is (z f') W / n for the one before.
    """
    zero = Scalar.zero()
    w = Series([zero] + list(charges[:M]) + [zero] * (M - len(charges)))
    cur = out = Series([zero, Scalar.one()] + [zero] * (M - 1))
    n = 0
    while True:
        n += 1
        euler = Series(c if c.is_zero else c * k for k, c in enumerate(cur.c))
        cur = euler * w * Fraction(1, n)
        if cur.is_zero:
            return out.c
        out = out + cur


def decompose(rho: CoordChange) -> VirasoroCharge:
    """Solve for the charges so that reconstruct(decompose(rho)) == rho."""
    M = rho.order
    r1 = rho.coeffs[0]
    unit = [c / r1 for c in rho.coeffs]
    charges = [Scalar.zero()] * (M - 1)
    for j in range(1, M):
        # the coefficient of z^(j+1) needs the exponential only to z^(j+1)
        cur = _exp_vector_field(charges, j + 1)
        charges[j - 1] = unit[j] - cur[j + 1]
    return VirasoroCharge(r1, tuple(charges))


def reconstruct(charge: VirasoroCharge) -> CoordChange:
    M = charge.order
    series = _exp_vector_field(charge.charges, M)
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


def _top_degree(alg, A: State) -> int:
    return int(max(A.degrees(alg), default=0))


def _as_series(x) -> Series:
    """A Scalar as the constant series, which R reads to t^0 only."""
    return x if isinstance(x, Series) else Series([x])


def _nonzero(series: dict) -> dict:
    """A t-series without its zero terms, by increasing exponent."""
    return {e: st for e, st in sorted(series.items()) if not st.is_zero}


class _ROperator:
    """R(rho) and its inverse with rho decomposed and omega cleared once.

    Both act on t-series {t-exponent: State}.  The charges of rho are Series
    in t: a change with Scalar coefficients has constant charges, read to
    t^0, and the rho_t of `huang_check` has Series coefficients, cut at the
    last t-exponent the check reads, so R(rho_t)^{-1} A comes out as its
    t-series.  A transformation check builds one for its rho and applies it
    to many states; it lives only as long as the check, and so does its
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
        charge = decompose(rho)
        self.scaling = _as_series(charge.scaling)
        self.charges = [_as_series(v) for v in charge.charges]
        self.n = len(self.scaling.c)  # t^0..t^(n-1) are kept
        self.powers = {}
        self.q = _common_denominator(inst.conformal.terms.values())
        self.ops = OperatorCache(self.alg)
        self.s = self.ops.field(inst.conformal.scale(self.q))

    def _scaling_power(self, series: dict, sign: int) -> dict:
        """scaling^{sign * L_0}: the degree-d piece of each t^e term times
        scaling^(sign*d), whose t^i term lands on t^(e+i)."""
        pieces = {}
        for e, st in series.items():
            for mono, c in st.terms.items():
                d = self.alg.mono_degree(mono)
                pieces.setdefault((e, d), {})[mono] = c
        out = {}
        for (e, d), terms in pieces.items():
            if d.denominator != 1:
                raise ValueError(
                    "scaling^{L_0} needs integral degrees; got degree %s" % d)
            k = sign * int(d)
            if k not in self.powers:
                self.powers[k] = (self.scaling ** k).c
            piece = State(terms)
            for i, s in enumerate(self.powers[k][:self.n - e]):
                out.setdefault(e + i, []).append((piece, s))
        return _nonzero({e: State.sum(pairs) for e, pairs in out.items()})

    def _lower(self, v: dict, sign: int) -> dict:
        """exp(sign * sum_j v_j L_j) v; exact since L_j lowers degree.

        Denominators are cleared first: omega = S / q, with `s` the field
        of S in `ops`, so S_[j] = q L_j, and likewise v_j = w_j / r and
        v = V / p, all of S, w_j and V free of denominators (r and p over
        every t-coefficient).  The powers C_n = (sum_j w_j S_[j])^n V then
        carry polynomial coefficients, whose adds and products form no gcd,
        and

            exp(...) v = sum_{n <= N} sign^n (N!/n!) (q r)^(N-n) C_n
                         / (N! (q r)^N p),

        with N the last nonzero power, is summed as polynomials too and
        divided once.
        """
        top = max((_top_degree(self.alg, st) for st in v.values()), default=0)
        charges = self.charges[:top]
        r = _common_denominator(c for vj in charges for c in vj.c)
        w = [vj * r for vj in charges]
        p = _common_denominator(c for st in v.values()
                                for c in st.terms.values())
        qr = self.q * r
        cur = acc = {e: st.scale(p) for e, st in v.items()}
        den = p
        u = self.alg.unit
        zero = State.zero()
        n = 0
        while True:
            n += 1
            pairs = {}
            for j, wj in enumerate(w, start=1):
                if wj.is_zero:
                    continue
                for e, st in cur.items():
                    lowered = self.ops.apply(self.s, j * u, st)
                    for i, c in enumerate(wj.c[:self.n - e]):
                        if not c.is_zero:
                            pairs.setdefault(e + i, []).append((lowered, c))
            cur = _nonzero({e: State.sum(ps) for e, ps in pairs.items()})
            if not cur:
                return _nonzero({e: st.scale(Scalar.one() / den)
                                 for e, st in acc.items()})
            den = den * qr * n
            acc = {e: acc.get(e, zero).scale(qr * n) +
                   cur.get(e, zero).scale(sign ** n)
                   for e in sorted(acc.keys() | cur.keys())}

    def apply(self, A: dict) -> dict:
        return self._lower(self._scaling_power(A, -1), -1)

    def inverse(self, A: dict) -> dict:
        return self._scaling_power(self._lower(A, +1), +1)


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
    R = _ROperator(inst, _acting_prefix(inst, rho, A))
    return R.apply({0: A}).get(0, State.zero())


def R_inverse_apply(inst, rho: CoordChange, A: State) -> State:
    """R(rho)^{-1} A = rho_1^{+L_0} exp(+sum_j v_j L_j) A.

    Like `R_apply`, decomposes only rho_1..rho_{top+1}.
    """
    R = _ROperator(inst, _acting_prefix(inst, rho, A))
    return R.inverse({0: A}).get(0, State.zero())


# ---------------------------------------------------------------------------
# Laurent expansion of Scalars in one parameter
# ---------------------------------------------------------------------------

def laurent_coefficients(s: Scalar, name: str, top: int) -> dict:
    """{exponent: Scalar} of s as a Laurent series in `name`, up to `top`.

    Nothing in the checks calls it: the tests expand rational functions with
    it, as an oracle of `Series`, and it shares no code with that type.
    """
    if s.is_zero:
        return {}
    num = s.num._as_univariate(name)
    den = s.den._as_univariate(name)
    j0 = min(den)
    unit = {i - j0: Scalar(p) for i, p in den.items()}
    n_min = min(num)
    # inv[k] = coefficient of t^k in 1/unit
    inv = [Scalar.one() / unit[0]]
    for k in range(1, top + j0 - n_min + 1):
        acc = Scalar.zero()
        for i, u in unit.items():
            if 1 <= i <= k:
                acc = acc + u * inv[k - i]
        inv.append(-(inv[0] * acc))
    out = {}
    for e in range(n_min - j0, top + 1):
        # coefficient of t^e in num * inverse(unit) * t^{-j0}
        total = Scalar.zero()
        for i, p in num.items():
            k = e + j0 - i
            if k >= 0:
                total = total + Scalar(p) * inv[k]
        if not total.is_zero:
            out[e] = total
    return out


# ---------------------------------------------------------------------------
# Huang's transformation formula
# ---------------------------------------------------------------------------

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

    U(t) = rho_1 + rho_2 t + ... is a unit (rho_1 != 0), so every integer
    power of it is a Series.  Only the exponents m..top exist, and every
    coefficient is free of t.
    """
    if top < m:
        return {}
    unit = Series(rho.coefficient(k) for k in range(1, top - m + 2))
    return {m + k: c for k, c in enumerate((unit ** m).c) if not c.is_zero}


def _derivative_power(rho: CoordChange, n: int, top: int) -> dict:
    """rho'(t)^n up to t^top, n >= 0."""
    slope = Series(rho.coefficient(k) * k for k in range(1, top + 2))
    return {e: c for e, c in enumerate((slope ** n).c) if not c.is_zero}


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
    zero = State.zero()
    for d in range(D + 1):
        for mono in basis_monomials(alg, d, 0):
            v = State.monomial(mono)
            lhs = _field_series(R.ops, {0: A}, v, lambda m: {m: Scalar.one()},
                                D, window)
            inv_v = R.inverse({0: v}).get(0, zero)
            # the charges of rho are constants, which R keeps to t^0 only,
            # so each t-exponent of the series goes through R alone
            rhs = {e: R.apply({0: st}).get(0, zero) for e, st in
                   _field_series(R.ops, Bt, inv_v, rho_power, reach,
                                 window).items()}
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
    are compared exactly as Laurent series in t up to t^window.  The
    inserted state is the t-series {t-exponent: State} of R(rho_t)^{-1} A:
    the coefficients of rho_t and its charges are Series in t cut at
    t^(window + D + deg A), the last exponent that reaches the window, and
    only rho_t,1..rho_t,{deg A + 1}, all that acts on A, are built.
    `first_order_in` only names the small parameter of an infinitesimal
    change and must occur in rho; it does not change the verdict, so a
    defect of second order in it fails like any other.
    """
    _check_first_order(rho, first_order_in)
    desc = f"huang_check({rho.render()})"
    dA = int(A.degree(inst.algebra))
    top = window + D + dA
    # R(rho) reads the charges v_1..v_top, which need rho_1..rho_{top+1}
    rho = rho.padded(top + 1)
    Bt = _ROperator(inst, rho._shifted(dA + 1, top)).inverse({0: A})
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
    # R(rho) reads the charges up to v_(D+window+dA), which need rho to
    # one coefficient more
    rho = rho.padded(D + window + dA + 1)
    Bt = {e: A.scale(c) for e, c in
          _derivative_power(rho, dA, window + D + dA).items()}
    return _transformation_check(inst, A, Bt, rho, window, D, desc)
