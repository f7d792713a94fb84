import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from voa import get_preset, verify_axioms
from voa import scalars as scalars_module
from voa.fock import PbwMonomial, State
from voa.scalars import (
    Scalar, ParamPoint, Poly, PoleAtPoint, DivisionByZero,
    parse_scalar, poly_gcd, render_scalar, ScalarParseError,
)


def S(text):
    return parse_scalar(text)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def scalars(draw):
    # small rational functions in k built from rationals and the variable
    base = draw(st.sampled_from(["k", "c", "1", "2", "-1"]))
    q = draw(rationals)
    s = Scalar.param(base) if base in ("k", "c") else Scalar.from_fraction(Fraction(base))
    return s + Scalar.from_fraction(q)


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    def test_add_assoc(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(scalars(), scalars(), scalars())
    def test_mul_assoc(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars(), scalars(), scalars())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars(), scalars())
    def test_comm(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars())
    def test_sub_self(self, a):
        assert (a - a).is_zero

    @given(scalars())
    def test_div_self(self, a):
        if not a.is_zero:
            assert a / a == Scalar.one()

    @given(scalars(), scalars())
    def test_div_roundtrip(self, a, b):
        if not b.is_zero:
            assert (a / b) * b == a


class TestCanonicalForm:
    def test_gcd_cancellation(self):
        a = S("(k^2-1)/(k^2+2*k+1)")
        assert a == S("(k-1)/(k+1)")
        assert str(a) == "(k-1)/(k+1)"

    def test_sign_normalization(self):
        assert S("1/(-k)") == S("-1/k")
        assert str(S("k/(2-2*k)")) == str(S("(-k)/(2*k-2)"))

    def test_rational_constants(self):
        assert S("6/4") == Scalar.from_fraction(Fraction(3, 2))
        assert S("2^-2") == Scalar.from_fraction(Fraction(1, 4))


# monomials 1, k, c, c*k, k^2 in Poly's (name, exponent) form
_SMALL_MONOS = [(), (("k", 1),), (("c", 1),), (("c", 1), ("k", 1)),
                (("k", 2),)]


@st.composite
def fractions_of_polys(draw):
    """(num, den): small polynomials in k and c, den nonzero."""
    def poly():
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=5, max_size=5))
        return Poly({m: Fraction(a) for m, a in zip(_SMALL_MONOS, coeffs)
                     if a})
    num, den = poly(), poly()
    assume(not den.is_zero)
    return num, den


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(fractions_of_polys(), fractions_of_polys(), rationals, rationals)
    def test_evaluate_is_a_ring_homomorphism(self, a, b, k, c):
        # the expected values come from the unreduced polynomials, so the
        # oracle shares no code with the gcd reduction of Scalar
        point = {"k": k, "c": c}
        (an, ad), (bn, bd) = a, b
        assume(ad.evaluate(point) != 0 and bd.evaluate(point) != 0)
        av = an.evaluate(point) / ad.evaluate(point)
        bv = bn.evaluate(point) / bd.evaluate(point)
        x, y = Scalar(an, ad), Scalar(bn, bd)
        assert x.evaluate(point) == av and y.evaluate(point) == bv
        for op in (operator.add, operator.sub, operator.mul):
            assert op(x, y).evaluate(point) == op(av, bv)
        if bv:
            assert (x / y).evaluate(point) == av / bv

    def test_central_charge_formula(self):
        c = S("1-12*lam^2")
        assert c.evaluate(ParamPoint(lam=Fraction(1, 2))) == Fraction(-2)
        assert c.evaluate(ParamPoint(lam=0)) == 1

    def test_sugawara_coefficient(self):
        s = S("3*k/(k+2)")
        assert s.evaluate(ParamPoint(k=1)) == 1
        with pytest.raises(PoleAtPoint):
            s.evaluate(ParamPoint(k=-2))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            S("k") / Scalar.zero()


def P(text):
    """The numerator polynomial of a parsed polynomial expression."""
    s = S(text)
    assert s.den == Poly.const(1)
    return s.num


class TestPolyGcd:
    @pytest.mark.parametrize("a, b, want", [
        ("eps*(k+2)^2", "(k+2)^3", "(k+2)^2"),
        ("eps*k + 1", "k + 2", "1"),
        ("eps + 1", "k + 2", "1"),
        ("eps^2 - 1", "c*k + 3", "1"),
        ("(k+1)*(c*k + 2*c^2 - k)", "(k+1)*(eps*k^2 + 2*eps - 3)", "k+1"),
        ("(k+1)*(c+k)*eps", "(k+1)^2*(c+k)*lam + (c+k)", "c+k"),
        ("(2*k+4)*eps^2 + (k^2-4)*eps", "3*k^2 + 12*k + 12", "k+2"),
        ("-4*eps*(k+2)*(c-k)", "(k+2)*(c-k)^2", "c*k-k^2+2*c-2*k"),
    ])
    def test_operands_with_different_variables(self, a, b, want):
        g = P(want)
        assert poly_gcd(P(a), P(b)) == g
        assert poly_gcd(P(b), P(a)) == g

    def test_matches_sympy(self):
        # random pairs with a planted common factor, most of them with
        # different variable sets, against sympy's gcd made monic the same way
        sympy = pytest.importorskip("sympy")
        import random
        rng = random.Random(5)
        names = ["c", "eps", "k", "lam"]
        gens = sympy.symbols(names)

        def rand_poly(variables, terms):
            out = sympy.Integer(0)
            for _ in range(terms):
                mono = sympy.Integer(rng.randint(-3, 3))
                for v in variables:
                    mono *= gens[names.index(v)] ** rng.randint(0, 2)
                out += mono
            return out

        def ours(expr):
            return P(str(sympy.expand(expr)).replace("**", "^"))

        for _ in range(120):
            shared = rng.sample(names, rng.randint(1, 2))
            extra = [n for n in names if n not in shared]
            avars = shared + rng.sample(extra, rng.randint(0, len(extra)))
            bvars = shared + rng.sample(extra, rng.randint(0, len(extra)))
            f = rand_poly(shared, rng.randint(1, 3))
            a = sympy.expand(f * rand_poly(avars, rng.randint(1, 3)))
            b = sympy.expand(f * rand_poly(bvars, rng.randint(1, 3)))
            if a == 0 or b == 0:
                continue
            want = ours(sympy.gcd(a, b))
            want = want.scale(1 / want.leading()[1])
            assert poly_gcd(ours(a), ours(b)) == want, (a, b)


class TestParsing:
    def test_roundtrip(self):
        for text in ["k", "3*k/(k+2)", "(k-1)/(k+1)", "-12*lam^2+1", "c/2"]:
            s = S(text)
            assert parse_scalar(render_scalar(s)) == s

    def test_precedence(self):
        assert S("1+2*3") == Scalar.from_fraction(7)
        assert S("2*k^2") == S("2*(k^2)")
        assert S("-k^2") == -S("k^2")

    def test_errors(self):
        for bad in ["", "k+", "(k", "1//2", "k**2"]:
            with pytest.raises(ScalarParseError):
                S(bad)


def _reduced(op, x, y):
    """op(x, y) for + - * through the general gcd-reducing constructor."""
    if op is operator.mul:
        return Scalar(x.num * y.num, x.den * y.den)
    return Scalar(op(x.num * y.den, y.num * x.den), x.den * y.den)


class TestRationalForm:
    """A plain rational is the same Scalar whichever path built it."""

    THREE_BY_OTHER_PATHS = ["3*(k+1)/(k+1)", "(k+3)-k", "6/2", "k*3/k"]

    def _others(self):
        return ([S(t) for t in self.THREE_BY_OTHER_PATHS]
                + [Scalar(Poly.const(3)), Scalar(Poly.const(6), Poly.const(2))])

    def test_equal_hash_and_render(self):
        three = Scalar.from_fraction(3)
        for s in self._others():
            assert s.is_rational and s.as_fraction() == 3
            assert s == three and three == s and s == 3
            assert hash(s) == hash(three)
            assert str(s) == str(three) == "3"
            assert s.num == three.num and s.den == three.den
            assert s.parameters() == []

    def test_finds_same_state_term(self):
        mono = PbwMonomial(0, ((0, -1),))
        fast = State.monomial(mono, Scalar.from_fraction(3))
        memo = {fast: "hit"}
        for s in self._others():
            other = State.monomial(mono, s)
            assert other == fast and hash(other) == hash(fast)
            assert memo[other] == "hit"
            assert (other - fast).is_zero

    def test_zero_by_any_path(self):
        for s in [S("k-k"), Scalar(Poly()), S("3*(k+1)/(k+1)") - 3]:
            assert s.is_zero and s == Scalar.zero() and str(s) == "0"
            assert hash(s) == hash(Scalar.zero())

    @given(rationals, scalars(), scalars(), rationals, rationals)
    def test_mixed_arithmetic_matches_evaluate(self, q, a, b, k, c):
        # s = a/b has a nontrivial denominator in k or c for most draws;
        # its value comes from a and b alone, not from s's canonical form
        assume(not b.is_zero)
        point = ParamPoint(k=k, c=c)
        bv = b.evaluate(point)
        assume(bv != 0)
        s, sv = a / b, a.evaluate(point) / bv
        r = Scalar.from_fraction(q)
        for op in (operator.add, operator.sub, operator.mul):
            for x, y, xv, yv in ((r, s, q, sv), (s, r, sv, q)):
                got = op(x, y)
                assert got.evaluate(point) == op(xv, yv)
                # the shortcut gives the gcd-reduced canonical form
                assert got == _reduced(op, x, y)
        if q:
            assert (s / r).evaluate(point) == sv / q
        if sv:
            assert (r / s).evaluate(point) == q / sv


class TestIntegralValues:
    """Integral plain rationals are held as ints, and no float appears."""

    def test_division_and_readers_give_fractions(self):
        three = Scalar.from_fraction(3)
        assert type(three._frac) is int
        half = three / 2
        assert half == Fraction(3, 2) and type(half._frac) is Fraction
        assert type((Scalar.from_fraction(1) / 3)._frac) is Fraction
        assert type((S("k") / 2).num.terms[(("k", 1),)]) is Fraction
        for s in (three, half, Scalar.from_fraction(Fraction(6, 2))):
            assert type(s.as_fraction()) is Fraction
            assert type(s.evaluate({})) is Fraction
        assert hash(Scalar.from_fraction(Fraction(4))) == \
            hash(Scalar.from_fraction(4))
        assert type(Scalar.from_fraction(Fraction(4))._frac) is int
        assert type(S("6/2")._frac) is int and type(S("3*k/k")._frac) is int

    @staticmethod
    def _scalars(value):
        """Every Scalar in a memo value: States, tuples of them, brackets."""
        if isinstance(value, Scalar):
            yield value
        elif isinstance(value, State):
            yield from value.terms.values()
        elif isinstance(value, tuple):
            for v in value:
                yield from TestIntegralValues._scalars(v)

    @pytest.mark.parametrize("name", ["weyl:1", "fermion", "lattice:1",
                                      "affine:sl2"])
    def test_memo_after_verify_axioms(self, name):
        alg = get_preset(name).algebra
        assert verify_axioms(alg, 2).passed
        seen = 0
        for memo in (alg._apply_memo, alg._bracket_memo):
            for value in memo.values():
                for s in self._scalars(value):
                    seen += 1
                    f = s._frac
                    if f is None:
                        coeffs = list(s.num.terms.values()) + \
                            list(s.den.terms.values())
                        assert all(type(c) is Fraction for c in coeffs)
                        continue
                    assert type(f) in (int, Fraction), (name, f)
                    assert type(f) is int or f.denominator != 1, (name, f)
        assert seen > 100


# parametric operands drawn from the cases above
PARAMETRIC = ["(k^2-1)/(k^2+2*k+1)", "1/(-k)", "k/(2-2*k)", "3*k/(k+2)",
              "(k-1)/(k+1)", "-12*lam^2+1", "c/2", "(k+3)-k", "k*3/k",
              "eps*(k+2)^2", "eps*k + 1", "(k+1)*(c+k)*eps", "k", "c"]


def _copying_mul(self, other):
    """Poly product by the schoolbook loop, constant 1 included."""
    t = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            m = scalars_module._mono_mul(m1, m2)
            t[m] = t.get(m, 0) + c1 * c2
    return Poly({m: c for m, c in t.items() if c})


def test_shared_denominator_add_matches_generic_formula():
    # two parametric Scalars over one denominator add their numerators;
    # the result equals the cross-multiplied sum reduced in full
    nums = [S(t).num for t in PARAMETRIC + ["2", "-k", "1-k", "k+1", "-c"]]
    dens = {S(t).den.key(): S(t).den for t in PARAMETRIC}
    checked = 0
    for den in dens.values():
        if den.is_constant:
            continue
        xs = [x for x in (Scalar(p, den) for p in nums)
              if not x.is_rational and x.den == den]
        for x in xs:
            for y in xs:
                generic = Scalar(x.num * y.den + y.num * x.den, x.den * y.den)
                got = x + y
                assert got == generic and hash(got) == hash(generic)
                assert str(got) == str(generic)
                checked += 1
    assert checked > 100


def test_constant_one_shortcuts_keep_results(monkeypatch):
    # Poly.__mul__ returns the other operand for a constant-1 factor, and
    # _reduce leaves the numerator alone over the constant denominator 1
    p = P("eps*k + 1")
    assert p * Poly.const(1) is p and Poly.const(1) * p is p

    def results():
        xs = [S(t) for t in PARAMETRIC]
        out = []
        for x in xs:
            for y in xs:
                out += [x + y, x - y, x * y, x / y, x * 3, x / 3, 2 - x]
        return out

    fast = results()
    reduce = scalars_module._reduce

    def copying_reduce(num, den):
        if den.is_constant and not num.is_zero:
            return num.scale(1 / den.constant_value()), Poly.const(1)
        return reduce(num, den)

    monkeypatch.setattr(Poly, "__mul__", _copying_mul)
    monkeypatch.setattr(scalars_module, "_reduce", copying_reduce)
    slow = results()
    assert len(fast) == len(slow) == 7 * len(PARAMETRIC) ** 2
    for a, b in zip(fast, slow):
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
