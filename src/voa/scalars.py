"""Exact scalars: rational functions in named formal parameters over Q.

A Scalar is a reduced fraction num/den of multivariate polynomials with
rational coefficients, each held as an int when it is integral and as a
Fraction otherwise.  Canonical form: gcd(num, den) = 1 and the leading
coefficient of den (graded lexicographic order, variables sorted
alphabetically) is 1.  Scalars are immutable and hashable.

A Scalar without parameters is stored as a bare number, an int when it is
integral and a Fraction otherwise, and its canonical polynomials (the
constant num, den = 1) are built only when read.  Most coefficients of a
vertex algebra without symbolic parameters are such plain rationals, most of
them integers, and their arithmetic never touches a Poly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtPoint(ArithmeticError):
    """Raised when a denominator vanishes under a parameter assignment."""


# A monomial is a tuple of (name, exponent) pairs, sorted by name,
# exponents > 0.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def _integral(t: dict) -> dict:
    """t with each integral Fraction value replaced by its int, in place."""
    for m, c in t.items():
        if type(c) is not int and c.denominator == 1:
            t[m] = c.numerator
    return t


class Poly:
    """Multivariate polynomial with rational coefficients.

    A coefficient is an int when it is integral and a Fraction otherwise,
    so that the arithmetic of integral coefficients runs on ints and no
    float appears.  Every operation returns its coefficients in that form;
    an int and a Fraction of equal value compare and hash equal, so
    equality, hashing, `key()` and rendering do not depend on the form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict Mono -> int or non-integral Fraction, zeros removed
        self.terms = terms or {}

    @staticmethod
    def const(c) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        return Poly({(): c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        return Fraction(self.terms.get((), 0))

    def variables(self):
        vs = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return sorted(vs)

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if not s:
                t.pop(m, None)
            elif type(s) is int or s.denominator != 1:
                t[m] = s
            else:
                t[m] = s.numerator
        return Poly(t)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        if other.is_constant:
            return self.scale(other.terms[()])
        if self.is_constant:
            return other.scale(self.terms[()])
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = t.get(m, 0) + c1 * c2
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        return Poly(_integral(t))

    def scale(self, c) -> "Poly":
        """self times a rational c (an int or a Fraction)."""
        if c == 1:
            return self
        if not c:
            return Poly()
        return Poly(_integral({m: a * c for m, a in self.terms.items()}))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of Poly")
        r = Poly.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __reduce__(self):
        # a slotted class has no state that pickle protocols 0 and 1 read
        return Poly, (self.terms,)

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def _grlex_key(self, mono: Mono, varlist) -> tuple:
        exps = dict(mono)
        return (_mono_degree(mono),) + tuple(exps.get(v, 0) for v in varlist)

    def _lead(self):
        """Leading (mono, coeff) under grlex with alphabetical variables,
        the coefficient as held in `terms`."""
        varlist = self.variables()
        m = max(self.terms, key=lambda mo: self._grlex_key(mo, varlist))
        return m, self.terms[m]

    def leading(self):
        """Leading (mono, coeff) under grlex with alphabetical variables,
        the coefficient as a Fraction."""
        m, c = self._lead()
        return m, Fraction(c)

    def evaluate(self, point: dict) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, e in m:
                if name not in point:
                    raise KeyError(f"parameter {name!r} not assigned")
                v *= Fraction(point[name]) ** e
            total += v
        return total

    # --- univariate view (for gcd) -------------------------------------

    def _as_univariate(self, x: str) -> dict:
        """dict degree-in-x -> Poly in remaining variables."""
        # each monomial splits into one (degree, rest) pair, so every
        # coefficient moves over as it is
        out: dict = {}
        for m, c in self.terms.items():
            d = 0
            rest = []
            for v, e in m:
                if v == x:
                    d = e
                else:
                    rest.append((v, e))
            out.setdefault(d, {})[tuple(rest)] = c
        return {d: Poly(t) for d, t in out.items()}

    @staticmethod
    def _from_univariate(x: str, coeffs: dict) -> "Poly":
        """The inverse of `_as_univariate`: coeffs maps each degree in x to
        a nonzero Poly free of x, so every coefficient moves over as it is."""
        t: dict = {}
        for d, p in coeffs.items():
            for m, c in p.terms.items():
                t[_mono_mul(m, ((x, d),) if d else ())] = c
        return Poly(t)

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"


def poly_derivative(p: Poly, name: str) -> Poly:
    """Formal partial derivative with respect to one variable."""
    out: dict = {}
    for mono, c in p.terms.items():
        exps = dict(mono)
        e = exps.get(name, 0)
        if not e:
            continue
        exps[name] = e - 1
        new = tuple(sorted((v, k) for v, k in exps.items() if k))
        out[new] = c * e
    return Poly(_integral(out))


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError if not divisible."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero:
        return Poly()
    if b.is_constant:
        return _over(a, b.terms[()])
    x = b.variables()[0]
    ua = a._as_univariate(x)
    ub = b._as_univariate(x)
    db = max(ub)
    lead_b = ub[db]
    q: dict = {}
    rem = dict(ua)
    while rem:
        da = max(rem)
        if da < db:
            raise ValueError("not divisible")
        c = _poly_divexact(rem[da], lead_b)
        q[da - db] = c
        for d, p in ub.items():
            nd = da - db + d
            cur = rem.get(nd, Poly()) - c * p
            if cur.is_zero:
                rem.pop(nd, None)
            else:
                rem[nd] = cur
    return Poly._from_univariate(x, q)


def _content(coeffs) -> Poly:
    return reduce(poly_gcd, coeffs, Poly())


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Multivariate gcd via content / primitive-part recursion.

    Operands with different variable sets reduce to the gcd of their
    coefficients over the variables they do not share, which stops at the
    first constant; gcd(num(k, eps), (k+2)^n) becomes gcds in k alone.
    Result is normalized to leading coefficient 1 (grlex).
    """
    if a.is_zero and b.is_zero:
        return Poly()
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    if a.is_constant or b.is_constant:
        return Poly.const(1)
    avars, bvars = a.variables(), b.variables()
    common = [v for v in avars if v in bvars]
    if not common:
        return Poly.const(1)
    if len(common) < len(avars) or len(common) < len(bvars):
        # A common factor involves the shared variables only, so it divides
        # each coefficient of a and of b over the variables not shared.
        g = Poly()
        for p in sorted(_coefficients(a, common) + _coefficients(b, common),
                        key=lambda p: len(p.terms)):
            g = poly_gcd(g, p)
            if g.is_constant:
                break
        return g
    x = common[0]
    ua, ub = a._as_univariate(x), b._as_univariate(x)
    ca, cb = _content(list(ua.values())), _content(list(ub.values()))
    pa = {d: _poly_divexact(p, ca) for d, p in ua.items()}
    pb = {d: _poly_divexact(p, cb) for d, p in ub.items()}
    cont = poly_gcd(ca, cb)
    # primitive PRS on pa, pb
    f, g = pa, pb
    if max(f) < max(g):
        f, g = g, f
    while True:
        r = _pseudo_rem(f, g, x)
        if not r:
            break
        cr = _content(list(r.values()))
        r = {d: _poly_divexact(p, cr) for d, p in r.items()}
        f, g = g, r
    gp = Poly._from_univariate(x, g)
    return _monic(cont * gp)


def _coefficients(p: Poly, keep) -> list:
    """The coefficients of p, as polynomials in `keep`, over the other
    variables."""
    out: dict = {}
    for m, c in p.terms.items():
        inner = tuple(ve for ve in m if ve[0] in keep)
        outer = tuple(ve for ve in m if ve[0] not in keep)
        out.setdefault(outer, {})[inner] = c
    return [Poly(t) for t in out.values()]


def _pseudo_rem(f: dict, g: dict, x: str) -> dict:
    df, dg = max(f), max(g)
    lg = g[dg]
    rem = dict(f)
    while rem and max(rem) >= dg:
        dr = max(rem)
        lr = rem[dr]
        new: dict = {}
        for d, p in rem.items():
            new[d] = p * lg
        for d, p in g.items():
            nd = dr - dg + d
            cur = new.get(nd, Poly()) - lr * p
            new[nd] = cur
        rem = {d: p for d, p in new.items() if not p.is_zero}
    return rem


def _monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, c = p._lead()
    return _over(p, c)


def _over(p: Poly, c) -> Poly:
    """p divided by a nonzero rational c, through Fraction so that no float
    appears."""
    return p if c == 1 else p.scale(Fraction(1) / c)


class Scalar:
    """Reduced rational function in named parameters over Q.

    A Scalar has one of two forms.  A plain rational (no parameter) holds
    only its value in `_frac`, as an int when the value is integral and as
    a Fraction otherwise; its `num` and `den` polynomials are built on first
    use.  A parametric Scalar holds canonical `num` and `den` and `_frac` is
    None.  Every constructor that yields a rational value sets `_frac` in
    that form, so equal scalars compare and hash equal whichever path built
    them (an int and a Fraction of equal value hash equal too).  Arithmetic
    on two rationals works on the bare values alone, and a division goes
    through Fraction so that no float appears; `as_fraction` and `evaluate`
    return a Fraction.  A rational meeting a parametric Scalar in `+`, `-`,
    `*` or `/` scales or shifts the numerator, which keeps the canonical
    form without a gcd.
    """

    __slots__ = ("_num", "_den", "_frac")

    def __init__(self, num: Poly, den: Poly = None, _canonical=False):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if not _canonical:
            num, den = _reduce(num, den)
        self._num = num
        self._den = den
        # plain-rational value, or None when parameters appear
        if num.is_constant and den.is_constant:
            n = num.terms.get((), 0)
            d = den.terms[()]
            v = n if d == 1 else Fraction(n) / d
            self._frac = v.numerator if v.denominator == 1 else v
        else:
            self._frac = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "Scalar":
        if type(c) is not int:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c.denominator != 1:
                return _rational(c)
            c = c.numerator
        s = _SMALL_INTS.get(c)
        return s if s is not None else _rational(c)

    @staticmethod
    def param(name: str) -> "Scalar":
        return Scalar(Poly.var(name), Poly.const(1), _canonical=True)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    # -- canonical polynomials ------------------------------------------

    @property
    def num(self) -> Poly:
        if self._num is None:
            self._num = Poly.const(self._frac)
        return self._num

    @property
    def den(self) -> Poly:
        if self._den is None:
            self._den = Poly.const(1)
        return self._den

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        # zero is always held in the rational form
        f = self._frac
        return f is not None and not f

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self._frac)

    def parameters(self):
        if self._frac is not None:
            return []
        return sorted(set(self._num.variables()) | set(self._den.variables()))

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_fraction(x)
        return NotImplemented

    def _scaled(self, c: Fraction) -> "Scalar":
        """Parametric self times a rational c: gcd and monic den unchanged."""
        if c == 1:
            return self
        if not c:
            return _ZERO
        return Scalar(self._num.scale(c), self._den, _canonical=True)

    def _shifted(self, c: Fraction) -> "Scalar":
        """Parametric self plus a rational c: gcd(num + c*den, den) = 1."""
        if not c:
            return self
        return Scalar(self._num + self._den.scale(c), self._den,
                      _canonical=True)

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._frac, other._frac
        if a is not None:
            if b is not None:
                return Scalar.from_fraction(a + b)
            return other._shifted(a)
        if b is not None:
            return self._shifted(b)
        if self._den == other._den:
            # a polynomial sum (den 1) needs no products and no gcd
            return Scalar(self._num + other._num, self._den)
        return Scalar(self._num * other._den + other._num * self._den,
                      self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        if self._frac is not None:
            return Scalar.from_fraction(-self._frac)
        return Scalar(-self._num, self._den, _canonical=True)

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._frac, other._frac
        if b is not None:
            if a is not None:
                return Scalar.from_fraction(a * b)
            return self._scaled(b)
        if a is not None:
            return other._scaled(a)
        return Scalar(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero Scalar")
        a, b = self._frac, other._frac
        if b is not None:
            if a is not None:
                return Scalar.from_fraction(Fraction(a) / b)
            return self._scaled(Fraction(1) / b)
        return Scalar(self.num * other._den, self.den * other._num)

    def __rtruediv__(self, other):
        return Scalar._coerce(other) / self

    def __pow__(self, n: int):
        if n == 0:
            return _ONE
        if n < 0:
            return _ONE / (self ** (-n))
        if self._frac is not None:
            return Scalar.from_fraction(self._frac ** n)
        return Scalar(self._num ** n, self._den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._frac is not None and self._frac == other
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self._frac, other._frac
        if a is not None or b is not None:
            return a is not None and b is not None and a == b
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._frac is not None:
            return hash(self._frac)
        return hash((self._num.key(), self._den.key()))

    def __reduce__(self):
        if self._frac is not None:
            return _rational, (self._frac,)
        return Scalar, (self._num, self._den, True)

    def evaluate(self, point) -> Fraction:
        """Substitute rational values for all parameters and reduce."""
        if self._frac is not None:
            return Fraction(self._frac)
        if isinstance(point, ParamPoint):
            point = point.values
        d = self._den.evaluate(point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return self._num.evaluate(point) / d

    def __repr__(self):
        return f"Scalar({render_scalar(self)})"

    def __str__(self):
        return render_scalar(self)


def _reduce(num: Poly, den: Poly):
    if num.is_zero:
        return Poly(), Poly.const(1)
    if den.is_constant:
        return _over(num, den.terms[()]), Poly.const(1)
    g = poly_gcd(num, den)
    if not (g.is_constant and g.terms[()] == 1):
        num = _poly_divexact(num, g)
        den = _poly_divexact(den, g)
    _, lc = den._lead()
    return _over(num, lc), _over(den, lc)


def _rational(c) -> Scalar:
    """The plain-rational Scalar of an int or a non-integral Fraction."""
    s = object.__new__(Scalar)
    s._frac = c
    s._num = s._den = None
    return s


# the small integers that mode actions scale by all the time, built once
_SMALL_INTS = {i: _rational(i) for i in range(-16, 17)}
_ZERO = _SMALL_INTS[0]
_ONE = _SMALL_INTS[1]


class ParamPoint:
    """Assignment of exact rational values to parameter names; two points
    are equal, and hash equal, when they assign the same values."""

    __slots__ = ("values",)

    def __init__(self, **values):
        self.values = {k: Fraction(v) for k, v in values.items()}

    def __getitem__(self, name):
        return self.values[name]

    def __eq__(self, other):
        if not isinstance(other, ParamPoint):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(frozenset(self.values.items()))

    def __reduce__(self):
        return ParamPoint, (), (None, {"values": self.values})

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"ParamPoint({inner})"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_mono(m: Mono) -> str:
    parts = []
    for v, e in m:
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def render_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    varlist = p.variables()
    monos = sorted(p.terms, key=lambda mo: p._grlex_key(mo, varlist), reverse=True)
    out = []
    for m in monos:
        c = p.terms[m]
        ms = _render_mono(m)
        if not ms:
            term = str(c)
        elif c == 1:
            term = ms
        elif c == -1:
            term = f"-{ms}"
        else:
            term = f"{c}*{ms}"
        if out and not term.startswith("-"):
            out.append("+" + term)
        else:
            out.append(term)
    return "".join(out)


def render_scalar(s: Scalar) -> str:
    # Clear coefficient denominators into the displayed denominator so that
    # c * 1/2 prints as "c/2" rather than "1/2*c", and a constant as
    # str(Fraction).
    from math import lcm, gcd
    denoms = [v.denominator for v in s.num.terms.values()]
    denoms += [v.denominator for v in s.den.terms.values()]
    scale = lcm(*denoms) if denoms else 1
    num, den = s.num.scale(scale), s.den.scale(scale)
    ints = [abs(v.numerator) for v in num.terms.values()]
    ints += [abs(v.numerator) for v in den.terms.values()]
    g = gcd(*ints) if ints else 1
    if g > 1:
        num, den = num.scale(Fraction(1, g)), den.scale(Fraction(1, g))
    ns = render_poly(num)
    if den.is_constant and den.constant_value() == 1:
        return ns
    ds = render_poly(den)
    if len(num.terms) > 1 or "/" in ns:
        ns = f"({ns})"
    if len(den.terms) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# Parsing: integers, parameter names, + - * / ^ and parentheses.
# ---------------------------------------------------------------------------

class ScalarParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


def parse_scalar(text: str) -> Scalar:
    p = _Parser(text)
    v = p.parse_expr()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ScalarParseError("unexpected trailing input", p.pos)
    return v


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_expr(self) -> Scalar:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            v = -self.parse_term()
        else:
            v = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                v = v + self.parse_term()
            elif ch == "-":
                self.pos += 1
                v = v - self.parse_term()
            else:
                return v

    def parse_term(self) -> Scalar:
        v = self.parse_power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                v = v * self.parse_power()
            elif ch == "/":
                self.pos += 1
                v = v / self.parse_power()
            else:
                return v

    def parse_power(self) -> Scalar:
        v = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ScalarParseError("expected integer exponent", start)
            e = int(self.text[start:self.pos])
            v = v ** (-e if neg else e)
        return v

    def parse_atom(self) -> Scalar:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.parse_expr()
            if self.peek() != ")":
                raise ScalarParseError("expected ')'", self.pos)
            self.pos += 1
            return v
        if ch == "-":
            self.pos += 1
            return -self.parse_atom()
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Scalar.from_fraction(int(self.text[start:self.pos]))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                    self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            return Scalar.param(self.text[start:self.pos])
        raise ScalarParseError("expected number, name or '('", self.pos)

