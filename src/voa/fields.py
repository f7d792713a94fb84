"""State-field correspondence and mode actions of composite fields.

Fields are indexed in the weight-shifted convention

    Y(A, z) = sum_p A_[p] z^(-p - wt A),

so A_[p] lowers degree by p.  A field is named by the PBW monomial of its
state, and its modes follow the reconstruction formula

    Y(g(n) R, z) = :(d^j g(z) / j!) Y(R, z):,    j = -n - wt(g) >= 0,

recursing on the word of the monomial: the empty word is the identity field
in sector 0 and the vertex operator of the sector vacuum in a charge sector,
and a single letter g(n) over the vacuum has the modes
binom(-p - wt g, j) g_p.  Generator weights and modes are ints, and so is
j; a field has modes off the integers only on an odd lattice, where a
charge sector can have half-integral energy.

The recursion, the translation operator T and the E-/E+ terms below are
memoized only in the `OperatorCache` of one call; the algebra keeps only
its memo of generator modes (`apply_mode`).  The cache and the recursion
take the mode p as an int in units of 1/u (`ModeAlgebra.unit`: 2 on odd
lattices, else 1), so no Fraction is hashed or added on the way; a real
mode goes in through `ModeAlgebra.to_units` at a caller's boundary and
comes back out only at the leaves, for `apply_mode` and `gbinom`.  The
one-shot `field_mode` and `state_field_mode` take real modes.  Other
callers read Y(X, z) v by z-exponent (`OperatorCache.coeff`), which makes
the shift p = -e - deg X; only the mode loops of `ope` and R(rho) in
`coords` see the unit.

The vertex operator of the charge-m vacuum is

    Y(1_m, z) = E+(z) S_m z^(lam b_0) E-(z),
    E+(z) = exp(lam sum_{n>=1} b_{-n} z^n / n) = sum_k E+_k z^k,
    E-(z) = exp(-lam sum_{n>=1} b_n z^-n / n) = sum_k E-_k z^-k,

with lam = m N in the rescaled boson normalization.  While b has only
central brackets, both have product formulas.  E- fixes the sector vacuum,
and E- g_{-n} E-^-1 = g_{-n} + c z^-n with c = -lam kappa / n, kappa the
central term of [b_n, g_{-n}] (c = -m for b in the lattice presets), so
E-_j of a word sums over its sub-multisets of letters of mode sum -j, each
the remaining word times prod C(a, r) c^r.  And with z_l = prod_i i^m_i m_i!,

    E+_k = sum_{partitions l of k} lam^len(l) / z_l  b_{-l},

whose letters commute with every creation letter and merge into the word.
The product depends on m, the word and the shift j - k that p fixes, not on
the sector, so an `OperatorCache` runs it once per (m, word, shift) and
relabels that first column into each later sector.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import itemgetter

from .fock import (ModeAlgebra, PbwMonomial, State, _apply_mono, _over_den,
                   apply_mode, mode_index)
from .scalars import Scalar


def gbinom(a, k: int):
    """Binomial coefficient a (a-1) ... (a-k+1) / k!, zero for k < 0.

    An int upper index gives an int through `math.comb`, with the upper
    negation C(a, k) = (-1)^k C(k - a - 1, k) for a < 0.  A non-integral
    upper index (half-integral in an odd lattice sector) gives a Fraction
    from the product formula.
    """
    if k < 0:
        return 0
    if type(a) is int:
        if a >= 0:
            return comb(a, k)
        c = comb(k - a - 1, k)
        return -c if k & 1 else c
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a - i, i + 1)
    return num


# ---------------------------------------------------------------------------
# Mode action
# ---------------------------------------------------------------------------

def field_mode(alg: ModeAlgebra, A: PbwMonomial, p, state: State) -> State:
    """Apply the shifted mode A_[p] of the field of the monomial A to a state."""
    return state_field_mode(alg, State.monomial(A), p, state)


def state_field_mode(alg: ModeAlgebra, A: State, p, v: State) -> State:
    """A_[p] v for states A, v: the reconstruction-theorem mode action."""
    ops = OperatorCache(alg)
    p = alg.to_units(p)
    return State.zero() if p is None else ops.apply(ops.field(A), p, v)


def translate(alg: ModeAlgebra, state: State) -> State:
    """The canonical translation operator T (infinitesimal shift of z)."""
    return OperatorCache(alg).translate(state)


def _field_mode_raw(ops, A, p, mono):
    """A_[p] mono with p in units of 1/u, recursing on the word of A."""
    alg = ops.alg
    word, sector = A.word, A.sector
    if not word:
        if sector:
            return ops.vertex(sector, p, mono)
        return State.monomial(mono) if p == 0 else State.zero()

    g, n = word[0]
    w = alg.weight(g)
    j = -n - w
    if j < 0:
        raise ValueError("word contains an annihilation mode")

    u = alg.unit
    if len(word) == 1 and sector == 0:
        if type(p) is not int:
            raise TypeError(f"mode {p!r} is not an int in units of 1/{u}")
        if p % u:
            return State.zero()
        p //= u
        coeff = gbinom(-p - w, j)
        if coeff == 1:
            return _apply_mono(alg, g, p, mono)
        if coeff == 0:
            return State.zero()
        return _apply_mono(alg, g, p, mono).scale(coeff)

    # :left rest: with left = g(n)|0>, a field of weight -n; the modes m
    # of left are real ints, here m * u
    left = PbwMonomial(0, word[:1])
    rest = PbwMonomial(sector, word[1:])
    d = alg.scaled_degree(mono)
    odd = alg.odd(g) and alg.mono_parity(rest)
    pairs = []
    # creation part of left on the outside
    for m in range(n * u, p - d - 1, -u):
        for x, c in ops.mono(rest, p - m, mono).terms.items():
            pairs.append((ops.mono(left, m, x), c))
    # annihilation part of left moved inside
    for m in range((n + 1) * u, d + 1, u):
        for x, c in ops.mono(left, m, mono).terms.items():
            pairs.append((ops.mono(rest, p - m, x), -c if odd else c))
    return State.sum(pairs)


# ---------------------------------------------------------------------------
# Operator cache
# ---------------------------------------------------------------------------

class OperatorCache:
    """Mode actions of fields on PBW monomials, for one call; nothing of it
    stays on the algebra.  A one-shot function (`state_field_mode`,
    `ope.singular_part`, ...) makes its own, so a loop should hold one.

    Every mode p it takes, and keys by, is an int in units of 1/u
    (`ModeAlgebra.unit`); `ModeAlgebra.to_units` converts a real mode,
    once, at the caller's boundary, and a mode that is not an int raises
    TypeError where the recursion reaches a generator.  `coeff(x, e, v)`,
    the coefficient of z^e in Y(X, z) v, takes no mode and no unit.
    `mono(A, p, m)` is A_[p] m for the field of the PBW monomial A, the
    one memo of the reconstruction recursion.  `field(X)` numbers each
    state used as a field with a small int.  `col(x, p, m)` is X_[p] m:
    the `mono` entry itself for a one-term field with coefficient 1, else
    one sum over the terms of X.  Both are kept for the call.
    `apply(x, p, v)` is X_[p] v, the `col` entry itself for a one-term v
    with coefficient 1.  `vertex(m, p, mono)` is Y(1_m)_[p] mono, which
    `mono` reaches on the empty word of sector m: it keeps the first
    column built for each (m, word, shift) and gives a later sector that
    column with its monomials relabeled and its Scalars shared, so the
    E-/E+ product runs once per key; the E- terms of each word and each
    E+_k it multiplies are kept for the call as well.  `translate(v)` is
    T v, with T of each monomial kept for the call.  Two-mode products
    X_[p] Y_[q] m are not kept here: the locality and associativity checks
    hold them in a `ope.TwoModeProducts` table for one test state at a
    time, so that memory stays flat over the call.
    """

    def __init__(self, alg: ModeAlgebra):
        self.alg = alg
        self._index = {}     # State -> field number
        self._terms = []     # field number -> ((monomial, coefficient), ...)
        self._modes = {}     # (A, p, m) -> A_[p] m, A a PBW monomial
        self._cols = {}      # (x, p, m) -> X_[p] m, X not one monomial
        self._degrees = {}   # field number -> degree in units of 1/u
        self._vertex = {}    # (m, word, shift) -> first column of Y(1_m)
        self._lower = {}     # (lam_N, word) -> E- terms of the word
        self._upper = {}     # (lam_N, k) -> E+_k terms
        self._translations = {}  # monomial -> T of it

    def mono(self, A: PbwMonomial, p: int, m: PbwMonomial) -> State:
        """A_[p] m for the field of the monomial A."""
        key = (A, p, m)
        v = self._modes.get(key)
        if v is None:
            v = self._modes[key] = _field_mode_raw(self, A, p, m)
        return v

    def vertex(self, m: int, p: int, mono: PbwMonomial) -> State:
        """Y(1_m)_[p] mono, the E-/E+ product run once per (m, word, shift)
        of the call; a later sector gets the first column relabeled."""
        alg = self.alg
        if not alg.has_sectors:
            raise ValueError(f"algebra {alg.name!r} has no lattice sectors")
        if alg._non_central_charge:
            x, y = alg._non_central_charge
            raise ValueError(f"no lattice vertex operator in {alg.name!r}: "
                             f"[{x}, {y}] is not central")
        # E+_k z^k S_m z^(lam b_0) E-_j z^-j on a monomial has the
        # z-exponent k - j + lam * sector, which p fixes at -p - wt 1_m
        u = alg.unit
        if type(p) is not int:
            raise TypeError(f"mode {p!r} is not an int in units of 1/{u}")
        shift, r = divmod(p + alg.scaled_energy(m)
                          + m * alg.lattice_N * mono.sector * u, u)
        if r:
            return State.zero()
        key = (m, mono.word, shift)
        col = self._vertex.get(key)
        if col is None:
            col = self._vertex[key] = _vertex_column(self, m, shift, mono)
        elif col.terms:
            # only `mono` reaches here, and it memoizes (1_m, p, mono): a
            # stored column is always of another sector
            sector = mono.sector + m
            col = State({PbwMonomial(sector, x.word): c
                         for x, c in col.terms.items()})
        return col

    def translate(self, v: State) -> State:
        """T v for the canonical translation operator T (infinitesimal
        shift of z), T of each monomial kept for the call."""
        alg, memo = self.alg, self._translations
        pairs = []
        for mono, c in v.terms.items():
            t = memo.get(mono)
            if t is None:
                word, sector = mono.word, mono.sector
                if word:
                    g, n = word[0]
                    rest = State.monomial(PbwMonomial(sector, word[1:]))
                    # [T, g_n] = (1 - n - wt) g_{n-1}
                    lead = apply_mode(alg, g, n - 1, rest)
                    t = (lead.scale(1 - n - alg.weight(g))
                         + apply_mode(alg, g, n, self.translate(rest)))
                elif sector:
                    # T 1_lam = lam b_{-1} 1_lam, rescaled to
                    # (sector*N) beta_{-1}
                    t = apply_mode(alg, alg.charge_gen, -1,
                                   State.monomial(mono))
                    t = t.scale(sector * alg.lattice_N)
                else:
                    t = State.zero()
                memo[mono] = t
            pairs.append((t, c))
        return State.sum(pairs)

    def field(self, X: State) -> int:
        x = self._index.get(X)
        if x is None:
            x = self._index[X] = len(self._terms)
            self._terms.append(tuple(X.terms.items()))
        return x

    def col(self, x: int, p: int, m: PbwMonomial) -> State:
        """X_[p] m."""
        terms = self._terms[x]
        if len(terms) == 1 and terms[0][1]._frac == 1:
            return self.mono(terms[0][0], p, m)
        key = (x, p, m)
        v = self._cols.get(key)
        if v is None:
            v = self._cols[key] = State.sum((self.mono(a, p, m), c)
                                            for a, c in terms)
        return v

    def apply(self, x: int, p: int, v: State) -> State:
        """X_[p] v for a state v."""
        terms = v.terms
        if len(terms) == 1:
            (m, c), = terms.items()
            if c._frac == 1:
                return self.col(x, p, m)
        elif not terms:
            return v
        col = self.col
        return State.sum((col(x, p, m), c) for m, c in terms.items())

    def coeff(self, x: int, e: int, v: State) -> State:
        """The coefficient of z^e in Y(X, z) v for a homogeneous field X
        and an int exponent e: X_[p] v with p = -e - deg X."""
        d = self._degrees.get(x)
        if d is None:
            X = State(dict(self._terms[x]))
            d = self._degrees[x] = X.scaled_degree(self.alg)
        return self.apply(x, -e * self.alg.unit - d, v)


# ---------------------------------------------------------------------------
# Lattice vertex operators
# ---------------------------------------------------------------------------

def _vertex_column(ops, m: int, shift: int, mono: PbwMonomial) -> State:
    """sum_j E+_(j - shift) S_m E-_j mono, in sector mono.sector + m, with
    the E- terms of the word and each E+_k kept in the cache `ops`."""
    alg = ops.alg
    lam_N = m * alg.lattice_N
    lower = ops._lower.get((lam_N, mono.word))
    if lower is None:
        lower = ops._lower[lam_N, mono.word] = _annihilation_terms(
            alg, lam_N, mono.word)
    top = max(max(j for _, j, _ in lower) - shift, 0)
    acc = {}  # numerators over top!, as each E+_k is over k!
    for rest, j, c in lower:
        k = j - shift
        if k >= 0:
            upper = ops._upper.get((lam_N, k))
            if upper is None:
                upper = ops._upper[lam_N, k] = _creation_terms(alg, lam_N, k)
            c *= factorial(top) // factorial(k)
            for letters, num in upper:
                word = tuple(sorted(rest + letters, key=itemgetter(1, 0)))
                acc[word] = acc.get(word, 0) + c * num
    den, out = factorial(top), {}
    for word, num in acc.items():
        c = num / den if isinstance(num, Scalar) else _over_den(num, den)
        if not c.is_zero:
            out[PbwMonomial(mono.sector + m, word)] = c
    return State(out) if out else State.zero()


def _annihilation_terms(alg, lam_N: int, word: tuple) -> list:
    """E-_j on the word as (remaining word, j, coefficient) triples."""
    terms = [((), 0, 1)]
    for g, n in dict.fromkeys(word):
        a = word.count((g, n))
        c = (alg.bracket(alg.charge_gen, -n, g, n)[1] * Fraction(lam_N, n)
             if n else Scalar.zero())
        c = mode_index(c.as_fraction()) if c.is_rational else c
        terms = [(kept + ((g, n),) * (a - r), j - r * n,
                  coeff * comb(a, r) * c ** r) for kept, j, coeff in terms
                 for r in range(a + 1 if c else 1)]
    return terms


def _creation_terms(alg, lam_N: int, k: int) -> list:
    """E+_k as (b_{-lambda}, lam_N^len(lambda) k! / z_lambda) pairs."""
    # the factors exp(lam b_{-n} z^n / n), n = k..1, with their degree
    terms = [((), 0, factorial(k))]
    for n in range(k, 0, -1):
        terms = [(letters + ((alg.charge_gen, -n),) * c, d + n * c,
                  num * lam_N ** c // (n ** c * factorial(c)))
                 for letters, d, num in terms
                 for c in range((k - d) // n + 1)]
    return [(w, num) for w, d, num in terms if d == k]
