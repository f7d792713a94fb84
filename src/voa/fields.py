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

The recursion is memoized only in the `OperatorCache` of one call; the
algebra keeps the generator-level memos (`apply_mode`, T, E-/E+ below).
The cache, the recursion and `vertex_mode` take the mode p as an int in
units of 1/u (`ModeAlgebra.unit`: 2 on odd lattices, else 1), so no
Fraction is hashed or added on the way; a real mode goes in through
`ModeAlgebra.to_units` at a caller's boundary and comes back out only at
the leaves, for `apply_mode` and `gbinom`.  The one-shot `field_mode` and
`state_field_mode` take real modes.  Other callers read Y(X, z) v by
z-exponent (`OperatorCache.coeff`), which makes the shift p = -e - deg X;
only the mode loops of `ope` and R(rho) in `coords` see the unit.

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


def _field_mode_raw(ops, A, p, mono):
    """A_[p] mono with p in units of 1/u, recursing on the word of A."""
    alg = ops.alg
    word, sector = A.word, A.sector
    if not word:
        if sector:
            return vertex_mode(alg, sector, p, mono)
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
    with coefficient 1.  Two-mode products X_[p] Y_[q] m are not kept
    here: the locality and associativity checks hold them in a
    `ope.TwoModeProducts` table for one test state at a time, so that
    memory stays flat over the call.
    """

    def __init__(self, alg: ModeAlgebra):
        self.alg = alg
        self._index = {}     # State -> field number
        self._terms = []     # field number -> ((monomial, coefficient), ...)
        self._modes = {}     # (A, p, m) -> A_[p] m, A a PBW monomial
        self._cols = {}      # (x, p, m) -> X_[p] m, X not one monomial
        self._degrees = {}   # field number -> degree in units of 1/u

    def mono(self, A: PbwMonomial, p: int, m: PbwMonomial) -> State:
        """A_[p] m for the field of the monomial A."""
        key = (A, p, m)
        v = self._modes.get(key)
        if v is None:
            v = self._modes[key] = _field_mode_raw(self, A, p, m)
        return v

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

def vertex_mode(alg: ModeAlgebra, m: int, p: int, mono: PbwMonomial) -> State:
    """Shifted mode of the vertex operator of the charge-m sector vacuum,
    p in units of 1/u."""
    if not alg.has_sectors:
        raise ValueError(f"algebra {alg.name!r} has no lattice sectors")
    if alg._non_central_charge:
        x, y = alg._non_central_charge
        raise ValueError(f"no lattice vertex operator in {alg.name!r}: "
                         f"[{x}, {y}] is not central")
    lam_N = m * alg.lattice_N
    # E+_k z^k S_m z^(lam b_0) E-_j z^-j on mono has the z-exponent
    # k - j + lam * sector, which the mode p fixes at -p - wt 1_m
    if type(p) is not int:
        raise TypeError(f"mode {p!r} is not an int in units of 1/{alg.unit}")
    shift, r = divmod(p + alg.scaled_energy(m)
                      + lam_N * mono.sector * alg.unit, alg.unit)
    if r:
        return State.zero()
    lower = _annihilation_terms(alg, lam_N, mono.word)
    top = max(max(j for _, j, _ in lower) - shift, 0)
    acc = {}  # numerators over top!, as each E+_k is over k!
    for rest, j, c in lower:
        if j >= shift:
            c *= factorial(top) // factorial(j - shift)
            for letters, num in _creation_terms(alg, lam_N, j - shift):
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
    key = ("E-", lam_N, word)
    terms = alg._apply_memo.get(key)
    if terms is None:
        terms = [((), 0, 1)]
        for g, n in dict.fromkeys(word):
            a = word.count((g, n))
            c = (alg.bracket(alg.charge_gen, -n, g, n)[1] * Fraction(lam_N, n)
                 if n else Scalar.zero())
            c = mode_index(c.as_fraction()) if c.is_rational else c
            terms = [(kept + ((g, n),) * (a - r), j - r * n,
                      coeff * comb(a, r) * c ** r) for kept, j, coeff in terms
                     for r in range(a + 1 if c else 1)]
        alg._apply_memo[key] = terms
    return terms


def _creation_terms(alg, lam_N: int, k: int) -> list:
    """E+_k as (b_{-lambda}, lam_N^len(lambda) k! / z_lambda) pairs."""
    key = ("E+", lam_N, k)
    terms = alg._apply_memo.get(key)
    if terms is None:
        # the factors exp(lam b_{-n} z^n / n), n = k..1, with their degree
        terms = [((), 0, factorial(k))]
        for n in range(k, 0, -1):
            terms = [(letters + ((alg.charge_gen, -n),) * c, d + n * c,
                      num * lam_N ** c // (n ** c * factorial(c)))
                     for letters, d, num in terms
                     for c in range((k - d) // n + 1)]
        alg._apply_memo[key] = terms = [(w, num) for w, d, num in terms
                                        if d == k]
    return terms


# ---------------------------------------------------------------------------
# Translation operator
# ---------------------------------------------------------------------------

def translate(alg: ModeAlgebra, state: State) -> State:
    """The canonical translation operator T (infinitesimal shift of z)."""
    return State.sum((_translate_mono(alg, mono), c)
                     for mono, c in state.terms.items())


def _translate_mono(alg: ModeAlgebra, mono: PbwMonomial) -> State:
    key = ("T", mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    word, sector = mono.word, mono.sector
    if not word:
        if sector == 0:
            result = State.zero()
        else:
            # T 1_lam = lam b_{-1} 1_lam, rescaled to (sector*N) beta_{-1}
            result = apply_mode(alg, alg.charge_gen, -1,
                                State.vacuum(sector)).scale(sector * alg.lattice_N)
    else:
        g, n = word[0]
        rest = PbwMonomial(sector, word[1:])
        w = alg.weight(g)
        # [T, g_n] = (1 - n - wt) g_{n-1}
        lead = apply_mode(alg, g, n - 1, State.monomial(rest)).scale(1 - n - w)
        tail = apply_mode(alg, g, n, _translate_mono(alg, rest))
        result = lead + tail
    alg._apply_memo[key] = result
    return result
