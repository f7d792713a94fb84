"""State-field correspondence and mode actions of composite fields.

Fields are indexed in the weight-shifted convention

    Y(A, z) = sum_p A_[p] z^(-p - wt A),

so A_[p] lowers degree by p.  A field is named by the PBW monomial of its
state, and its modes follow the reconstruction formula

    Y(g(n) R, z) = :(d^j g(z) / j!) Y(R, z):,    j = -n - wt(g) >= 0,

recursing on the word of the monomial: the empty word is the identity field
in sector 0 and the vertex operator of the sector vacuum in a charge sector,
and a single letter g(n) over the vacuum has the modes
binom(-p - wt g, j) g_p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .fock import (ModeAlgebra, PbwMonomial, State, apply_mode, shift_sector)


def gbinom(a, k: int) -> Fraction:
    """Binomial coefficient with integer (possibly negative) upper index."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a - i, i + 1)
    return num


# ---------------------------------------------------------------------------
# Mode action
# ---------------------------------------------------------------------------

def mode_index(p):
    """A mode index as an int when it is integral, else as a Fraction.

    Mode indices key the field_mode memo and the axiom checks' caches and
    are added up in the locality and associativity windows; ints hash,
    compare and add without a call into Python code, Fractions do not.
    Equal values of the two types hash and compare equal, so either finds
    the same cache entry.
    """
    if type(p) is int:
        return p
    if type(p) is not Fraction:
        p = Fraction(p)
    return p.numerator if p.denominator == 1 else p


def field_mode(alg: ModeAlgebra, A: PbwMonomial, p, state: State) -> State:
    """Apply the shifted mode A_[p] of the field of the monomial A to a state."""
    p = mode_index(p)
    out = State.zero()
    for mono, c in state.terms.items():
        out = out + _field_mode_mono(alg, A, p, mono).scale(c)
    return out


def _field_mode_mono(alg: ModeAlgebra, A: PbwMonomial, p,
                     mono: PbwMonomial) -> State:
    key = ("fm", A, p, mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    result = _field_mode_raw(alg, A, p, mono)
    alg._apply_memo[key] = result
    return result


def _field_mode_raw(alg, A, p, mono):
    word, sector = A.word, A.sector
    if not word:
        if sector:
            return vertex_mode(alg, sector, p, mono)
        return State.monomial(mono) if p == 0 else State.zero()

    g, n = word[0]
    w = alg.weight(g)
    j = int(-n - w)
    if j < 0:
        raise ValueError("word contains an annihilation mode")

    if len(word) == 1 and sector == 0:
        if p.denominator != 1:
            return State.zero()
        coeff = gbinom(-p - w, j)
        if coeff == 0:
            return State.zero()
        return apply_mode(alg, g, int(p), State.monomial(mono)).scale(coeff)

    # :left rest: with left = g(n)|0>, a field of weight -n
    left = PbwMonomial(0, word[:1])
    rest = PbwMonomial(sector, word[1:])
    d = alg.mono_degree(mono)
    sign = -1 if (alg.odd(g) and alg.mono_parity(rest)) else 1
    out = State.zero()
    # creation part of left on the outside
    m = n
    while m >= p - d:
        inner = _field_mode_mono(alg, rest, p - m, mono)
        if not inner.is_zero:
            out = out + field_mode(alg, left, m, inner)
        m -= 1
    # annihilation part of left moved inside
    m = n + 1
    while m <= d:
        inner = _field_mode_mono(alg, left, m, mono)
        if not inner.is_zero:
            term = field_mode(alg, rest, p - m, inner)
            out = out + (term.scale(sign) if sign < 0 else term)
        m += 1
    return out


def state_field_mode(alg: ModeAlgebra, A: State, p, v: State) -> State:
    """A_[p] v for states A, v: the reconstruction-theorem mode action."""
    p = mode_index(p)
    out = State.zero()
    for mono, c in A.terms.items():
        contrib = field_mode(alg, mono, p, v)
        if not contrib.is_zero:
            out = out + contrib.scale(c)
    return out


# ---------------------------------------------------------------------------
# Lattice vertex operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _exp_layer(lam_N: int, degree: int, creation: bool):
    """Degree-homogeneous part of the vertex-operator exponentials.

    Returns ((Fraction coeff, (modes...)), ...) for the degree-`degree` piece
    of exp(sum_{n>=1} (lam_N/n) beta_{-n} z^n) (creation) or
    exp(-sum_{n>=1} (lam_N/n) beta_n z^{-n}) (annihilation).
    """
    out = []
    for part in _partitions(degree):
        coeff = Fraction(1)
        mult = {}
        for n in part:
            mult[n] = mult.get(n, 0) + 1
        word = []
        for n, k in sorted(mult.items()):
            c = Fraction(lam_N, n) if creation else Fraction(-lam_N, n)
            coeff *= c ** k / factorial(k)
            word.extend([-n if creation else n] * k)
        out.append((coeff, tuple(word)))
    return tuple(out)


@lru_cache(maxsize=None)
def _partitions(n: int):
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail
    return tuple(rec(n, n)) if n >= 0 else ()


def vertex_mode(alg: ModeAlgebra, m: int, p: Fraction, mono: PbwMonomial) -> State:
    """Shifted mode of the vertex operator of the charge-m sector vacuum."""
    if not alg.has_sectors:
        raise ValueError(f"algebra {alg.name!r} has no lattice sectors")
    N = alg.lattice_N
    lam_N = m * N
    w = alg.sector_energy(m)
    d = alg.mono_degree(mono) - alg.sector_energy(mono.sector)
    charge_power = m * mono.sector * N
    b = alg.charge_gen
    out = State.zero()
    start = State.monomial(mono)
    for bdeg in range(int(d) + 1):
        adeg = bdeg - p - w - charge_power
        if adeg < 0 or adeg.denominator != 1:
            continue
        adeg = int(adeg)
        for cb, bword in _exp_layer(lam_N, bdeg, False):
            mid = start
            for n in reversed(bword):
                mid = apply_mode(alg, b, n, mid)
                if mid.is_zero:
                    break
            if mid.is_zero:
                continue
            mid = shift_sector(alg, m, mid)
            for ca, aword in _exp_layer(lam_N, adeg, True):
                res = mid
                for n in reversed(aword):
                    res = apply_mode(alg, b, n, res)
                out = out + res.scale(cb * ca)
    return out


# ---------------------------------------------------------------------------
# Translation operator
# ---------------------------------------------------------------------------

def translate(alg: ModeAlgebra, state: State) -> State:
    """The canonical translation operator T (infinitesimal shift of z)."""
    out = State.zero()
    for mono, c in state.terms.items():
        out = out + _translate_mono(alg, mono).scale(c)
    return out


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
