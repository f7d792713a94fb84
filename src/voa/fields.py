"""State-field correspondence and mode actions of composite fields.

Fields are indexed in the weight-shifted convention

    Y(A, z) = sum_p A_[p] z^(-p - wt A),

so A_[p] lowers degree by p.  A field expression is a small tree:

    ("id",)            identity field, weight 0
    ("gen", g, j)      j-th derivative of a generator field, weight wt(g)+j
    ("no", left, right)  normally ordered product :left right:
    ("vert", m)        lattice vertex operator for the charge-m sector vacuum

`mono_field` implements the reconstruction formula: a PBW monomial
g1(n1)...gk(nk)|0> corresponds to the right-nested normally ordered product
of the fields d^{j_i} g_i(z) / j_i! with j_i = -n_i - wt(g_i); in a charge
sector the rightmost factor is the vertex operator of the sector vacuum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .fock import (ModeAlgebra, PbwMonomial, State, apply_mode, shift_sector)


# ---------------------------------------------------------------------------
# Field expressions
# ---------------------------------------------------------------------------

def field_weight(alg: ModeAlgebra, fx) -> Fraction:
    tag = fx[0]
    if tag == "id":
        return Fraction(0)
    if tag == "gen":
        return alg.weight(fx[1]) + fx[2]
    if tag == "no":
        return field_weight(alg, fx[1]) + field_weight(alg, fx[2])
    if tag == "vert":
        return alg.sector_energy(fx[1])
    raise ValueError(f"unknown field expression tag {tag!r}")


def field_parity(alg: ModeAlgebra, fx) -> int:
    tag = fx[0]
    if tag == "id":
        return 0
    if tag == "gen":
        return 1 if alg.odd(fx[1]) else 0
    if tag == "no":
        return field_parity(alg, fx[1]) ^ field_parity(alg, fx[2])
    if tag == "vert":
        return alg.sector_parity(fx[1])
    raise ValueError(f"unknown field expression tag {tag!r}")


def mono_field(alg: ModeAlgebra, mono: PbwMonomial):
    """Field expression and rational prefactor for a PBW monomial.

    The result depends only on (alg, mono), so each one is computed once
    and kept in the algebra's memo under the key ("mf", mono).
    """
    key = ("mf", mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    fx = ("id",) if mono.sector == 0 else ("vert", mono.sector)
    pref = Fraction(1)
    for g, n in reversed(mono.word):
        j = int(-n - alg.weight(g))
        if j < 0:
            raise ValueError("word contains an annihilation mode")
        fx = ("no", ("gen", g, j), fx)
        pref /= factorial(j)
    result = alg._apply_memo[key] = (fx, pref)
    return result


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


def field_mode(alg: ModeAlgebra, fx, p, state: State) -> State:
    """Apply the shifted mode fx_[p] to a state."""
    p = mode_index(p)
    out = State.zero()
    for mono, c in state.terms.items():
        out = out + _field_mode_mono(alg, fx, p, mono).scale(c)
    return out


def _field_mode_mono(alg: ModeAlgebra, fx, p, mono: PbwMonomial) -> State:
    key = ("fm", fx, p, mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    result = _field_mode_raw(alg, fx, p, mono)
    alg._apply_memo[key] = result
    return result


def _field_mode_raw(alg, fx, p, mono):
    tag = fx[0]
    if tag == "id":
        return State.monomial(mono) if p == 0 else State.zero()

    if tag == "gen":
        g, j = fx[1], fx[2]
        if p.denominator != 1:
            return State.zero()
        n = int(p)
        coeff = Fraction(1)
        w = alg.weight(g)
        for i in range(j):
            coeff *= (-n - w - i)
        if coeff == 0:
            return State.zero()
        return apply_mode(alg, g, n, State.monomial(mono)).scale(coeff)

    if tag == "vert":
        return vertex_mode(alg, fx[1], p, mono)

    if tag == "no":
        left, right = fx[1], fx[2]
        wl = field_weight(alg, left)
        if wl.denominator != 1:
            raise ValueError("left factor of a normal product must have integer weight")
        wl = int(wl)
        d = alg.mono_degree(mono)
        sign = -1 if (field_parity(alg, left) and field_parity(alg, right)) else 1
        out = State.zero()
        # creation part of left on the outside
        m = -wl
        while m >= p - d:
            inner = _field_mode_mono(alg, right, p - m, mono)
            if not inner.is_zero:
                out = out + field_mode(alg, left, m, inner)
            m -= 1
        # annihilation part of left moved inside
        m = -wl + 1
        while m <= d:
            inner = field_mode(alg, left, m, State.monomial(mono))
            if not inner.is_zero:
                term = field_mode(alg, right, p - m, inner)
                out = out + (term.scale(sign) if sign < 0 else term)
            m += 1
        return out

    raise ValueError(f"unknown field expression tag {tag!r}")


def state_field_mode(alg: ModeAlgebra, A: State, p, v: State) -> State:
    """A_[p] v for states A, v: the reconstruction-theorem mode action."""
    p = mode_index(p)
    out = State.zero()
    for mono, c in A.terms.items():
        fx, pref = mono_field(alg, mono)
        contrib = field_mode(alg, fx, p, v)
        if not contrib.is_zero:
            out = out + contrib.scale(c * pref)
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
