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

The vertex operator of the charge-m vacuum is

    Y(1_m, z) = E+(z) S_m z^(lam b_0) E-(z),
    E+(z) = exp(lam sum_{n>=1} b_{-n} z^n / n) = sum_k E+_k z^k,
    E-(z) = exp(-lam sum_{n>=1} b_n z^-n / n) = sum_k E-_k z^-k,

with lam = m N in the rescaled boson normalization.  The positive modes
commute among themselves, and so do the negative ones, so differentiating
the exponentials gives the recursions

    k E-_k = -lam sum_{n=1..k} b_n E-_{k-n},
    k E+_k =  lam sum_{n=1..k} b_{-n} E+_{k-n},

by which `vertex_mode` builds each layer from the lower ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .fock import ModeAlgebra, PbwMonomial, State, apply_mode, mode_index


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
    p = mode_index(p)
    return State.sum((_field_mode_mono(alg, A, p, mono), c)
                     for mono, c in state.terms.items())


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
        if type(p) is not int:
            return State.zero()
        coeff = gbinom(-p - w, j)
        if coeff == 0:
            return State.zero()
        return apply_mode(alg, g, p, State.monomial(mono)).scale(coeff)

    # :left rest: with left = g(n)|0>, a field of weight -n
    left = PbwMonomial(0, word[:1])
    rest = PbwMonomial(sector, word[1:])
    d = alg.mono_degree(mono)
    odd = alg.odd(g) and alg.mono_parity(rest)
    pairs = []
    # creation part of left on the outside
    m = n
    while m >= p - d:
        for x, c in _field_mode_mono(alg, rest, p - m, mono).terms.items():
            pairs.append((_field_mode_mono(alg, left, m, x), c))
        m -= 1
    # annihilation part of left moved inside
    m = n + 1
    while m <= d:
        for x, c in _field_mode_mono(alg, left, m, mono).terms.items():
            pairs.append((_field_mode_mono(alg, rest, p - m, x),
                          -c if odd else c))
        m += 1
    return State.sum(pairs)


def state_field_mode(alg: ModeAlgebra, A: State, p, v: State) -> State:
    """A_[p] v for states A, v: the reconstruction-theorem mode action."""
    p = mode_index(p)
    return State.sum((_field_mode_mono(alg, a, p, x), ca * cx)
                     for a, ca in A.terms.items()
                     for x, cx in v.terms.items())


# ---------------------------------------------------------------------------
# Lattice vertex operators
# ---------------------------------------------------------------------------

def vertex_mode(alg: ModeAlgebra, m: int, p, mono: PbwMonomial) -> State:
    """Shifted mode of the vertex operator of the charge-m sector vacuum."""
    if not alg.has_sectors:
        raise ValueError(f"algebra {alg.name!r} has no lattice sectors")
    lam_N = m * alg.lattice_N
    # E+_k z^k S_m z^(lam b_0) E-_j z^-j on mono has the z-exponent
    # k - j + lam * sector, which the mode p fixes at -p - wt 1_m
    shift = mode_index(p + alg.sector_energy(m) + lam_N * mono.sector)
    pairs = []
    for j, lower in enumerate(_annihilation_layers(alg, lam_N, mono)):
        k = j - shift
        if k < 0 or type(k) is not int:
            continue
        for x, c in lower.terms.items():
            moved = PbwMonomial(x.sector + m, x.word)
            pairs.append((_creation_layer(alg, lam_N, k, moved), c))
    return State.sum(pairs)


def _annihilation_layers(alg, lam_N: int, mono: PbwMonomial) -> tuple:
    """(E-_0 mono, ..., E-_d mono): every layer that keeps a degree >= 0."""
    key = ("E-", lam_N, mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    b = alg.charge_gen
    d = int(alg.mono_degree(mono) - alg.sector_energy(mono.sector))
    layers = [State.monomial(mono)]
    for k in range(1, d + 1):
        c = Fraction(-lam_N, k)
        layers.append(State.sum((apply_mode(alg, b, n, layers[k - n]), c)
                                for n in range(1, k + 1)))
    layers = tuple(layers)
    alg._apply_memo[key] = layers
    return layers


def _creation_layer(alg, lam_N: int, k: int, mono: PbwMonomial) -> State:
    """E+_k mono."""
    if k == 0:
        return State.monomial(mono)
    key = ("E+", lam_N, k, mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    b = alg.charge_gen
    c = Fraction(lam_N, k)
    result = State.sum(
        (apply_mode(alg, b, -n, _creation_layer(alg, lam_N, k - n, mono)), c)
        for n in range(1, k + 1))
    alg._apply_memo[key] = result
    return result


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
