"""Mode algebras and their Fock modules.

A ModeAlgebra is a finite list of generators (name, conformal weight,
parity) together with a bracket table

    [x_m, y_n]_pm = sum_i  coeff_i(m, n) * z_i(m+n)  +  central(m) * delta_{m+n,0}

where coefficients are polynomials in the mode indices and central terms are
Scalar multiples (level k, central charge c, or plain rationals).  The
induced vacuum module has a PBW basis of normally ordered creation words;
`normal_order` rewrites arbitrary mode words into that basis.

Lattice sector modules are supported through an integer charge label: the
sector vacuum with charge m (momentum m*sqrt(N)) has energy m^2*N/2, and the
boson generator is stored in the rescaled normalization [b_m, b_n] =
(m/N) delta_{m,-n} so that all structure constants stay rational; the zero
mode acts on charge-m sectors by m.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .scalars import _SMALL_INTS, _rational, Scalar, Poly, parse_scalar


class UnknownGenerator(KeyError):
    pass


class SectorMismatch(ValueError):
    """A sector shift was applied in an algebra without lattice sectors."""


class GeneratorSpec(NamedTuple):
    name: str
    weight: Fraction
    odd: bool = False


class BracketTerm(NamedTuple):
    target: int           # generator index, mode m+n
    coeff: Poly           # polynomial in "m", "n"; int coefficients when
                          # integral, Fraction ones otherwise
    scalar: Scalar = Scalar.one()


class CentralTerm(NamedTuple):
    scalar: Scalar        # e.g. 1, k, or c
    coeff: Poly           # polynomial in "m"; contributes only when m+n=0


class BracketRule(NamedTuple):
    terms: tuple
    central: Optional[CentralTerm] = None


class PbwMonomial(NamedTuple):
    sector: int
    word: tuple  # ((gen_index, mode), ...) sorted by (mode, gen), creation only


VACUUM_WORD: tuple = ()


def mode_index(p):
    """A real mode index, weight or degree as an int when it is integral,
    else as a Fraction: the form in which public functions take and return
    real values, as `ModeAlgebra.from_units` gives them back.

    The loops of the engine carry ints in units of 1/u instead
    (`ModeAlgebra.unit`), converted once at their boundary: ints hash,
    compare and add without a call into Python code, Fractions do not.
    """
    if type(p) is int:
        return p
    if type(p) is not Fraction:
        p = Fraction(p)
    return p.numerator if p.denominator == 1 else p


class ModeAlgebra:
    """Generator table plus bracket structure constants.

    The table never changes.  The algebra memoizes pure functions of it for
    its whole life: the first non-central bracket of the charge generator
    in `_non_central_charge`, `scaled_energy` in `_energies` under the
    sector, `bracket` in `_bracket_memo` under (i, m, j, n), and the
    mode actions on PBW monomials in `_apply_memo`, under one key kind each:

    - (g, n, mono), untagged: the generator mode g_n (`apply_mode`);
    - ("T", mono): the translation operator (`fields.translate`);
    - ("E-", lam_N, word): the (remaining word, j, coefficient) terms of
      E-_j on a word for a lattice vertex operator, any j and sector;
    - ("E+", lam_N, k): its E+_k, as (letters, numerator over k!) pairs
      (both in `fields.vertex_mode`).

    Modes of composite fields belong to the call that computes them: every
    function that applies fields to states reads A_[p] on monomials, and
    the axiom checks their two-mode products, through a
    `fields.OperatorCache` made for its call.

    Field modes and degrees are carried as ints in units of 1/u, with
    `unit` u the least integer that makes every generator weight and
    every sector energy integral: 2 for an odd lattice or a generator of
    half-integral weight, else 1, where such an int is the real value.
    `to_units` takes a real mode in, `from_units` gives one back;
    `scaled_degree` and `scaled_energy` are the degrees in these units.
    Weights, sector energies and monomial degrees come back as real
    values: an int when integral, a Fraction only when half-integral.
    Generator modes (`apply_mode`, the words of PBW monomials) are real
    ints.  `GeneratorSpec.weight` itself stays the Fraction it was given.
    A generator of negative weight is refused: its modes x_n with
    0 <= n <= -weight would count as creation modes, yet no monomial the
    basis enumerates would hold them.
    """

    def __init__(self, name, generators, rules, *, lattice_N=None,
                 charge_gen=None, vacuum_symbol="|0>", central_params=()):
        self.name = name
        self.generators = tuple(generators)
        self.rules = dict(rules)           # (i, j) -> BracketRule
        self.lattice_N = lattice_N
        self.charge_gen = charge_gen
        self.vacuum_symbol = vacuum_symbol
        self.central_params = tuple(central_params)
        self._by_name = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._by_name) != len(self.generators):
            raise ValueError("generator names must be unique")
        self._weights = tuple(mode_index(g.weight) for g in self.generators)
        for g, w in zip(self.generators, self._weights):
            if w < 0:
                raise ValueError(f"generator {g.name!r} has negative "
                                 f"weight {w}")
        self.unit = lcm(self.grading_denominator,
                        *(Fraction(g.weight).denominator
                          for g in self.generators))
        self._non_central_charge = next(
            ((self.generators[i].name, self.generators[j].name)
             for (i, j), rule in self.rules.items()
             if rule.terms and charge_gen in (i, j)), None)
        self._apply_memo = {}
        self._bracket_memo = {}
        self._energies = {0: 0}           # sector -> scaled energy

    # -- basic queries --------------------------------------------------

    @property
    def has_sectors(self):
        return self.lattice_N is not None

    @property
    def grading_denominator(self):
        if self.has_sectors and self.lattice_N % 2 == 1:
            return 2
        return 1

    def gen_index(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def weight(self, g):
        """Conformal weight of generator g: an int when integral."""
        return self._weights[g]

    def odd(self, g):
        return self.generators[g].odd

    def is_creation(self, g, n):
        return n <= -self._weights[g]

    def to_units(self, p):
        """The real mode or degree p as an int in units of 1/u, or None
        when p is off that grid: no monomial has such a degree, so every
        field mode p acts by zero."""
        if type(p) is int:
            return p * self.unit
        p = Fraction(p) * self.unit
        return p.numerator if p.denominator == 1 else None

    def from_units(self, k: int):
        """The real value of k units of 1/u: an int when integral, else a
        Fraction."""
        u = self.unit
        if u == 1:
            return k
        q, r = divmod(k, u)
        return Fraction(k, u) if r else q

    def scaled_energy(self, sector) -> int:
        """Energy sector^2 N / 2 of the sector vacuum in units of 1/u."""
        e = self._energies.get(sector)
        if e is None:
            if not self.has_sectors:
                raise SectorMismatch(f"algebra {self.name!r} has no sectors")
            e = sector * sector * self.lattice_N * self.unit // 2
            self._energies[sector] = e
        return e

    def sector_energy(self, sector):
        """Energy sector^2 N / 2 of the sector vacuum: an int when
        integral, a Fraction (odd N, odd sector) otherwise."""
        return self.from_units(self.scaled_energy(sector))

    def sector_parity(self, sector):
        if sector == 0 or not self.has_sectors or self.lattice_N % 2 == 0:
            return 0
        return (sector * self.lattice_N) % 2

    def vacuum_eigenvalue(self, g, n, sector) -> Fraction:
        if self.has_sectors and g == self.charge_gen and n == 0:
            return Fraction(sector)
        return Fraction(0)

    def scaled_degree(self, mono: PbwMonomial) -> int:
        """Degree of a monomial in units of 1/u."""
        n = 0
        for _, m in mono.word:
            n += m
        if mono.sector:
            return self.scaled_energy(mono.sector) - n * self.unit
        return -n * self.unit

    def mono_degree(self, mono: PbwMonomial):
        """Degree of a monomial: an int when integral, else a Fraction."""
        return self.from_units(self.scaled_degree(mono))

    def mono_parity(self, mono: PbwMonomial) -> int:
        p = self.sector_parity(mono.sector)
        for g, _ in mono.word:
            if self.generators[g].odd:
                p ^= 1
        return p

    # -- bracket --------------------------------------------------------

    def bracket(self, i, m, j, n):
        """[x_m, y_n]_pm as (tuple of (gen, Scalar) at mode m+n, central Scalar)."""
        key = (i, m, j, n)
        hit = self._bracket_memo.get(key)
        if hit is not None:
            return hit
        rule = self.rules.get((i, j))
        sign = 1
        mm, nn = m, n
        if rule is None:
            rule = self.rules.get((j, i))
            if rule is not None:
                # super-skew: [x_m, y_n] = -(-1)^{|x||y|} [y_n, x_m]
                sign = 1 if (self.odd(i) and self.odd(j)) else -1
                mm, nn = n, m
        if rule is None:
            result = ((), Scalar.zero())
            self._bracket_memo[key] = result
            return result
        point = {"m": mm, "n": nn}
        terms = []
        for t in rule.terms:
            c = t.coeff.evaluate(point)
            if c:
                terms.append((t.target, t.scalar * (sign * c)))
        central = Scalar.zero()
        if rule.central is not None and m + n == 0:
            c = rule.central.coeff.evaluate({"m": mm})
            if c:
                central = rule.central.scalar * (sign * c)
        result = (tuple(terms), central)
        self._bracket_memo[key] = result
        return result

    def __repr__(self):
        return f"ModeAlgebra({self.name!r})"


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

class State:
    """Finite Scalar-linear combination of PBW monomials (canonical, zero-free)."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = terms or {}
        self._hash = None

    @staticmethod
    def zero() -> "State":
        """The one shared empty state; no State is changed in place."""
        return _ZERO

    @staticmethod
    def monomial(mono: PbwMonomial, coeff=1) -> "State":
        c = coeff if isinstance(coeff, Scalar) else Scalar.from_fraction(coeff)
        if c.is_zero:
            return _ZERO
        return State({mono: c})

    @staticmethod
    def vacuum(sector=0) -> "State":
        return State.monomial(PbwMonomial(sector, VACUUM_WORD))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "State") -> "State":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                t.pop(m, None)
            else:
                t[m] = s
        return State(t)

    @staticmethod
    def sum(pairs) -> "State":
        """sum c * state over (state, c) pairs, accumulated in one dict.

        Equal to adding the scaled states one after the other, term order
        included, without copying the partial sum at each step.  A
        plain-rational entry is an int numerator over one running
        denominator den: a term n/d with d not dividing den first
        multiplies den and every numerator by d // gcd(den, d), and the
        Scalars are built once at the end.  A parametric coefficient or
        term makes its entry a Scalar, built as the fold builds it (v * c,
        then s + v) and never rescaled.  An entry that reaches 0 is
        deleted, as in the fold, so both give the same term order.  A sum
        with no term left is the shared `State.zero()`.
        """
        acc = {}
        den = 1
        for state, c in pairs:
            terms = state.terms
            if not terms:
                continue
            f = c._frac if isinstance(c, Scalar) else c
            if f is not None:
                if not f:
                    continue
                cn, cd = f.numerator, f.denominator
            for m, v in terms.items():
                g = v._frac
                if f is not None and g is not None:
                    d = cd * g.denominator
                    if den % d:
                        r = d // gcd(den, d)
                        den *= r
                        for k, n in acc.items():
                            if type(n) is int:
                                acc[k] = n * r
                    n = cn * g.numerator * (den // d)
                    s = acc.get(m)
                    if s is None:
                        acc[m] = n
                        continue
                    if type(s) is int:
                        n += s
                        if n:
                            acc[m] = n
                        else:
                            del acc[m]
                        continue
                    v = _over_den(n, den)
                else:
                    if f != 1:
                        v = v * c
                    s = acc.get(m)
                    if s is None:
                        acc[m] = v
                        continue
                    if type(s) is int:
                        s = _over_den(s, den)
                v = s + v
                if v.is_zero:
                    del acc[m]
                else:
                    acc[m] = v
        for m, n in acc.items():
            if type(n) is int:
                acc[m] = (_SMALL_INTS.get(n) or _rational(n) if den == 1
                          else _over_den(n, den))
        return State(acc) if acc else _ZERO

    def __sub__(self, other: "State") -> "State":
        return self + other.scale(-1)

    def scale(self, c) -> "State":
        if type(c) is int:
            if not c or self.is_zero:
                return _ZERO
            if c == 1:
                return self
            c = _SMALL_INTS.get(c) or Scalar.from_fraction(c)
        else:
            if not isinstance(c, Scalar):
                c = Scalar.from_fraction(c)
            if c.is_zero or self.is_zero:
                return _ZERO
            if c._frac == 1:
                return self
        return State({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, State) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def coeff(self, mono: PbwMonomial) -> Scalar:
        return self.terms.get(mono, Scalar.zero())

    def degrees(self, alg) -> set:
        return {alg.mono_degree(m) for m in self.terms}

    def scaled_degree(self, alg) -> int:
        """Degree of a homogeneous state in units of 1/u; raises on mixed
        degrees."""
        ds = {alg.scaled_degree(m) for m in self.terms}
        if len(ds) != 1:
            raise ValueError("state is not homogeneous: degrees "
                             f"{sorted(Fraction(d, alg.unit) for d in ds)}")
        return ds.pop()

    def degree(self, alg):
        """Degree of a homogeneous state; raises on mixed degrees."""
        return alg.from_units(self.scaled_degree(alg))

    def component(self, alg, degree) -> "State":
        degree = Fraction(degree)
        return State({m: c for m, c in self.terms.items()
                      if alg.mono_degree(m) == degree})

    def __repr__(self):
        if self.is_zero:
            return "State(0)"
        return f"State({len(self.terms)} terms)"


_ZERO = State()


def _over_den(n, den):
    """The plain-rational Scalar n / den."""
    if n % den:
        return _rational(Fraction(n, den))
    n //= den
    return _SMALL_INTS.get(n) or _rational(n)


# ---------------------------------------------------------------------------
# Normal ordering
# ---------------------------------------------------------------------------

def apply_mode(alg: ModeAlgebra, g: int, n: int, state: State) -> State:
    """Action of the mode x^g_n on a State, in PBW-canonical form."""
    if not 0 <= g < len(alg.generators):
        raise UnknownGenerator(g)
    return State.sum((_apply_mono(alg, g, n, mono), c)
                     for mono, c in state.terms.items())


def _apply_mono(alg: ModeAlgebra, g: int, n: int, mono: PbwMonomial) -> State:
    key = (g, n, mono)
    hit = alg._apply_memo.get(key)
    if hit is not None:
        return hit
    result = _apply_mono_raw(alg, g, n, mono)
    alg._apply_memo[key] = result
    return result


def _apply_mono_raw(alg, g, n, mono):
    word = mono.word
    creation = alg.is_creation(g, n)
    if not word:
        if creation:
            return State.monomial(PbwMonomial(mono.sector, ((g, n),)))
        ev = alg.vacuum_eigenvalue(g, n, mono.sector)
        if ev:
            return State.monomial(mono, Scalar.from_fraction(ev))
        return State.zero()
    g1, n1 = word[0]
    if (n, g) == (n1, g1) and alg.odd(g):
        return State.zero()
    if creation and (n, g) <= (n1, g1):
        return State.monomial(PbwMonomial(mono.sector, ((g, n),) + word))
    rest = PbwMonomial(mono.sector, word[1:])
    sign = -1 if (alg.odd(g) and alg.odd(g1)) else 1
    pairs = [(_apply_mono(alg, g1, n1, m), c if sign > 0 else -c)
             for m, c in _apply_mono(alg, g, n, rest).terms.items()]
    terms, central = alg.bracket(g, n, g1, n1)
    for tg, sc in terms:
        pairs.append((_apply_mono(alg, tg, n + n1, rest), sc))
    if not central.is_zero:
        pairs.append((State.monomial(rest), central))
    return State.sum(pairs)


def normal_order(alg: ModeAlgebra, word, sector=0) -> State:
    """Rewrite a product of modes (and lattice shifts) applied to a vacuum.

    `word` is a sequence of ops, leftmost first; each op is either
    (generator name or index, mode) or ("S", charge shift).
    """
    state = State.vacuum(sector)
    for op in reversed(list(word)):
        tag, n = op
        if tag == "S" and "S" not in alg._by_name:
            if not alg.has_sectors:
                raise SectorMismatch(f"shift in sector-free algebra {alg.name!r}")
            state = shift_sector(alg, n, state)
            continue
        g = tag if isinstance(tag, int) else alg.gen_index(tag)
        state = apply_mode(alg, g, int(n), state)
    return state


def shift_sector(alg: ModeAlgebra, shift: int, state: State) -> State:
    """Action of the lattice shift operator S_shift."""
    if not alg.has_sectors:
        raise SectorMismatch(f"shift in sector-free algebra {alg.name!r}")
    return State({PbwMonomial(m.sector + shift, m.word): c
                  for m, c in state.terms.items()})


# ---------------------------------------------------------------------------
# Graded bases
# ---------------------------------------------------------------------------

def basis_monomials(alg: ModeAlgebra, degree, sector=0):
    """PBW monomials of the given degree in one sector, canonical order."""
    degree = Fraction(degree)
    rem = degree - alg.sector_energy(sector)
    if rem < 0 or rem.denominator != 1:
        return []
    out = []
    for pos_word in _positive_words(alg, int(rem)):
        for zword in _zero_mode_words(alg):
            out.append(PbwMonomial(sector, pos_word + zword))
    return out


def all_sector_monomials(alg: ModeAlgebra, degree):
    """Monomials of one degree across every sector (finitely many)."""
    degree = Fraction(degree)
    if not alg.has_sectors:
        return basis_monomials(alg, degree, 0)
    out = []
    m = 0
    while True:
        found = False
        for s in ([0] if m == 0 else [m, -m]):
            if alg.sector_energy(s) <= degree:
                found = True
                out.extend(basis_monomials(alg, degree, s))
        if not found and m > 0:
            break
        m += 1
    return out


def graded_dim(alg: ModeAlgebra, degree) -> int:
    """Dimension of the vacuum-sector graded component."""
    return len(basis_monomials(alg, degree, 0))


def _positive_words(alg, total):
    """Canonical words of creation ops with mode < 0 and total degree `total`."""
    ops = []
    for g in range(len(alg.generators)):
        for n in range(-1, -total - 1, -1):
            if alg.is_creation(g, n):
                ops.append((n, g))
    ops.sort()

    results = []
    def rec2(idx, remaining, word):
        if remaining == 0:
            results.append(tuple(word))
            return
        for i in range(idx, len(ops)):
            n, g = ops[i]
            if -n > remaining:
                continue
            if word and (n, g) == (word[-1][1], word[-1][0]) and alg.odd(g):
                continue
            word.append((g, n))
            rec2(i, remaining + n, word)
            word.pop()
    rec2(0, total, [])
    return results


# Weight-0 bosons (weyl's a*) have degree-0 powers of every order; basis
# lists keep their zero modes to this multiplicity.
ZERO_MODE_CAP = 2


def _zero_mode_words(alg):
    """Suffix combinations of degree-0 creation ops (capped multiplicity)."""
    zgens = [g for g, spec in enumerate(alg.generators)
             if spec.weight == 0 and alg.is_creation(g, 0)]
    if not zgens:
        return [()]
    out = [()]
    for g in sorted(zgens):
        cap = 1 if alg.odd(g) else ZERO_MODE_CAP
        new = []
        for w in out:
            for count in range(cap + 1):
                new.append(w + ((g, 0),) * count)
        out = new
    return out


# ---------------------------------------------------------------------------
# Rendering and parsing of monomials / states
# ---------------------------------------------------------------------------

def render_monomial(alg: ModeAlgebra, mono: PbwMonomial) -> str:
    parts = []
    i = 0
    word = mono.word
    while i < len(word):
        g, n = word[i]
        j = i
        while j < len(word) and word[j] == (g, n):
            j += 1
        count = j - i
        base = f"{alg.generators[g].name}({n})"
        parts.append(base if count == 1 else f"{base}^{count}")
        i = j
    if mono.sector == 0:
        parts.append(alg.vacuum_symbol)
    else:
        parts.append(f"1_{{{mono.sector},{alg.lattice_N}}}")
    return " ".join(parts)


def render_state(alg: ModeAlgebra, state: State) -> str:
    if state.is_zero:
        return "0"
    keys = sorted(state.terms, key=lambda m: (alg.mono_degree(m), m.sector, m.word))
    parts = []
    for m in keys:
        c = str(state.terms[m])
        mono = render_monomial(alg, m)
        if c == "1":
            term = mono
        elif c == "-1":
            term = f"-{mono}"
        else:
            if "+" in c or ("-" in c[1:]) or "/" in c:
                c = f"({c})"
            term = f"{c} {mono}"
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _poly_to_str(p: Poly) -> str:
    from .scalars import render_poly
    return render_poly(p)


def algebra_to_json(alg: ModeAlgebra) -> dict:
    gens = [{"name": g.name, "weight2": int(2 * g.weight),
             "parity": "odd" if g.odd else "even"} for g in alg.generators]
    brackets = []
    for (i, j), rule in sorted(alg.rules.items()):
        entry = {
            "lhs": alg.generators[i].name,
            "rhs": alg.generators[j].name,
            "terms": [{"gen": alg.generators[t.target].name,
                       "coeff": _poly_to_str(t.coeff),
                       "scalar": str(t.scalar),
                       "delta_condition": None}
                      for t in rule.terms],
        }
        if rule.central is not None:
            entry["central"] = {"param": str(rule.central.scalar),
                                "coeff": _poly_to_str(rule.central.coeff)}
        brackets.append(entry)
    doc = {
        "name": alg.name,
        "generators": gens,
        "bracket": brackets,
        "central_params": list(alg.central_params),
        "grading_denominator": alg.grading_denominator,
        "vacuum_symbol": alg.vacuum_symbol,
    }
    if alg.has_sectors:
        doc["lattice_N"] = alg.lattice_N
        doc["charge_gen"] = alg.generators[alg.charge_gen].name
    return doc


def _parse_poly(text: str, allowed=("m", "n")) -> Poly:
    s = parse_scalar(text)
    if not s.den.is_constant or s.den.constant_value() != 1:
        raise ValueError(f"bracket coefficient must be polynomial: {text!r}")
    bad = [v for v in s.num.variables() if v not in allowed]
    if bad:
        raise ValueError(f"unexpected variables {bad} in {text!r}")
    return s.num


def algebra_from_json(doc: dict) -> ModeAlgebra:
    gens = [GeneratorSpec(g["name"], Fraction(g["weight2"], 2),
                          g.get("parity", "even") == "odd")
            for g in doc["generators"]]
    index = {g.name: i for i, g in enumerate(gens)}
    rules = {}
    for entry in doc.get("bracket", []):
        i, j = index[entry["lhs"]], index[entry["rhs"]]
        terms = tuple(
            BracketTerm(index[t["gen"]], _parse_poly(t["coeff"]),
                        parse_scalar(t.get("scalar", "1")))
            for t in entry.get("terms", []))
        central = None
        if entry.get("central"):
            central = CentralTerm(parse_scalar(entry["central"]["param"]),
                                  _parse_poly(entry["central"]["coeff"], ("m",)))
        rules[(i, j)] = BracketRule(terms, central)
    return ModeAlgebra(
        doc.get("name", "custom"), gens, rules,
        lattice_N=doc.get("lattice_N"),
        charge_gen=index[doc["charge_gen"]] if "charge_gen" in doc else None,
        vacuum_symbol=doc.get("vacuum_symbol", "|0>"),
        central_params=tuple(doc.get("central_params", ())),
    )
