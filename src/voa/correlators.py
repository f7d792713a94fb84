"""Exact n-point functions for the Heisenberg algebra on the formal disc.

A RationalCorrelator is a finite sum of terms

    coeff * num(z_1..z_n) / (prod_i z_i^{k_i} * prod_{i<j} (z_i - z_j)^{m_ij})

kept in factored form: the diagonal pole multiplicities are the meaningful
data and are never expanded away.  Insertions are the fields of the states
b(-1-j)|0> (the j-th derivative of b divided by j!) or the vacuum, and
functionals are finite coefficient lists on the Fock basis, so the Wick
pairing recursion terminates with an exact rational answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .scalars import Poly, poly_derivative as _poly_deriv
from .fock import PbwMonomial, State
from .fields import OperatorCache, state_field_mode


def zvar(i: int) -> str:
    return f"z{i}"


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    num: Poly
    poles: tuple      # ((i, j, mult), ...) with i < j, sorted
    zpows: tuple      # ((i, power), ...) denominator z_i^power, sorted

    def key(self):
        return (self.poles, self.zpows, tuple(sorted(self.num.terms.items())))


class RationalCorrelator:
    """Finite sum of factored rational terms over the diagonal arrangement."""

    def __init__(self, terms=()):
        self.terms = _merge(terms)

    @staticmethod
    def zero():
        return RationalCorrelator()

    @staticmethod
    def constant(c):
        c = Fraction(c)
        if not c:
            return RationalCorrelator()
        return RationalCorrelator([Term(c, Poly.const(1), (), ())])

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return RationalCorrelator(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return RationalCorrelator()
        return RationalCorrelator(
            [Term(t.coeff * c, t.num, t.poles, t.zpows) for t in self.terms])

    def __mul__(self, other):
        out = []
        for a in self.terms:
            for b in other.terms:
                poles = {}
                for i, j, m in a.poles + b.poles:
                    poles[(i, j)] = poles.get((i, j), 0) + m
                zp = {}
                for i, k in a.zpows + b.zpows:
                    zp[i] = zp.get(i, 0) + k
                out.append(Term(
                    a.coeff * b.coeff, a.num * b.num,
                    tuple(sorted((i, j, m) for (i, j), m in poles.items())),
                    tuple(sorted(zp.items()))))
        return RationalCorrelator(out)

    def __eq__(self, other):
        if not isinstance(other, RationalCorrelator):
            return NotImplemented
        # equal term lists need no expansion
        if [t.key() for t in self.terms] == [t.key() for t in other.terms] \
                and all(a.coeff == b.coeff for a, b in
                        zip(self.terms, other.terms)):
            return True
        return (self - other)._is_zero_expanded()

    def _is_zero_expanded(self) -> bool:
        """Exact zero test by clearing all denominators."""
        if not self.terms:
            return True
        poles = {}
        zp = {}
        for t in self.terms:
            for i, j, m in t.poles:
                poles[(i, j)] = max(poles.get((i, j), 0), m)
            for i, k in t.zpows:
                zp[i] = max(zp.get(i, 0), k)
        total = Poly()
        for t in self.terms:
            p = t.num.scale(t.coeff)
            tp = {(i, j): m for i, j, m in t.poles}
            tz = dict(t.zpows)
            for (i, j), m in poles.items():
                extra = m - tp.get((i, j), 0)
                if extra:
                    p = p * (_diag(i, j) ** extra)
            for i, k in zp.items():
                extra = k - tz.get(i, 0)
                if extra:
                    p = p * (Poly.var(zvar(i)) ** extra)
            total = total + p
        return total.is_zero

    def deriv(self, i: int) -> "RationalCorrelator":
        """Partial derivative with respect to z_i."""
        out = []
        zi = zvar(i)
        for t in self.terms:
            dn = _poly_deriv(t.num, zi)
            if not dn.is_zero:
                out.append(Term(t.coeff, dn, t.poles, t.zpows))
            for a, b, m in t.poles:
                if i not in (a, b):
                    continue
                sign = -m if i == a else m
                poles = tuple(sorted(
                    (x, y, mm + (1 if (x, y) == (a, b) else 0))
                    for x, y, mm in t.poles))
                out.append(Term(t.coeff * sign, t.num, poles, t.zpows))
            for a, k in t.zpows:
                if a != i:
                    continue
                zp = tuple(sorted((x, kk + (1 if x == a else 0))
                                  for x, kk in t.zpows))
                out.append(Term(t.coeff * (-k), t.num, t.poles, zp))
        return RationalCorrelator(out)

    def render(self) -> str:
        if not self.terms:
            return "0"
        from .scalars import render_poly
        parts = []
        for t in self.terms:
            num = t.num.scale(t.coeff)
            ns = render_poly(num)
            if len(num.terms) > 1:
                ns = f"({ns})"
            dens = []
            for i, k in t.zpows:
                dens.append(f"{zvar(i)}" + (f"^{k}" if k > 1 else ""))
            for i, j, m in t.poles:
                f = f"({zvar(i)}-{zvar(j)})"
                dens.append(f + (f"^{m}" if m > 1 else ""))
            if dens:
                ds = "*".join(dens)
                if len(dens) > 1:
                    ds = f"({ds})"
                parts.append(f"{ns}/{ds}")
            else:
                parts.append(ns)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_json(self):
        from .scalars import render_poly
        return [{"coeff": str(t.coeff), "numerator": render_poly(t.num),
                 "poles": [[i, j, m] for i, j, m in t.poles],
                 "zpowers": [[i, k] for i, k in t.zpows]}
                for t in self.terms]


def _diag(i, j) -> Poly:
    return Poly.var(zvar(i)) - Poly.var(zvar(j))


def _merge(terms):
    acc = {}
    for t in terms:
        if not t.coeff or t.num.is_zero:
            continue
        key = (t.poles, t.zpows)
        if key in acc:
            c, n = acc[key]
            acc[key] = (Fraction(1), n.scale(c) + t.num.scale(t.coeff))
        else:
            acc[key] = (t.coeff, t.num)
    out = []
    for (poles, zpows), (c, n) in acc.items():
        if n.is_zero:
            continue
        out.append(_reduce_term(Term(c, n, poles, zpows)))
    out = [t for t in out if not t.num.is_zero]
    return sorted(out, key=lambda t: (t.poles, t.zpows,
                                      sorted(t.num.terms.items())))


def _reduce_term(t: Term) -> Term:
    """Cancel diagonal and z_i factors dividing the numerator.

    A nonzero multiple of (z_i - z_j) contains both z_i and z_j, and one of
    z_i contains z_i, so a division is tried only when the numerator holds
    the variables it needs.  Callers drop zero numerators first.
    """
    from .scalars import _poly_divexact
    num = t.num
    vs = set(num.variables())
    poles = {(i, j): m for i, j, m in t.poles}
    for (i, j) in list(poles):
        while poles[(i, j)] > 0 and zvar(i) in vs and zvar(j) in vs:
            try:
                num = _poly_divexact(num, _diag(i, j))
            except ValueError:
                break
            poles[(i, j)] -= 1
            vs = set(num.variables())
    zp = dict(t.zpows)
    for i in list(zp):
        while zp[i] > 0 and zvar(i) in vs:
            try:
                num = _poly_divexact(num, Poly.var(zvar(i)))
            except ValueError:
                break
            zp[i] -= 1
            vs = set(num.variables())
    return Term(t.coeff, num,
                tuple(sorted((i, j, m) for (i, j), m in poles.items() if m)),
                tuple(sorted((i, k) for i, k in zp.items() if k)))


# ---------------------------------------------------------------------------
# Wick pairing computation
# ---------------------------------------------------------------------------

VACUUM_PHI = {PbwMonomial(0, ()): Fraction(1)}


def _phi_terms(phi):
    if phi is None:
        return VACUUM_PHI
    if isinstance(phi, State):
        return {m: c.as_fraction() for m, c in phi.terms.items()}
    return dict(phi)


def _pair(phi: dict, v: State) -> Fraction:
    """phi(v) for a functional {monomial: Fraction} and a rational state."""
    total = Fraction(0)
    for mono, c in v.terms.items():
        if mono in phi:
            if not c.is_rational:
                raise ValueError("matrix element is not rational")
            total += phi[mono] * c.as_fraction()
    return total


def state_insertion(alg, state: State):
    """Insertion descriptor for a state: None for vacuum, j for b(-1-j)|0>."""
    if state == State.vacuum():
        return None
    items = list(state.terms.items())
    if len(items) == 1:
        mono, c = items[0]
        if c == 1 and mono.sector == 0 and len(mono.word) == 1:
            g, n = mono.word[0]
            if n <= -1:
                return -n - 1
    raise ValueError("insertions must be the vacuum or b(-1-j)|0>")


def _pair_kernel(a: int, b: int, i: int, j: int) -> Term:
    """Contraction of d^a b(z_i)/a! with d^b b(z_j)/b! (for i left of j)."""
    c = Fraction((-1) ** a * factorial(a + b + 1), factorial(a) * factorial(b))
    return Term(c, Poly.const(1), ((min(i, j), max(i, j), 2 + a + b)
                                   if i < j else (j, i, 2 + a + b),), ())


def heisenberg_npoint(phi, n: int, insertions=None) -> RationalCorrelator:
    """phi(Y(A_1,z_1)...Y(A_n,z_n)|0>) as an exact rational function.

    `insertions` lists the derivative order j of each field d^j b / j!
    (None entries are vacuum insertions); default is n copies of b itself.
    Variables are z1..zn in insertion order, which is also the expansion
    ordering |z1| > ... > |zn|; the rational answer is order-independent.

    Only partial pairings whose unpaired fields phi can read are visited:
    the number of unpaired fields must be the length of a sector-0 word of
    phi, and the creation part must be nonzero.  The pairs are disjoint,
    so the kernel of a pairing is one term, the product of the pair
    kernels over the union of their poles.
    """
    if insertions is None:
        insertions = [0] * n
    if len(insertions) != n:
        raise ValueError("insertion count must match n")
    phi = _phi_terms(phi)
    dv = {i + 1: j for i, j in enumerate(insertions) if j is not None}
    sizes = {len(mono.word) for mono in phi if mono.sector == 0}
    out = []
    for pairing, free in _partial_pairings(list(dv), sizes):
        rest = _creation_polynomial(phi, [(i, dv[i]) for i in free])
        if rest.is_zero:
            continue
        coeff, poles = Fraction(1), []
        for i, j in pairing:
            kernel = _pair_kernel(dv[i], dv[j], i, j)
            coeff *= kernel.coeff
            poles.extend(kernel.poles)
        out.append(Term(coeff, rest, tuple(sorted(poles)), ()))
    return RationalCorrelator(out)


def _partial_pairings(indices, sizes):
    """(pairing, unpaired) splittings of an index list; pairs ordered.

    Only splittings with len(unpaired) in `sizes` are yielded, in the order
    of the full enumeration; a branch that cannot reach one is cut.
    """
    if not any(s <= len(indices) and (len(indices) - s) % 2 == 0
               for s in sizes):
        return
    if not indices:
        yield [], []
        return
    first, rest = indices[0], indices[1:]
    # first unpaired
    for pairing, free in _partial_pairings(rest, {s - 1 for s in sizes if s}):
        yield pairing, [first] + free
    # first paired with a later insertion
    for pos, j in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1:]
        for pairing, free in _partial_pairings(remaining, sizes):
            yield [(first, j)] + pairing, free


def _creation_polynomial(phi, free) -> Poly:
    """phi applied to the pure-creation part of the unpaired insertions.

    Each unpaired field d^j b(z_i)/j! contributes C(-m-1, j) z_i^{-m-1-j}
    for a creation mode m <= -1; phi selects finitely many assignments.
    """
    out = Poly()
    k = len(free)
    for mono, c in phi.items():
        if mono.sector != 0 or len(mono.word) != k:
            continue
        modes = [n for _, n in mono.word]
        for assign in _distinct_perms(modes):
            term = Poly.const(c)
            ok = True
            for (i, j), m in zip(free, assign):
                coeff = comb(-m - 1, j) if -m - 1 >= j else 0
                if not coeff:
                    ok = False
                    break
                term = term * Poly.var(zvar(i)) ** (-m - 1 - j)
                term = term.scale(coeff)
            if ok:
                out = out + term
    return out


def _distinct_perms(items):
    items = sorted(items)
    import itertools
    seen = set()
    for p in itertools.permutations(items):
        if p not in seen:
            seen.add(p)
            yield p


# ---------------------------------------------------------------------------
# Region expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionRegion:
    """Total order on variables: order[0] has the largest modulus."""
    order: tuple


def expand(f: RationalCorrelator, region: ExpansionRegion,
           window: int) -> dict:
    """Exact Laurent coefficients of f in `region` on the window's box.

    Returns {exponent tuple in region order: Fraction} for the nonzero
    coefficients with every exponent in -window-2..window; the region must
    order every variable of f.  A pole (z_b - z_s)^-m, z_b outer, is
    sum_t C(m-1+t, t) z_b^(-m-t) z_s^t.  Each numerator monomial of a term
    walks the poles depth first, innermost first by their inner variable:
    an exponent falls only while its variable is the outer side, then only
    grows, so t stops at window - e[s] and nothing in the box is cut.
    """
    pos = {v: k for k, v in enumerate(region.order)}

    def at(v):
        if v not in pos:
            raise ValueError(f"region {region.order} does not order {v}")
        return pos[v]

    out = {}

    def walk(poles, e, coeff):
        if not poles:
            if all(-window - 2 <= x <= window for x in e):
                out[tuple(e)] = out.get(tuple(e), 0) + coeff
            return
        (small, big, m, sign), rest = poles[0], poles[1:]
        for t in range(window - e[small] + 1):
            nxt = list(e)
            nxt[small] += t
            nxt[big] -= m + t
            walk(rest, nxt, coeff * sign * comb(m - 1 + t, t))

    for term in f.terms:
        poles = []
        for i, j, m in term.poles:
            a, b = at(zvar(i)), at(zvar(j))
            poles.append((b, a, m, 1) if a < b else (a, b, m, (-1) ** m))
        poles.sort(reverse=True)
        for mono, c in term.num.terms.items():
            e = [0] * len(pos)
            for v, k in mono:
                e[at(v)] += k
            for i, k in term.zpows:
                e[at(zvar(i))] -= k
            walk(poles, e, term.coeff * c)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Consistency (region independence, horizontality) and bootstrap
# ---------------------------------------------------------------------------

def matrix_element_coefficient(alg, states, phi, exponents, region):
    """Exact coefficient of prod z_i^{e_i} in phi(Y(A_1,z_1)...|0>).

    The operator composition follows `region` (leftmost = largest modulus);
    each field acts by its mode p = -e_i - deg A_i (the one-shot
    `state_field_mode`), and phi is summed here.  A test oracle, one
    coefficient at a time, sharing neither the z-exponent reading
    (`OperatorCache.coeff`) nor the pairing (`_pair`) with `_region_walk`,
    from which `consistency_check` reads the same coefficients; the tests
    compare the two.  An exponent that is not an int raises TypeError.
    """
    v = State.vacuum()
    for idx in reversed([int(z[1:]) for z in region.order]):
        A, e = states[idx - 1], exponents[idx - 1]
        if type(e) is not int:
            raise TypeError(f"exponent {e} is not an int")
        v = state_field_mode(alg, A, -e - A.degree(alg), v)
    phi = _phi_terms(phi)
    return sum((phi[m] * c.as_fraction() for m, c in v.terms.items()
                if m in phi), Fraction(0))


@dataclass
class CorrelatorReport:
    """The verdict of `consistency_check` or `bootstrap_verify`, rendered
    on one line under the check's label."""
    label: str
    passed: bool
    mismatch: str | None = None

    def render(self):
        return f"{self.label}: pass" if self.passed else \
            f"{self.label}: FAIL ({self.mismatch})"


def consistency_check(alg, states, phi, regions, order: int,
                      window: int = 3) -> CorrelatorReport:
    """Region independence plus horizontality for free-boson insertions.

    In each region (an ordering of all of z1..zn) the coefficient of
    prod z_i^{e_i}, for every e_i in -window-2..window, is read two ways:
    from the correlator's Laurent expansion, exact on that box, and
    directly from phi(Y(A_1,z_1)...Y(A_n,z_n)|0>) mode by mode.  `order` is
    unused: no series is truncated.  The direct side depends only on the
    insertion states in region order, so there is one walk per distinct
    insertion sequence (see `_region_walk`), relabeled to z1..zn order for
    each region that has it.  All walks read their modes through one
    `OperatorCache` made for this call.  A failure names the first failing
    region and, in it, the lexicographically first mismatching exponent
    tuple (e_1..e_n).
    """
    ops = OperatorCache(alg)
    insertions = [state_insertion(alg, s) for s in states]
    n = len(states)
    f = heisenberg_npoint(phi, n, insertions)
    phi_terms = _phi_terms(phi)
    span = range(-window - 2, window + 1)
    walks = {}
    for region in regions:
        positions = [int(v[1:]) - 1 for v in region.order]
        back = [positions.index(i) for i in range(n)]
        expanded = {tuple(key[k] for k in back): c
                    for key, c in expand(f, region, window).items()}
        sequence = tuple(states[p] for p in positions)
        walk = walks.get(sequence)
        if walk is None:
            walk = walks[sequence] = _region_walk(ops, sequence, phi_terms,
                                                  span)
        direct = {tuple(key[k] for k in back): c for key, c in walk.items()}
        bad = [e for e in direct.keys() | expanded.keys()
               if direct.get(e, 0) != expanded.get(e, 0)]
        if bad:
            e = min(bad)
            return CorrelatorReport(
                "consistency", False,
                f"region {region.order}, exponents {e}: "
                f"direct {direct.get(e, Fraction(0))} != "
                f"expansion {expanded.get(e, Fraction(0))}")
    # horizontality: d/dz_i f = correlator with A_i replaced by T A_i
    for i in range(n):
        if insertions[i] is None:
            continue
        j = insertions[i]
        repl = list(insertions)
        repl[i] = j + 1
        ft = heisenberg_npoint(phi, n, repl).scale(j + 1)
        if f.deriv(i + 1) != ft:
            return CorrelatorReport("consistency", False,
                                    f"horizontality at insertion {i+1}")
    return CorrelatorReport("consistency", True)


def _region_walk(ops, sequence, phi, span):
    """Nonzero phi(Y(A_1,z_1)...Y(A_n,z_n)|0>) coefficients of one sequence.

    `sequence` lists the insertion states from the outermost field to the
    innermost.  The walk applies the innermost field first, once for each
    exponent in `span`, and descends only into nonzero states, so each
    partial product Y(A_k,z_k)...|0> is computed once and shared by every
    exponent tuple that extends it.  The fields are read through
    `ops.coeff` of the `OperatorCache` `ops`; `consistency_check` makes one
    walk per distinct insertion sequence and passes one cache for all of
    them, so walks that apply the same mode to the same monomial compute
    it once.  Returns {(e_1..e_n): Fraction} with the exponents in the
    order of `sequence`; relabeled to z1..zn order they are the
    coefficients of `matrix_element_coefficient`, tuple by tuple.
    """
    out = {}
    e = [0] * len(sequence)

    def descend(k, v):
        if k < 0:
            total = _pair(phi, v)
            if total:
                out[tuple(e)] = total
            return
        a = ops.field(sequence[k])
        for x in span:
            w = ops.coeff(a, x, v)
            if not w.is_zero:
                e[k] = x
                descend(k - 1, w)

    descend(len(sequence) - 1, State.vacuum())
    return out


def bootstrap_verify(phi, n_max: int) -> CorrelatorReport:
    """Order-2 diagonal coefficients of omega_n reproduce omega_{n-2}.

    For each pair i < j of omega_n, with g = (z_i-z_j)^2 omega_n, the
    Laurent coefficients at z_i -> z_j are c_{-2}, c_{-1} = g, d_i g at
    z_i = z_j (`_diagonal_coefficients`).  c_{-2} must be omega_{n-2} on
    the remaining labels in increasing order, and c_{-1} must vanish.  The
    first failure in (n, i, j) order is reported.
    """
    family = {n: heisenberg_npoint(phi, n) for n in range(0, n_max + 1, 2)}
    for n in range(2, n_max + 1, 2):
        f = family[n]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c2, c1 = _diagonal_coefficients(f, i, j)
                rest = [k for k in range(1, n + 1) if k not in (i, j)]
                target = _rename(family[n - 2], dict(enumerate(rest, 1)))
                if c2 != target:
                    return CorrelatorReport(
                        "bootstrap", False,
                        f"n={n}, pair ({i},{j}): order-2 coefficient")
                if not c1._is_zero_expanded():
                    return CorrelatorReport(
                        "bootstrap", False,
                        f"n={n}, pair ({i},{j}): order-1 coefficient")
    return CorrelatorReport("bootstrap", True)


def _diagonal_coefficients(f: RationalCorrelator, i: int, j: int):
    """Laurent coefficients of (z_i - z_j)^{-2} and ^{-1} at z_i -> z_j.

    With g = (z_i-z_j)^2 f they are c_{-2}, c_{-1} = g, d_i g at z_i = z_j.
    Requires pole multiplicity at (i,j) at most 2 in every term (true for
    the Wick family); a term without that pole vanishes to second order in
    g and adds to neither.  Returns (c_{-2}, c_{-1}) as correlators in the
    remaining variables (z_j may appear and must cancel for the bootstrap).
    """
    terms = []
    for t in f.terms:
        mult = next((m for a, b, m in t.poles if (a, b) == (i, j)), 0)
        if mult == 0:
            continue
        if mult > 2:
            raise ValueError("diagonal pole of order > 2")
        num = t.num if mult == 2 else t.num * _diag(i, j)
        poles = tuple(p for p in t.poles if p[:2] != (i, j))
        terms.append(Term(t.coeff, num, poles, t.zpows))
    g = RationalCorrelator(terms)
    return _rename(g, {i: j}), _rename(g.deriv(i), {i: j})


def _rename(f: RationalCorrelator, mapping: dict) -> RationalCorrelator:
    """Substitute z_a -> z_{mapping[a]} for every label a in `mapping`.

    All labels are renamed at once.  Multiplicities and powers that land on
    one label add up, and a pole whose labels come out decreasing is turned
    round: (z_b - z_a)^m = (-1)^m (z_a - z_b)^m.
    """
    names = {zvar(a): zvar(b) for a, b in mapping.items()}
    out = []
    for t in f.terms:
        coeff, poles, zp = t.coeff, {}, {}
        for a, b, m in t.poles:
            a, b = mapping.get(a, a), mapping.get(b, b)
            if a > b:
                a, b, coeff = b, a, coeff * (-1) ** m
            poles[(a, b)] = poles.get((a, b), 0) + m
        for a, k in t.zpows:
            a = mapping.get(a, a)
            zp[a] = zp.get(a, 0) + k
        num = Poly()
        for mono, c in t.num.terms.items():
            term = Poly.const(c)
            for v, e in mono:
                term = term * Poly.var(names.get(v, v)) ** e
            num = num + term
        out.append(Term(coeff, num,
                        tuple(sorted((a, b, m) for (a, b), m in poles.items())),
                        tuple(sorted(zp.items()))))
    return RationalCorrelator(out)
