"""Exact graded characters as truncated q-series.

A QSeries is Tr q^{L_0 - c/24} truncated at a cutoff: a rational exponent
offset plus coefficients on a grid of step 1 (or 1/2 for odd lattices,
where sector energies are half-integral).  All data is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fock import all_sector_monomials, basis_monomials
from .scalars import ParamPoint


class QSeries:
    """Truncated series sum_d coeffs[d] q^(offset + d), d on a step grid.

    `coeffs` keys are nonnegative Fractions that are multiples of `step`;
    `cutoff` is the largest relative exponent up to which coefficients are
    complete.  Two series are equal when their offsets differ by an
    integer, their absolute tops `offset + cutoff` are equal and their
    absolute coefficient tables agree.
    """

    def __init__(self, offset, coeffs, cutoff, step=Fraction(1)):
        self.offset = Fraction(offset)
        self.step = Fraction(step)
        self.cutoff = Fraction(cutoff)
        self.coeffs = {Fraction(d): Fraction(c) for d, c in coeffs.items()
                       if c and Fraction(d) <= self.cutoff}

    def coefficient(self, d) -> Fraction:
        """Coefficient at relative exponent d (absolute offset + d)."""
        return self.coeffs.get(Fraction(d), Fraction(0))

    def absolute(self) -> dict:
        return {self.offset + d: c for d, c in self.coeffs.items()}

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return ((self.offset - other.offset).denominator == 1
                and self.offset + self.cutoff == other.offset + other.cutoff
                and self.absolute() == other.absolute())

    def __hash__(self):
        # equal series have offsets that differ by an integer
        return hash(self.offset % 1)

    def __add__(self, other: "QSeries") -> "QSeries":
        """Sum on a common grid; the result offset is the smaller one."""
        offset = min(self.offset, other.offset)
        top = min(self.offset + self.cutoff, other.offset + other.cutoff)
        coeffs: dict = {}
        for src in (self, other):
            for k, c in src.absolute().items():
                if k <= top:
                    coeffs[k - offset] = coeffs.get(k - offset,
                                                    Fraction(0)) + c
        steps = [d for d in coeffs if d > 0]
        step = Fraction(1)
        for d in steps:
            step = _frac_gcd(step, d)
        return QSeries(offset, coeffs, top - offset, step)

    def render(self) -> str:
        parts = []
        d = Fraction(0)
        while d <= self.cutoff:
            c = self.coeffs.get(d, Fraction(0))
            if c:
                parts.append(_qterm(c, d))
            d += self.step
        body = " + ".join(parts) if parts else "0"
        if self.offset == 0:
            return body
        return f"q^{_exp_str(self.offset)}({body})"

    def to_json(self):
        return {"offset": str(self.offset), "step": str(self.step),
                "cutoff": str(self.cutoff),
                "coefficients": [[str(d), str(c)] for d, c in
                                 sorted(self.coeffs.items())]}

    def __repr__(self):
        return f"QSeries({self.render()!r})"


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    from math import gcd
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1:
        e = e.numerator
        return str(e) if 0 <= e <= 9 else f"{{{e}}}"
    return f"{{{e}}}"


def _qterm(c: Fraction, d: Fraction) -> str:
    cs = str(c)
    if d == 0:
        return cs
    q = "q" if d == 1 else f"q^{_exp_str(d)}"
    return q if c == 1 else f"{cs}{q}"


def character(instance, sector=0, cutoff: int = 8,
              point: ParamPoint | None = None) -> QSeries:
    """Graded character Tr q^{L_0 - c/24} of one sector, truncated.

    A parametric central charge must be evaluated through `point`; an
    instance without one (commutative, affine at the critical level)
    raises ValueError.
    The offset is sector energy minus c/24; relative exponents step by 1.
    An even weight-0 generator g makes every graded piece infinite
    (g(0)^k |0> for all k), so it raises ValueError.
    """
    alg = instance.algebra
    zero = [g.name for g in alg.generators if g.weight == 0 and not g.odd]
    if zero:
        raise ValueError(
            f"character of {alg.name} is undefined: every graded piece is "
            f"infinite-dimensional, from the zero modes of the even weight-0 "
            f"generator{'s' if len(zero) > 1 else ''} {', '.join(zero)}")
    c = instance.central_charge
    if c is None:
        raise ValueError(
            f"preset {instance.name!r} has no conformal structure")
    if point is not None:
        c = c.evaluate(point)
    elif c.is_rational:
        c = c.as_fraction()
    else:
        raise ValueError(
            f"central charge {c!r} is parametric; supply a parameter point")
    energy = alg.sector_energy(sector)
    offset = energy - Fraction(c, 24)
    coeffs = {}
    for d in range(cutoff + 1):
        n = len(basis_monomials(alg, energy + d, sector))
        if n:
            coeffs[Fraction(d)] = Fraction(n)
    return QSeries(offset, coeffs, cutoff)


def lattice_theta_character(N: int, cutoff: int = 8) -> QSeries:
    """Character of the whole rank-one lattice algebra sqrt(N)Z.

    Equals (sum_m q^{m^2 N / 2}) / prod_{n>=1} (1 - q^n) with the usual
    -c/24 = -1/24 offset; for odd N the grid has step 1/2.
    """
    if N < 1:
        raise ValueError("lattice rank parameter N must be >= 1")
    step = Fraction(1, 2) if N % 2 else Fraction(1)
    # denominator expansion: partitions via Euler recursion on the grid
    denom = _partition_series(cutoff)
    coeffs: dict = {}
    m = 0
    while True:
        e = Fraction(m * m * N, 2)
        if e > cutoff:
            break
        for k, c in denom.items():
            d = e + k
            if d <= cutoff:
                mult = 1 if m == 0 else 2
                coeffs[d] = coeffs.get(d, Fraction(0)) + mult * c
        m += 1
    return QSeries(Fraction(-1, 24), coeffs, cutoff, step)


def _partition_series(cutoff: int) -> dict:
    """Partition numbers p(0..cutoff) by dynamic programming."""
    p = [Fraction(1)] + [Fraction(0)] * cutoff
    for part in range(1, cutoff + 1):
        for d in range(part, cutoff + 1):
            p[d] += p[d - part]
    return {Fraction(d): p[d] for d in range(cutoff + 1)}


@dataclass
class CharacterReport:
    cutoff: Fraction
    passed: bool
    dims: list = field(default_factory=list)
    mismatch: str | None = None

    def render(self) -> str:
        head = "boson-fermion characters"
        if self.passed:
            return f"{head}: graded dimensions agree up to degree {self.cutoff}"
        return f"{head}: FAIL ({self.mismatch})"


def boson_fermion_character_check(cutoff=4) -> CharacterReport:
    """Graded dimensions of the fermionic exterior algebra vs the lattice Z.

    Both sides are enumerated independently.  The exterior side carries the
    lattice grading transported through the correspondence: a monomial of
    Fock degree d with charge q (psi* count minus psi count) sits in degree
    d + q/2.
    """
    from .presets import free_fermion, lattice
    cutoff = Fraction(cutoff)
    falg = free_fermion().algebra
    lalg = lattice(1).algebra
    psi = falg.gen_index("psi")
    star = falg.gen_index("psi*")

    fdims: dict = {}
    for d in range(2 * int(cutoff) + 2):
        for mono in basis_monomials(falg, d, 0):
            q = sum(1 if g == star else -1 for g, _ in mono.word
                    if g in (psi, star))
            deg = Fraction(d) + Fraction(q, 2)
            if 0 <= deg <= cutoff:
                fdims[deg] = fdims.get(deg, 0) + 1

    ldims: dict = {}
    deg = Fraction(0)
    while deg <= cutoff:
        total = len(all_sector_monomials(lalg, deg))
        if total:
            ldims[deg] = total
        deg += Fraction(1, 2)

    report = CharacterReport(cutoff, True)
    deg = Fraction(0)
    while deg <= cutoff:
        nf = fdims.get(deg, 0)
        nl = ldims.get(deg, 0)
        report.dims.append((deg, nf, nl))
        if nf != nl:
            report.passed = False
            report.mismatch = f"degree {deg}: {nf} != {nl}"
            return report
        deg += Fraction(1, 2)
    return report
