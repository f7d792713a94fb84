"""Known answers for the benchmark tasks, computed without voa.

Nothing here imports voa: each answer comes from a closed formula or a
hand enumeration, so a wrong result from the engine cannot also change the
answer it is checked against.
"""

from __future__ import annotations

from fractions import Fraction


def partition_counts(cutoff: int, min_part: int = 1) -> list[int]:
    """p[n] = number of partitions of n into parts >= min_part, n <= cutoff."""
    p = [1] + [0] * cutoff
    for part in range(min_part, cutoff + 1):
        for n in range(part, cutoff + 1):
            p[n] += p[n - part]
    return p


def theta_series(N: int, cutoff: int) -> dict[Fraction, int]:
    """q^(-1/24) sum_m q^(N m^2 / 2) / prod_n (1 - q^n), as {exponent: coeff}.

    Relative exponents run up to `cutoff`; the character of the rank-one
    lattice algebra sqrt(N)Z has c = 1, hence the -1/24 shift.
    """
    p = partition_counts(cutoff)
    out: dict[Fraction, int] = {}
    m = 0
    while Fraction(N * m * m, 2) <= cutoff:
        e = Fraction(N * m * m, 2)
        for k, count in enumerate(p):
            if e + k <= cutoff:
                key = e + k - Fraction(1, 24)
                out[key] = out.get(key, 0) + (1 if m == 0 else 2) * count
        m += 1
    return out


def perfect_matchings(indices: list[int]):
    """Every way to split `indices` into unordered pairs."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for pos, j in enumerate(rest):
        for m in perfect_matchings(rest[:pos] + rest[pos + 1:]):
            yield [(first, j)] + m


def pairing_sum(points: list[Fraction]) -> Fraction:
    """Free-boson n-point function sum_matchings prod 1/(z_i - z_j)^2 at z.

    For n = 8 the sum runs over the 7!! = 105 perfect matchings.
    """
    n = len(points)
    total = Fraction(0)
    for matching in perfect_matchings(list(range(n))):
        term = Fraction(1)
        for i, j in matching:
            term /= (points[i] - points[j]) ** 2
        total += term
    return total


# Distinct nonzero evaluation points for the n-point checks.  Comparing
# values at fixed points needs no shared code with the engine's own
# normal form; a wrong correlator would have to agree with the pairing sum
# on all three point sets to pass.
EVAL_POINTS = [
    [Fraction(i + 1) for i in range(8)],
    [Fraction(i * i + 1, 3) for i in range(8)],
    [Fraction(1, i + 2) + Fraction(i, 7) for i in range(8)],
]
