"""Tests for graded characters and q-series identities."""

from fractions import Fraction
from itertools import permutations

import pytest

from voa import (ParamPoint, QSeries, boson_fermion_character_check,
                 character, get_preset, lattice, lattice_theta_character,
                 presets)


def _partitions_oracle(cutoff, min_part=1):
    """Partition counts with all parts >= min_part, by direct recursion."""
    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(min_part, largest + 1)
                   if p <= n)
    return [count(d, d) for d in range(cutoff + 1)]


def test_heisenberg_character_is_partition_series():
    ch = character(get_preset("heisenberg", lam=0), cutoff=10)
    oracle = _partitions_oracle(10)
    assert ch.offset == Fraction(-1, 24)
    for d in range(11):
        assert ch.coefficient(d) == oracle[d]


def test_equal_series_hash_equal():
    # offsets that differ by an integer describe the same absolute series
    a = QSeries(Fraction(-1, 24), {1: 2}, 1)
    b = QSeries(Fraction(23, 24), {0: 2}, 0)
    assert a == b
    assert hash(a) == hash(b)


def test_qseries_equality_is_transitive():
    # a shorter series equals no longer one, so set size is order-free
    a = QSeries(0, {0: 1}, 0)
    b = QSeries(0, {0: 1, 1: 1}, 1)
    c = QSeries(0, {0: 1, 1: 2}, 1)
    assert a != b and a != c and b != c
    for order in permutations((a, b, c)):
        assert len(set(order)) == 3


def test_weyl_character_is_refused():
    # a*(0)^k |0> sits in degree 0 for every k: no graded piece is finite
    with pytest.raises(ValueError, match="even weight-0 generator a\\*$"):
        character(get_preset("weyl:1"), cutoff=2)
    with pytest.raises(ValueError, match="generators a\\*1, a\\*2$"):
        character(get_preset("weyl:2"), cutoff=0)
    # odd weight-0 generators square to zero: the fermion character is finite
    assert character(get_preset("fermion"), cutoff=2).render() == \
        "q^{1/12}(2 + 4q + 6q^2)"


def test_heisenberg_character_render():
    ch = character(get_preset("heisenberg", lam=0), cutoff=6)
    assert ch.render() == \
        "q^{-1/24}(1 + q + 2q^2 + 3q^3 + 5q^4 + 7q^5 + 11q^6)"


def test_parametric_charge_requires_point():
    inst = get_preset("heisenberg")
    with pytest.raises(ValueError):
        character(inst, cutoff=4)
    ch = character(inst, cutoff=4, point=ParamPoint(lam="1/2"))
    assert ch.offset == Fraction(-(-2), 24)  # c = -2
    assert ch.coefficient(2) == 2


def test_virasoro_character_counts_parts_at_least_two():
    ch = character(get_preset("virasoro"), cutoff=10,
                   point=ParamPoint(c="1"))
    oracle = _partitions_oracle(10, min_part=2)
    for d in range(11):
        assert ch.coefficient(d) == oracle[d]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lattice_theta_equals_sector_sum(N):
    cutoff = 6
    inst = get_preset(f"lattice:{N}")
    total = None
    m = 0
    while inst.algebra.sector_energy(m) <= cutoff:
        for s in ([0] if m == 0 else [m, -m]):
            ch = character(inst, sector=s, cutoff=cutoff)
            total = ch if total is None else total + ch
        m += 1
    theta = lattice_theta_character(N, cutoff)
    assert total == theta


def test_lattice_sector_offset_render():
    ch = character(get_preset("lattice:1"), sector=1, cutoff=3)
    assert ch.offset == Fraction(1, 2) - Fraction(1, 24)
    assert ch.render().startswith("q^{11/24}(")


def test_qseries_equality_conventions():
    # offsets may differ by an integer when the absolute tables line up
    a = QSeries(Fraction(-1, 24), {Fraction(1): 2}, 1)
    b = QSeries(Fraction(23, 24), {Fraction(0): 2}, 0)
    assert a == b
    c = QSeries(Fraction(11, 24), {Fraction(0): 2}, 3)
    assert a != c
    d = QSeries(Fraction(-1, 24), {Fraction(0): 1, Fraction(1): 2}, 1)
    assert a != d


def test_boson_fermion_character_dims():
    report = boson_fermion_character_check(4)
    assert report.passed, report.render()
    dims = dict((d, nf) for d, nf, _ in report.dims)
    # half-integer grid: charged states sit at half-integral degrees
    assert dims[Fraction(0)] == 1
    assert dims[Fraction(1, 2)] == 2
    assert dims[Fraction(1)] == 1
    assert dims[Fraction(3, 2)] == 2
    assert dims[Fraction(2)] == 4


def test_boson_fermion_character_negative_control(monkeypatch):
    # the even lattice 2Z in place of Z: no charged state at degree 1/2
    monkeypatch.setattr(presets, "lattice", lambda N: lattice(2))
    assert boson_fermion_character_check(3).render() == \
        "boson-fermion characters: FAIL (degree 1/2: 2 != 0)"


@pytest.mark.parametrize("name, level", [("commutative", None),
                                         ("affine:sl2", -2)])
def test_character_needs_a_conformal_structure(name, level):
    inst = get_preset(name, level=level)
    with pytest.raises(ValueError) as exc:
        character(inst, cutoff=2)
    assert str(exc.value) == f"preset {name!r} has no conformal structure"
