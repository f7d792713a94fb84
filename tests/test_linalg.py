"""kernel_basis against a second algorithm: sympy's dense nullspace."""

import random
from fractions import Fraction

import pytest

from voa import Scalar
from voa.linalg import kernel_basis

sympy = pytest.importorskip("sympy")


def _random_sparse(rng, ncols):
    """Sparse rows with planted structure, returned as {column: Fraction}.

    The columns are dealt at random (so interleaved) to a few blocks, with
    some left untouched.  Each block gets random rows, some of them sums of
    earlier rows of the block so that its kernel is not trivial.  One-entry
    rows are planted, and a two-entry row beside one of them, so that
    forcing one column to zero leaves another one-entry row behind.
    """
    nblocks = rng.randint(2, 4)
    owner = [rng.randint(-1, nblocks - 1) for _ in range(ncols)]
    rows = []
    for b in range(nblocks):
        cols = [c for c in range(ncols) if owner[c] == b]
        if not cols:
            continue
        block = []
        for _ in range(rng.randint(1, len(cols))):
            if len(block) >= 2 and rng.random() < 0.3:
                i, j = rng.sample(range(len(block)), 2)
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                row = dict(block[i])
                for c, x in block[j].items():
                    row[c] = row.get(c, 0) + a * x
            else:
                width = rng.randint(min(2, len(cols)), len(cols))
                row = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                       for c in rng.sample(cols, width)}
            block.append(row)
        if len(cols) >= 2 and rng.random() < 0.5:
            c1, c2 = rng.sample(cols, 2)
            block.append({c1: Fraction(rng.randint(1, 5))})
            block.append({c1: Fraction(1), c2: Fraction(-2, 3)})
        rows.extend(block)
    rng.shuffle(rows)
    return rows


def _as_scalar_rows(rows):
    # zero entries are kept: kernel_basis must ignore them
    return [{c: Scalar.from_fraction(x) for c, x in r.items()} for r in rows]


def _sympy_nullspace(rows, ncols):
    dense = [[sympy.Rational(r[c].numerator, r[c].denominator) if c in r
              else 0 for c in range(ncols)] for r in rows]
    if not dense:
        return [[Fraction(int(c == f)) for c in range(ncols)]
                for f in range(ncols)]
    basis = sympy.Matrix(dense).nullspace()
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in basis]


@pytest.mark.parametrize("seed", range(60))
def test_kernel_basis_matches_sympy_nullspace(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 16)
    rows = _random_sparse(rng, ncols)
    ours = [[x.as_fraction() for x in v]
            for v in kernel_basis(_as_scalar_rows(rows), ncols)]
    assert ours == _sympy_nullspace(rows, ncols)


def test_kernel_basis_forced_chain_and_untouched_columns():
    # column 3 is forced by a one-entry row, which leaves {1: 1} alone and
    # forces column 1; columns 0 and 5 are in no row; 2 and 4 form a block
    rows = [{3: Fraction(2)}, {1: Fraction(1), 3: Fraction(7)},
            {2: Fraction(1), 4: Fraction(-1)}, {0: Fraction(0)}]
    ours = [[x.as_fraction() for x in v]
            for v in kernel_basis(_as_scalar_rows(rows), 6)]
    assert ours == _sympy_nullspace(rows, 6)
    assert ours == [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1]]


def test_kernel_basis_no_rows():
    basis = kernel_basis([], 3)
    assert [[x.as_fraction() for x in v] for v in basis] == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_basis_parametric():
    k = Scalar.param("k")
    one = Scalar.one()
    r1 = {0: k, 2: one, 4: k * k - one}
    r2 = {2: k + one, 4: one / (k - one), 6: -k}
    # a Q(k)-combination of r1 and r2: the block {0, 2, 4, 6} has rank 2
    r3 = {c: k * r1.get(c, Scalar.zero()) + r2.get(c, Scalar.zero()) / k
          for c in set(r1) | set(r2)}
    rows = [r1, r2, r3, {1: k, 3: one / k}, {5: k + 2}, {3: one, 7: k}]
    ncols = 8
    basis = kernel_basis(rows, ncols)
    # pivots: 0 and 2 (block {0, 2, 4, 6} of rank 2), 1 and 3 (block
    # {1, 3, 7}), 5 (forced); one vector per free column 4, 6, 7
    free = [4, 6, 7]
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        assert [v[g] for g in free] == [one if g == f else 0 for g in free]
        assert v[5].is_zero
        for r in rows:
            total = Scalar.zero()
            for c, x in r.items():
                total = total + x * v[c]
            assert total.is_zero
    # the vector of column 7 solves k x1 + x3/k = 0, x3 + k = 0
    assert basis[2][3] == -k and basis[2][1] == one / k
