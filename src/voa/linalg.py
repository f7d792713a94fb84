"""Exact linear algebra over the Scalar field (rational functions)."""

from __future__ import annotations

from .scalars import Scalar


def kernel_basis(rows, ncols):
    """Basis of the null space of a matrix given as a list of Scalar rows.

    Returns a list of vectors (lists of Scalars) spanning {x : M x = 0}.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not m[i][c].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Scalar.zero()] * ncols
        v[fc] = Scalar.one()
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis
