"""Exact linear algebra over the Scalar field (rational functions)."""

from __future__ import annotations

from .scalars import Scalar


def kernel_basis(rows, ncols):
    """Basis of the null space of a sparse matrix with `ncols` columns.

    Each row is a dict {column: Scalar}; zero entries may be left out.
    Returns one vector (a list of `ncols` Scalars) per free column of the
    reduced row echelon form (RREF), in increasing column order: the vector
    for free column f has 1 at f, 0 at every other free column and minus
    the RREF entries of column f at the pivot columns.

    The elimination runs in three steps.  (1) A row with one nonzero entry
    forces its column to zero in every kernel vector; such columns are
    dropped from all rows, repeatedly, since dropping one may leave another
    row with a single entry.  (2) The remaining columns split into the
    connected components of the row/column incidence graph.  (3) Each
    component (block) gets its own dense Gauss-Jordan elimination; a
    column that no row touches gets its unit vector.

    The result equals the dense RREF kernel of the whole matrix.  Column c
    is free exactly when some kernel vector has 1 at c and 0 at every
    column after c, and the basis vector of a free column is the unique
    kernel vector with 1 there and 0 at the other free columns.  A
    forced-zero column is never free, and every kernel vector is zero on
    it, so dropping it keeps the kernel and its free columns.  The kernel
    of a block-diagonal matrix is the direct sum of the blocks' kernels,
    so a block's basis vector, padded with zeros, is the whole matrix's.
    """
    live = [{c: x for c, x in r.items() if not x.is_zero} for r in rows]
    touching = {}                      # column -> rows that hold it
    for i, r in enumerate(live):
        for c in r:
            touching.setdefault(c, []).append(i)

    # (1) forced-zero columns
    forced = set()
    todo = [next(iter(r)) for r in live if len(r) == 1]
    while todo:
        c = todo.pop()
        if c in forced:
            continue
        forced.add(c)
        for i in touching.pop(c):
            r = live[i]
            del r[c]
            if len(r) == 1:
                todo.append(next(iter(r)))

    # (2) connected components over the rows that are left
    parent = {c: c for c in touching}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for r in live:
        cols = list(r)
        for c in cols[1:]:
            parent[find(c)] = find(cols[0])
    blocks = {}
    for c in sorted(touching):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for r in live:
        if r:
            blocks[find(next(iter(r)))][1].append(r)

    # (3) one dense elimination per block
    vectors = {}                       # free column -> {column: Scalar}
    for cols, block_rows in blocks.values():
        dense = [[r.get(c, Scalar.zero()) for c in cols] for r in block_rows]
        for f, v in _dense_kernel(dense, len(cols)):
            vectors[cols[f]] = {cols[c]: x for c, x in v.items()}
    basis = []
    for fc in range(ncols):
        if fc in forced or (fc in touching and fc not in vectors):
            continue
        v = [Scalar.zero()] * ncols
        v[fc] = Scalar.one()
        for c, x in vectors.get(fc, {}).items():
            v[c] = x
        basis.append(v)
    return basis


def _dense_kernel(m, ncols):
    """Gauss-Jordan on the dense rows m (modified in place).

    Yields (free column, {pivot column: entry}) with the nonzero entries
    of that free column's kernel vector, the 1 at the free column left out.
    Any nonzero entry may serve as a column's pivot, since the RREF does not
    depend on the choice.  A rational pivot in a row with few parametric
    and few nonzero entries keeps the rational functions small.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, nrows) if not m[i][c].is_zero]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda i: _pivot_cost(m[i], c))
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x if x.is_zero else x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a if b.is_zero else a - f * b
                        for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc not in pivot_set:
            yield fc, {pc: -m[i][fc] for i, pc in enumerate(pivots)
                       if not m[i][fc].is_zero}


def _pivot_cost(row, c):
    """(pivot is parametric, parametric entries, nonzero entries)."""
    nonzero = [x for x in row if not x.is_zero]
    return (not row[c].is_rational,
            sum(1 for x in nonzero if not x.is_rational), len(nonzero))
