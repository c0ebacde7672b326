"""Exact linear algebra over the coefficient fields.

The sparse rank routine serves every one-shot rank: homology strands,
Tor, and the simplicial complexes, whose columns have only a handful of
entries each.  The dense routines serve kernels, coordinate solving and
incremental span reduction.  The dense `rank` has no caller in the
package and is kept only because the benchmark's tracer looks it up by
name.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Dense matrices: lists of rows.


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


def nullspace(rows, field, ncols=None):
    """Basis of the right kernel, one vector per free column.

    Vectors come out in ascending free-column order, which keeps every
    downstream generator choice deterministic.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(red[i][free])
        basis.append(v)
    return basis


class SpanReducer:
    """Incrementally built row space with reduction against it.

    Rows are kept in echelon form indexed by pivot position.  add()
    reports whether the vector enlarged the span; reduce() returns the
    residual of a vector against the current span.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot index -> dense row (list)

    def reduce(self, vec):
        fld = self.field
        vec = list(vec)
        for p in sorted(self.rows):
            if p < len(vec) and not fld.is_zero(vec[p]):
                factor = vec[p]
                row = self.rows[p]
                for i in range(p, len(vec)):
                    vec[i] = fld.sub(vec[i], fld.mul(factor, row[i]))
        return vec

    def add(self, vec) -> bool:
        fld = self.field
        vec = self.reduce(vec)
        for p, x in enumerate(vec):
            if not fld.is_zero(x):
                inv = fld.inv(x)
                self.rows[p] = [fld.mul(inv, y) for y in vec]
                return True
        return False

    def contains(self, vec) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Sparse rank: columns as {row_index: coeff} dicts.


def sparse_rank(columns, field) -> int:
    """Rank of the matrix whose columns are sparse {row: coeff} dicts.

    Row-based Gaussian elimination with a Markowitz-flavoured pivot
    rule: always eliminate from a currently shortest row, on its least
    populated column.  The incidence-like matrices coming from the
    simplicial layer mostly peel away without fill-in under this rule.
    """
    rows = {}
    col_rows = {}
    for j, col in enumerate(columns):
        for r, c in col.items():
            if field.is_zero(c):
                continue
            rows.setdefault(r, {})[j] = c
            col_rows.setdefault(j, set()).add(r)

    # rows bucketed by current length, for cheap shortest-row lookup
    by_size = {}
    for r, row in rows.items():
        by_size.setdefault(len(row), set()).add(r)

    def rebucket(r, old, new):
        if old == new:
            return
        bucket = by_size.get(old)
        if bucket is not None:
            bucket.discard(r)
            if not bucket:
                del by_size[old]
        if new:
            by_size.setdefault(new, set()).add(r)

    rnk = 0
    while by_size:
        size = min(by_size)
        bucket = by_size[size]
        pr = next(iter(bucket))
        prow = rows[pr]
        if not prow:
            rebucket(pr, size, 0)
            del rows[pr]
            continue
        pc = min(prow, key=lambda j: (len(col_rows[j]), j))
        pval = prow[pc]
        rnk += 1
        # remove the pivot row from play
        rebucket(pr, size, 0)
        del rows[pr]
        for j in prow:
            col_rows[j].discard(pr)
        targets = [r for r in col_rows[pc] if r in rows]
        for r in targets:
            row = rows[r]
            factor = field.div(row[pc], pval)
            old_len = len(row)
            for j, v in prow.items():
                cur = row.get(j)
                if cur is None:
                    nv = field.neg(field.mul(factor, v))
                    if not field.is_zero(nv):
                        row[j] = nv
                        col_rows[j].add(r)
                else:
                    nv = field.sub(cur, field.mul(factor, v))
                    if field.is_zero(nv):
                        del row[j]
                        col_rows[j].discard(r)
                    else:
                        row[j] = nv
            rebucket(r, old_len, len(row))
            if not row:
                del rows[r]
    return rnk
