"""Exact linear algebra over the coefficient fields.

Vectors and matrix columns are sparse {index: coeff} dicts, and no
result holds a zero entry.  One echelon engine, `SpanReducer`, serves
every incremental span, kernel and solve: `nullspace` is built on it,
and so are the dense adapters `rref` and `rank`, which have no caller
in the package and are kept only because the benchmark's tracer looks
them up by name.  `sparse_rank` is the one-shot rank of homology
strands, Tor and the simplicial complexes; its Markowitz pivoting
(shortest row, least populated column) keeps their incidence-like
columns from filling in, which the engine's fixed least-index pivots
do not.  `homology` turns those strand ranks into homology dimensions
for all three.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


class SpanReducer:
    """Incrementally built row space with reduction against it.

    Each row is a sparse dict keyed in `rows` by its pivot, its least
    index, where it holds 1.  add() reports whether the vector enlarged
    the span; reduce() returns the residual of a vector against the
    current span, which is zero at every pivot and so does not depend
    on the order in which the rows were added.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot index -> sparse row, 1 at the pivot

    def reduce(self, vec):
        """Residual of the sparse vector vec (left unchanged) as a new dict.

        Rows are applied in ascending pivot order.  A row has no entry
        below its pivot, so a pivot once cleared stays clear.
        """
        fld = self.field
        rows = self.rows
        out = {k: c for k, c in vec.items() if not fld.is_zero(c)}
        heap = [k for k in out if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            factor = out.pop(p, None)
            if factor is None:
                continue
            for k, x in rows[p].items():
                if k == p:
                    continue
                cur = out.get(k)
                if cur is None:
                    out[k] = fld.neg(fld.mul(factor, x))
                    if k in rows:
                        heappush(heap, k)
                else:
                    cur = fld.sub(cur, fld.mul(factor, x))
                    if fld.is_zero(cur):
                        del out[k]
                    else:
                        out[k] = cur
        return out

    def add(self, vec) -> bool:
        red = self.reduce(vec)
        if not red:
            return False
        fld = self.field
        p = min(red)
        inv = fld.inv(red[p])
        self.rows[p] = {k: fld.mul(inv, c) for k, c in red.items()}
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduced_rows(self):
        """The reduced echelon basis of the span as {pivot: row}.

        Pivots ascend.  Row p is {p: 1} plus the rest of the stored row
        reduced, so it is 0 at every other pivot and unique for the span.
        """
        out = {}
        for p in sorted(self.rows):
            row = self.reduce({k: c for k, c in self.rows[p].items() if k != p})
            row[p] = self.field.one
            out[p] = row
        return out


def nullspace(columns, field):
    """Basis of the kernel of the matrix with the given sparse columns.

    columns are {row: coeff} dicts, as for sparse_rank.  There is one
    vector per free column f, in ascending order of f, and vectors come
    out as dicts with ascending keys: 1 at f, and minus the reduced
    echelon entry in column f at each pivot column.  This keeps every
    downstream generator choice deterministic.
    """
    rows = {}
    for j, col in enumerate(columns):
        for r, c in col.items():
            rows.setdefault(r, {})[j] = c
    span = SpanReducer(field)
    for row in rows.values():
        span.add(row)
    basis = {f: {} for f in range(len(columns)) if f not in span.rows}
    for p, row in span.reduced_rows().items():
        for f, c in row.items():
            if f != p:
                basis[f][p] = field.neg(c)
    for f, vec in basis.items():
        vec[f] = field.one
    return list(basis.values())


# ---------------------------------------------------------------------------
# Dense adapters: lists of rows in, lists of rows out.


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    span = SpanReducer(field)
    for row in rows:
        span.add(dict(enumerate(row)))
    ncols = range(len(rows[0]) if rows else 0)
    red = span.reduced_rows()
    return [[row.get(k, field.zero) for k in ncols] for row in red.values()], list(red)


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


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


def homology(dims, strands, field):
    """Nonzero homology dimensions of a complex, strand by strand.

    dims maps (n, key) to the dimension of term n in strand key.
    strands yields ((n, key), sparse columns of d_n: term n -> term
    n-1) and is consumed one strand at a time, so each strand's columns
    can be freed once ranked; a strand it does not yield has rank 0.
    Returns {(n, key): dim C_n - rank d_n - rank d_{n+1}} over the keys
    of dims, in their order, without zero entries.
    """
    ranks = {nk: sparse_rank(columns, field) for nk, columns in strands}
    out = {}
    for (n, key), dim in dims.items():
        h = dim - ranks.get((n, key), 0) - ranks.get((n + 1, key), 0)
        if h:
            out[(n, key)] = h
    return out
