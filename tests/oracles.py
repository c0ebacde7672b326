"""Independent oracles for the test suite.

These deliberately avoid the library's resolution and homology engines:
they carry their own Gaussian elimination, their own division loop for
the Groebner closure, and their own syzygy search, so that agreement
with the engines is meaningful evidence.  Shared primitives are limited
to exact polynomial arithmetic and (where stated) normal forms, which
are membership-level tools rather than the machinery under test.
"""

from __future__ import annotations

from itertools import combinations

from ringkit import groebner
from ringkit.polycore import monomials_of_degree


# ---------------------------------------------------------------------------
# A self-contained dense elimination over a coefficient field


def oracle_rref(rows, field):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        hit = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def oracle_rank(rows, field):
    return len(oracle_rref(rows, field)[1])


def oracle_nullspace(rows, field, ncols):
    red, pivots = oracle_rref(rows, field)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(red[i][free])
        out.append(v)
    return out


def span_contains(vectors, target, field):
    if not vectors:
        return all(field.is_zero(x) for x in target)
    rows = [list(v) for v in vectors]
    before = oracle_rank(rows, field)
    after = oracle_rank(rows + [list(target)], field)
    return before == after


# ---------------------------------------------------------------------------
# Naive Buchberger closure (no pair criteria, own division loop)


def _lm(f, order):
    return max(f.terms, key=order.key)


def _divide_once(f, basis, order):
    from ringkit.polycore import mono_divides, mono_quot

    for g in basis:
        lmg = _lm(g, order)
        for m in sorted(f.terms, key=order.key, reverse=True):
            if mono_divides(lmg, m):
                ring = f.ring
                coeff = ring.field.div(f.terms[m], g.terms[lmg])
                return f - ring.monomial(mono_quot(m, lmg), coeff) * g
    return None


def oracle_normal_form(f, basis, order):
    while True:
        if f.is_zero():
            return f
        nxt = _divide_once(f, basis, order)
        if nxt is None:
            return f
        f = nxt


def oracle_division(f, basis, order):
    """Full division by basis, taking each next term as a max over them.

    The classical loop: the largest remaining term is cancelled by the
    first basis element whose leading monomial divides it, or moved to
    the remainder, so the remainder's terms come out largest first.
    """
    from ringkit.polycore import Polynomial, mono_divides, mono_mul, mono_quot

    fld = f.ring.field
    lms = [(_lm(g, order), g) for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for lm, g in lms:
            if mono_divides(lm, m):
                factor = mono_quot(m, lm)
                scale = fld.div(c, g.terms[lm])
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, factor)
                    s = fld.sub(work.get(t, fld.zero), fld.mul(scale, gc))
                    if fld.is_zero(s):
                        work.pop(t, None)
                    else:
                        work[t] = s
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


def naive_buchberger(gens, order):
    """S-polynomial closure with no selection strategy or criteria."""
    from ringkit.groebner import monic, s_polynomial

    basis = [monic(g, order) for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for f, g in combinations(list(basis), 2):
            r = oracle_normal_form(s_polynomial(f, g, order), basis, order)
            if not r.is_zero():
                basis.append(monic(r, order))
                changed = True
                break
    # minimalize and tail-reduce, mirroring the reduced-basis definition
    from ringkit.polycore import mono_divides

    basis.sort(key=lambda h: order.key(_lm(h, order)))
    minimal = []
    for g in basis:
        if not any(mono_divides(_lm(h, order), _lm(g, order)) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(monic(oracle_normal_form(g, others, order), order))
    reduced.sort(key=lambda h: order.key(_lm(h, order)))
    return reduced


# ---------------------------------------------------------------------------
# Degreewise span membership (homogeneous ideal membership oracle)


def degreewise_member(f, gens, ambient):
    """f in the span of monomial multiples of gens, in f's degree."""
    field = ambient.field
    d = f.degree()
    monos = list(monomials_of_degree(ambient.nvars, d))
    index = {m: i for i, m in enumerate(monos)}

    def as_vec(p):
        v = [field.zero] * len(monos)
        for m, c in p.terms.items():
            v[index[m]] = c
        return v

    vectors = []
    for g in gens:
        gd = g.degree()
        if gd > d:
            continue
        for b in monomials_of_degree(ambient.nvars, d - gd):
            vectors.append(as_vec(ambient.monomial(b) * g))
    return span_contains(vectors, as_vec(f), field)


# ---------------------------------------------------------------------------
# Brute-force degreewise kernel resolution (Betti oracle)
#
# Modules are lists of polynomial columns over free modules with
# explicit generator degrees; kernels are found degree by degree with
# the oracle's own elimination, and minimal generators are selected by
# a different tie-break (descending column order) than the engine's.


def _standard_monomials(R, d):
    from ringkit.polycore import mono_divides

    if d < 0:
        return []
    lms = groebner.ring_groebner(R).lms
    return [
        m
        for m in monomials_of_degree(R.embdim, d)
        if not any(mono_divides(lm, m) for lm in lms)
    ]


def _strand_basis(R, degrees, j):
    out = []
    for t, delta in enumerate(degrees):
        for b in _standard_monomials(R, j - delta):
            out.append((t, b))
    return out


def _vector_of(R, polys, basis):
    field = R.field
    index = {lab: i for i, lab in enumerate(basis)}
    v = [field.zero] * len(basis)
    for t, p in enumerate(polys):
        if p.is_zero():
            continue
        red = groebner.nf(R, p)
        for m, c in red.terms.items():
            v[index[(t, m)]] = field.add(v[index[(t, m)]], c)
    return v


def brute_betti_of_k(R, steps, degree_cap=None):
    """Betti numbers of the residue field by raw syzygy search."""
    field = R.field
    ambient = R.ambient
    if degree_cap is None:
        degree_cap = steps * max(2, R.max_generator_degree()) + 2
    # start: F0 = R, map to k kills m; current differential columns are
    # the variables
    degrees = [0]
    columns = [[ambient.var(i)] for i in range(R.embdim)]
    column_degrees = [1] * R.embdim
    betti = [1]
    for _ in range(steps):
        betti.append(len(columns))
        new_columns = []
        new_degrees = []
        kernel_by_degree = {}
        for j in range(0, degree_cap + 1):
            src_basis = []
            src_labels = []
            for cidx, cdeg in enumerate(column_degrees):
                for b in _standard_monomials(R, j - cdeg):
                    src_labels.append((cidx, b))
            if not src_labels:
                kernel_by_degree[j] = []
                continue
            tgt_basis = _strand_basis(R, degrees, j)
            rows = []
            cols_as_vecs = []
            for cidx, b in src_labels:
                scaled = [ambient.monomial(b) * p for p in columns[cidx]]
                cols_as_vecs.append(_vector_of(R, scaled, tgt_basis))
            rows = [
                [cols_as_vecs[c][r] for c in range(len(src_labels))]
                for r in range(len(tgt_basis))
            ]
            kern = oracle_nullspace(rows, field, len(src_labels))
            kernel_by_degree[j] = (src_labels, kern)
        # minimal generators: reduce against variable multiples of the
        # lower strands, scanning kernel vectors in reversed order
        chosen = []
        span_by_degree = {}
        for j in range(0, degree_cap + 1):
            entry = kernel_by_degree.get(j)
            if not entry:
                continue
            src_labels, kern = entry
            prev = kernel_by_degree.get(j - 1)
            shifted = []
            if prev:
                plabels, pkern = prev
                for v in pkern:
                    for a in range(R.embdim):
                        polys = [ambient.zero()] * len(columns)
                        for k, c in enumerate(v):
                            if field.is_zero(c):
                                continue
                            cidx, b = plabels[k]
                            polys[cidx] = polys[cidx] + ambient.monomial(b, c) * ambient.var(
                                a
                            ) * ambient.one()
                        # express as a strand vector at degree j
                        vec = []
                        basis = src_labels
                        idx = {lab: i for i, lab in enumerate(basis)}
                        vec = [field.zero] * len(basis)
                        for cidx2, p in enumerate(polys):
                            red = groebner.nf(R, p)
                            for m, c2 in red.terms.items():
                                vec[idx[(cidx2, m)]] = field.add(
                                    vec[idx[(cidx2, m)]], c2
                                )
                        shifted.append(vec)
            pool = list(shifted)
            for v in reversed(kern):
                if not span_contains(pool, v, field):
                    pool.append(list(v))
                    polys = [ambient.zero()] * len(columns)
                    for k, c in enumerate(v):
                        if field.is_zero(c):
                            continue
                        cidx, b = src_labels[k]
                        polys[cidx] = polys[cidx] + ambient.monomial(b, c)
                    chosen.append((j, polys))
            span_by_degree[j] = pool
        degrees = list(column_degrees)
        columns = [polys for _, polys in chosen]
        column_degrees = [j for j, _ in chosen]
    return betti


# ---------------------------------------------------------------------------
# Koszul homology oracle: exterior algebra strands, own elimination


def koszul_strand_homology(R, sequence, degree_bound):
    """Strandwise Koszul homology dims from first principles."""
    field = R.field
    ambient = R.ambient
    n = len(sequence)
    degs = [f.degree() for f in sequence]
    subsets = [
        sorted(combinations(range(n), i), key=lambda S: (sum(degs[j] for j in S), S))
        for i in range(n + 1)
    ]

    def term_degrees(i):
        return [sum(degs[j] for j in S) for S in subsets[i]]

    def strand_matrix(i, j):
        """Matrix of d_i: K_i -> K_{i-1} in internal degree j."""
        src = _strand_basis(R, term_degrees(i), j)
        tgt = _strand_basis(R, term_degrees(i - 1), j)
        tix = {lab: r for r, lab in enumerate(tgt)}
        rows = [[field.zero] * len(src) for _ in tgt]
        for cidx, (sidx, b) in enumerate(src):
            S = subsets[i][sidx]
            for pos, jj in enumerate(S):
                T = tuple(x for x in S if x != jj)
                tpos = subsets[i - 1].index(T)
                sign = field.one if pos % 2 == 0 else field.neg(field.one)
                prod = groebner.nf(R, ambient.monomial(b) * sequence[jj])
                for m, c in prod.terms.items():
                    r = tix[(tpos, m)]
                    rows[r][cidx] = field.add(rows[r][cidx], field.mul(sign, c))
        return rows, len(src)

    table = {}
    for i in range(0, n + 1):
        for j in range(0, degree_bound + 1):
            dim = len(_strand_basis(R, term_degrees(i), j))
            rk_out = 0
            if i >= 1:
                rows, _ = strand_matrix(i, j)
                rk_out = oracle_rank(rows, field) if rows else 0
            rk_in = 0
            if i + 1 <= n:
                rows, _ = strand_matrix(i + 1, j)
                rk_in = oracle_rank(rows, field) if rows else 0
            h = dim - rk_out - rk_in
            if h:
                table[(i, j)] = h
    return table


# ---------------------------------------------------------------------------
# Degeneracy quotient: the covering condition on one simplicial label


def oracle_covering(cells, n, label):
    """Does the label (rmono, xi) at level n use every jump index 0..n-1?

    xi is laid out g-major over the cells: slot g*n + t is cell g with
    jump index t.  A label missing an index is degenerate.
    """
    _, xi = label
    return all(any(xi[g * n + t] for g in range(cells)) for t in range(n))
