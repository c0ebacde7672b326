"""Graded chain complexes, minimal free resolutions, Betti numbers, Tor.

Everything here is per-internal-degree linear algebra over the
coefficient field: each graded strand of a free module over a presented
ring is finite dimensional with basis (generator, standard monomial),
so kernels and ranks are exact matrix computations.  Truncation bounds
(homological N, internal D) are explicit in every result.

Modules may carry a grading rescale: a module with scale s is graded so
that multiplication by a ring element of degree d raises module degree
by s*d.  Frobenius pushforwards use this with s = p^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import groebner, linalg
from .errors import ValidationError
from .polycore import RingPresentation, mono_mul


# ---------------------------------------------------------------------------
# Free modules, maps, complexes


def _check_bounds(**bounds):
    """Reject a negative truncation bound; None stands for the default."""
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise ValidationError(f"{name} bound must be non-negative, got {value}")


@dataclass(frozen=True)
class GradedFreeModule:
    ring: RingPresentation
    degrees: tuple  # generator degrees in module units
    scale: int = 1

    @property
    def rank(self) -> int:
        return len(self.degrees)


def free_strand_basis(module: GradedFreeModule, j: int):
    """Basis of the degree-j strand: (generator index, standard monomial)."""
    out = []
    for t, delta in enumerate(module.degrees):
        rem = j - delta
        if rem < 0 or rem % module.scale:
            continue
        for b in groebner.quotient_basis(module.ring, rem // module.scale):
            out.append((t, b))
    return out


def _strand_image(R: RingPresentation, parts, index):
    """Sparse strand coordinates of a sum of products, as {index: coeff}.

    parts holds (generator t, standard monomial b, polynomial p); each
    adds monomial(b) * p placed at generator t, and index maps the
    (generator, standard monomial) labels of the target strand to
    positions.  The normal form is linear, so each product is summed
    from the cached normal forms of the monomials b*m over the terms c*m
    of p; terms that land on one position are added and those that
    cancel are dropped.
    """
    fld = R.field
    out = {}
    for t, b, p in parts:
        for m, c in p.terms.items():
            for m2, c2 in groebner.nf_monomial(R, mono_mul(b, m)).terms.items():
                k = index[(t, m2)]
                v = fld.mul(c, c2)
                if k in out:
                    v = fld.add(out[k], v)
                    if fld.is_zero(v):
                        del out[k]
                        continue
                out[k] = v
    return out


def multiply_strand_vector(R: RingPresentation, labels, index, vec, poly):
    """Multiply a sparse strand vector by a homogeneous polynomial.

    labels are the (generator, standard monomial) labels of vec's
    strand and index maps those of the target strand to positions;
    returns the sparse coordinates in the target strand.
    """
    parts = [labels[k] + (poly.scale(c),) for k, c in vec.items()]
    return _strand_image(R, parts, index)


class GradedModuleMap:
    """Map of graded free modules given by a homogeneous polynomial matrix.

    entries[i][j] is the coefficient of target generator i in the image
    of source generator j; each nonzero entry is homogeneous of ring
    degree (deg source_j - deg target_i) / scale.
    """

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, entries):
        if source.ring != target.ring or source.scale != target.scale:
            raise ValidationError("map endpoints disagree")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != target.rank or any(
            len(row) != source.rank for row in self.entries
        ):
            raise ValidationError("matrix shape does not match the modules")
        s = source.scale
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                need = source.degrees[j] - target.degrees[i]
                if (
                    not p.is_homogeneous()
                    or need < 0
                    or need % s
                    or p.degree() != need // s
                ):
                    raise ValidationError(
                        f"entry ({i},{j}) is not homogeneous of degree {need}/{s}"
                    )

    def strand_columns(self, j: int):
        """The degree-j strand as sparse columns {target index: coeff}.

        Returns (columns, source basis, target basis); column k is the
        image of source basis element k, and entries that cancel to
        zero are left out.
        """
        src = free_strand_basis(self.source, j)
        tgt = free_strand_basis(self.target, j)
        tix = {lab: i for i, lab in enumerate(tgt)}
        columns = [
            _strand_image(
                self.ring, [(i, b, row[t]) for i, row in enumerate(self.entries)], tix
            )
            for t, b in src
        ]
        return columns, src, tgt

    def strand_matrix(self, j: int):
        """Dense matrix of the degree-j strand (rows: target basis)."""
        columns, src, tgt = self.strand_columns(j)
        rows = [[self.ring.field.zero] * len(src) for _ in tgt]
        for cidx, col in enumerate(columns):
            for r, c in col.items():
                rows[r][cidx] = c
        return rows, src, tgt

    def compose(self, other: "GradedModuleMap") -> "GradedModuleMap":
        """self after other (other.source -> self.target)."""
        if other.target.degrees != self.source.degrees:
            raise ValidationError("maps are not composable")
        R = self.ring
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = R.ambient.zero()
                for t in range(self.source.rank):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(row)
        return GradedModuleMap(other.source, self.target, rows)


@dataclass
class GradedChainComplex:
    """Bounded complex of graded free modules; maps[i] is d_i: C_i -> C_{i-1}."""

    ring: RingPresentation
    lo: int
    hi: int
    modules: dict
    maps: dict

    @property
    def scale(self) -> int:
        for m in self.modules.values():
            return m.scale
        return 1

    def module(self, i: int) -> GradedFreeModule:
        got = self.modules.get(i)
        if got is None:
            return GradedFreeModule(self.ring, (), self.scale)
        return got

    def ranks(self):
        return [self.module(i).rank for i in range(self.lo, self.hi + 1)]

    def shift(self, amount: int) -> "GradedChainComplex":
        return GradedChainComplex(
            self.ring,
            self.lo + amount,
            self.hi + amount,
            {i + amount: m for i, m in self.modules.items()},
            {i + amount: f for i, f in self.maps.items()},
        )


def verify_d_squared(C: GradedChainComplex) -> bool:
    """True iff every composite has all entries of normal form zero."""
    R = C.ring
    for i in range(C.lo + 2, C.hi + 1):
        upper = C.maps.get(i)
        lower = C.maps.get(i - 1)
        if upper is None or lower is None:
            continue
        comp = lower.compose(upper)
        for row in comp.entries:
            for p in row:
                if not groebner.nf(R, p).is_zero():
                    return False
    return True


@dataclass
class HomologyTable:
    """Strandwise homology dimensions of a complex, with truncation data."""

    entries: dict  # (i, j) -> dim, nonzero entries only
    lo: int
    hi: int
    degree_bound: int
    warnings: list

    def total(self, i: int) -> int:
        return sum(d for (h, _), d in self.entries.items() if h == i)

    def totals(self):
        return [self.total(i) for i in range(self.lo, self.hi + 1)]

    def strands(self, i: int):
        return {j: d for (h, j), d in self.entries.items() if h == i}

    def to_json(self):
        return {
            "range": [self.lo, self.hi],
            "degree_bound": self.degree_bound,
            "totals": self.totals(),
            "entries": sorted([i, j, d] for (i, j), d in self.entries.items()),
            "warnings": list(self.warnings),
        }


def homology_dims(C: GradedChainComplex, up_to_internal: int) -> HomologyTable:
    """dim_k H_i(C)_j for i in the complex range and j <= the bound.

    Ranks are exact per strand; the degree bound only limits which
    strands are reported.  A module generator above the bound would cut
    a strand silently, so that situation is surfaced as a warning.
    """
    _check_bounds(degree=up_to_internal)
    D = up_to_internal
    warnings = []
    for i in range(C.lo, C.hi + 1):
        degs = C.module(i).degrees
        if degs and max(degs) > D:
            warnings.append(
                f"degree bound {D} is below a generator degree of term {i}"
            )
    fld = C.ring.field
    dims = {}
    ranks = {}
    for i in range(C.lo, C.hi + 1):
        for j in range(0, D + 1):
            dims[(i, j)] = len(free_strand_basis(C.module(i), j))
    for i in range(C.lo, C.hi + 1):
        f = C.maps.get(i)
        for j in range(0, D + 1):
            if f is None:
                ranks[(i, j)] = 0
            else:
                columns, _, _ = f.strand_columns(j)
                ranks[(i, j)] = linalg.sparse_rank(columns, fld)
    entries = {}
    for i in range(C.lo, C.hi + 1):
        for j in range(0, D + 1):
            h = dims[(i, j)] - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if h:
                entries[(i, j)] = h
    return HomologyTable(entries, C.lo, C.hi, D, warnings)


# ---------------------------------------------------------------------------
# Presented modules


class PresentedModule:
    """Finitely presented graded module: generators and relation columns.

    Generator order is preserved as given (callers index against it);
    relation columns must be homogeneous and zero columns are pruned.
    """

    def __init__(self, ring: RingPresentation, gen_degrees, relations=(), scale=1):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        self.scale = scale
        cleaned = []
        for col in relations:
            col = tuple(col)
            if len(col) != len(self.gen_degrees):
                raise ValidationError("relation column has the wrong length")
            degree = None
            for t, p in enumerate(col):
                if p.is_zero():
                    continue
                if not p.is_homogeneous():
                    raise ValidationError("inhomogeneous relation entry")
                d = self.gen_degrees[t] + scale * p.degree()
                if degree is None:
                    degree = d
                elif degree != d:
                    raise ValidationError("relation column is not homogeneous")
            if degree is not None:
                cleaned.append((degree, col))
        self.relations = tuple(col for _, col in cleaned)
        self.relation_degrees = tuple(d for d, _ in cleaned)

    def free_module(self) -> GradedFreeModule:
        return GradedFreeModule(self.ring, self.gen_degrees, self.scale)


def residue_field_module(R: RingPresentation) -> PresentedModule:
    """k = R/m as a presented module: one generator killed by the variables."""
    cols = [(R.ambient.var(i),) for i in range(R.embdim)]
    return PresentedModule(R, (0,), cols)


def trivial_action_module(R: RingPresentation, degrees, scale=1) -> PresentedModule:
    """k^n with trivial multiplication: every variable kills every generator."""
    degrees = tuple(degrees)
    cols = []
    for t in range(len(degrees)):
        for i in range(R.embdim):
            col = [R.ambient.zero()] * len(degrees)
            col[t] = R.ambient.var(i)
            cols.append(tuple(col))
    return PresentedModule(R, degrees, cols, scale)


def minimize_presentation(M: PresentedModule) -> PresentedModule:
    """Cancel unit relation entries so the surviving generators are minimal."""
    gens = list(M.gen_degrees)
    cols = [list(col) for col in M.relations]
    R = M.ring
    while True:
        hit = None
        for c, col in enumerate(cols):
            for t, p in enumerate(col):
                if not p.is_zero() and p.degree() == 0:
                    hit = (c, t, p.constant_term())
                    break
            if hit:
                break
        if hit is None:
            break
        c, t, unit = hit
        pivot_col = cols.pop(c)
        inv = R.field.inv(unit)
        for col in cols:
            if col[t].is_zero():
                continue
            factor = col[t].scale(inv)
            for u in range(len(gens)):
                col[u] = col[u] - pivot_col[u] * factor
        gens.pop(t)
        for col in cols:
            col.pop(t)
    return PresentedModule(R, gens, [tuple(c) for c in cols], M.scale)


class ModuleStrands:
    """Cached per-degree linear algebra for one presented module."""

    def __init__(self, M: PresentedModule):
        self.M = M
        self._strand = {}

    def strand(self, j: int) -> "_Strand":
        if j not in self._strand:
            self._strand[j] = _Strand(self, j)
        return self._strand[j]


class _Strand:
    """One internal degree of a presented module, in quotient coordinates.

    The strand of the underlying free module is reduced by the span of
    all standard-monomial multiples of the relation columns; the
    surviving (non-pivot) coordinates index a basis of the quotient.
    """

    def __init__(self, parent: ModuleStrands, j: int):
        M = parent.M
        self.ring = M.ring
        self.field = M.ring.field
        self.free = free_strand_basis(M.free_module(), j)
        self.index = {lab: i for i, lab in enumerate(self.free)}
        self.reducer = linalg.SpanReducer(self.field)
        s = M.scale
        for degree, col in zip(M.relation_degrees, M.relations):
            rem = j - degree
            if rem < 0 or rem % s:
                continue
            for b in groebner.quotient_basis(M.ring, rem // s):
                parts = [(t, b, p) for t, p in enumerate(col)]
                self.reducer.add(_strand_image(self.ring, parts, self.index))
        pivots = self.reducer.rows
        self.coords = [i for i in range(len(self.free)) if i not in pivots]
        self.position = {i: v for v, i in enumerate(self.coords)}
        self.dim = len(self.coords)

    def project(self, vec):
        """Sparse free-strand coordinates -> sparse quotient coordinates.

        The residual is zero at every pivot, so each of its entries sits
        on a quotient coordinate.
        """
        pos = self.position
        return {pos[i]: c for i, c in self.reducer.reduce(vec).items()}

    def image(self, parts):
        """Quotient coordinates of the sum of monomial(b) * p at generator t.

        parts holds the (t, b, p) triples, as for _strand_image.
        """
        return self.project(_strand_image(self.ring, parts, self.index))


# ---------------------------------------------------------------------------
# Minimal free resolutions


@dataclass
class BettiTable:
    entries: dict  # (i, j) -> count
    rescale: int
    homological_bound: int
    degree_bound: int
    flags: list
    terminated: bool

    def total(self, i: int) -> int:
        return sum(v for (h, _), v in self.entries.items() if h == i)

    def totals(self):
        return [self.total(i) for i in range(self.homological_bound + 1)]

    def to_json(self):
        return {
            "rescale": self.rescale,
            "entries": sorted([i, j, v] for (i, j), v in self.entries.items()),
            "truncation": {
                "N": self.homological_bound,
                "D": self.degree_bound,
                "flags": list(self.flags),
            },
            "totals": self.totals(),
            "terminated": self.terminated,
        }

    def to_text(self) -> str:
        """Macaulay-style triangle: row j - i, column i."""
        if not self.entries:
            return "0"
        cols = max(i for (i, _) in self.entries) + 1
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(cols - 1)))
        lines = ["      " + " ".join(f"{i:>{width}}" for i in range(cols))]
        for r in rows:
            cells = []
            for i in range(cols):
                v = self.entries.get((i, r + i))
                cells.append(f"{v if v else '.':>{width}}")
            lines.append(f"{r:>4}: " + " ".join(cells))
        lines.append(
            "total " + " ".join(f"{t:>{width}}" for t in self.totals()[:cols])
        )
        return "\n".join(lines)


@dataclass
class ResolutionResult:
    complex: GradedChainComplex
    betti: BettiTable
    flags: list
    terminated: bool


def default_degree_bound(M: PresentedModule, N: int) -> int:
    R = M.ring
    s = M.scale
    gen_max = max(M.gen_degrees, default=0)
    return N * max(2, R.max_generator_degree()) * s + gen_max + 2 * s


def minimal_resolution(
    M: PresentedModule, homological: int, internal=None
) -> ResolutionResult:
    """Minimal graded free resolution of M, truncated at (N, D).

    Kernels are computed strand by strand in ascending internal degree;
    minimal generators of each kernel are the vectors that enlarge the
    span of variable multiples of the lower strands (greedy, tie-broken
    by the deterministic column order of the nullspace routine).  Every
    differential entry then lies in the irrelevant ideal, so the term
    ranks are Betti numbers.

    A conservative truncation flag is raised when new kernel generators
    appear exactly at the degree bound: the next degree could then hold
    more.
    """
    _check_bounds(homological=homological, degree=internal)
    N = homological
    D = default_degree_bound(M, N) if internal is None else internal
    M = minimize_presentation(M)
    R = M.ring
    fld = R.field
    s = M.scale
    gen_max = max(M.gen_degrees, default=0)
    if D < gen_max:
        raise ValidationError(
            f"degree bound {D} is below a module generator degree {gen_max}"
        )

    strands = ModuleStrands(M)
    ambient = R.ambient
    variables = R.variable_polys()

    degrees_per_term = [list(M.gen_degrees)]
    maps = []
    flags = []
    terminated = False
    current_free = M.free_module()

    for step in range(N):
        src_degrees = degrees_per_term[step]
        if not src_degrees:
            terminated = True
            break
        jmin = min(src_degrees)
        kernels = {}
        free_cache = {}
        newgens = []

        for j in range(jmin, D + 1):
            free = free_strand_basis(current_free, j)
            free_cache[j] = free
            if not free:
                kernels[j] = []
                continue
            if step == 0:
                st = strands.strand(j)
                columns = [st.project({idx: fld.one}) for idx in range(len(free))]
            else:
                columns, _, _ = maps[step - 1].strand_columns(j)
            K = linalg.nullspace(columns, fld)
            kernels[j] = K
            if not K:
                continue
            reducer = linalg.SpanReducer(fld)
            prev = kernels.get(j - s, [])
            if prev:
                src = free_cache[j - s]
                index = {lab: i for i, lab in enumerate(free)}
                for v in prev:
                    for xa in variables:
                        reducer.add(multiply_strand_vector(R, src, index, v, xa))
            for v in K:
                if reducer.add(v):
                    newgens.append((j, v, free))

        if not newgens:
            terminated = True
            break
        if any(j == D for j, _, _ in newgens):
            flags.append(f"syzygy-at-degree-bound:step-{step + 1}")

        new_degrees = [j for j, _, _ in newgens]
        entries = [[ambient.zero() for _ in newgens] for _ in src_degrees]
        for cidx, (j, v, free) in enumerate(newgens):
            for k, c in v.items():
                t, b = free[k]
                entries[t][cidx] = entries[t][cidx] + ambient.monomial(b, c)
        tgt_mod = GradedFreeModule(R, tuple(new_degrees), s)
        maps.append(GradedModuleMap(tgt_mod, current_free, entries))
        degrees_per_term.append(new_degrees)
        current_free = tgt_mod

    modules = {
        i: GradedFreeModule(R, tuple(degs), s)
        for i, degs in enumerate(degrees_per_term)
    }
    cmaps = {i + 1: f for i, f in enumerate(maps)}
    complex_ = GradedChainComplex(R, 0, len(degrees_per_term) - 1, modules, cmaps)

    betti_entries = {}
    for i, degs in enumerate(degrees_per_term):
        for j in degs:
            betti_entries[(i, j)] = betti_entries.get((i, j), 0) + 1
    betti = BettiTable(betti_entries, s, N, D, list(flags), terminated)
    return ResolutionResult(complex_, betti, list(flags), terminated)


def resolution_is_minimal(res: ResolutionResult) -> bool:
    """Every differential entry lies in the irrelevant ideal."""
    for f in res.complex.maps.values():
        for row in f.entries:
            for p in row:
                if not p.is_zero() and p.degree() == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# Tor via tensoring a minimal resolution with a module or complex


@dataclass
class TorCoefficients:
    """A bounded complex of presented modules (terms in degrees 0..len-1).

    maps[q-1] presents d_q: term q -> term q-1 as a polynomial matrix,
    rows indexed by target generators, columns by source generators.
    """

    terms: list
    maps: list

    @staticmethod
    def from_module(M: PresentedModule) -> "TorCoefficients":
        return TorCoefficients([M], [])

    @property
    def scale(self) -> int:
        return self.terms[0].scale if self.terms else 1


@dataclass
class TorTable:
    entries: dict  # (i, J) -> dim, J in common grading units
    homological_bound: int
    degree_bound: int
    flags: list

    def total(self, i: int) -> int:
        return sum(v for (h, _), v in self.entries.items() if h == i)

    def totals(self):
        return [self.total(i) for i in range(self.homological_bound + 1)]

    def to_json(self):
        return {
            "totals": self.totals(),
            "entries": sorted([i, j, v] for (i, j), v in self.entries.items()),
            "truncation": {
                "N": self.homological_bound,
                "D": self.degree_bound,
                "flags": list(self.flags),
            },
        }


def tor_dims(M: PresentedModule, N, homological: int, degree_bound=None) -> TorTable:
    """dim_k Tor_i(M, N) for i <= the homological bound.

    N may be a presented module or a TorCoefficients complex; in the
    latter case the total complex of (minimal resolution of M) tensor N
    is used.  Internal degrees are tracked in the common refinement of
    the two grading scales, and a flag is raised if homology shows up at
    the upper edge of the degree window (the window may then truncate
    genuine classes).
    """
    _check_bounds(homological=homological, degree=degree_bound)
    if isinstance(N, PresentedModule):
        N = TorCoefficients.from_module(N)
    R = M.ring
    if any(term.ring != R for term in N.terms):
        raise ValidationError("Tor arguments live over different rings")
    fld = R.field
    nmax = homological
    sM, sN = M.scale, N.scale
    unit = sM * sN // gcd(sM, sN)
    a, b = unit // sM, unit // sN

    res = minimal_resolution(M, nmax + 1)
    max_delta = max(
        (max(res.complex.module(i).degrees, default=0) for i in range(nmax + 2)),
        default=0,
    )
    max_n_gen = max((max(t.gen_degrees, default=0) for t in N.terms), default=0)
    if degree_bound is None:
        D = (
            a * max_delta
            + b * max_n_gen
            + unit * max(2, R.max_generator_degree())
            + 2 * unit
        )
    else:
        D = degree_bound
    need_res_D = D // a + 1
    if need_res_D > res.betti.degree_bound:
        res = minimal_resolution(M, nmax + 1, need_res_D)
    flags = list(res.flags)

    strands = [ModuleStrands(t) for t in N.terms]
    qmax = len(N.terms) - 1

    def tensor_basis(n, J):
        out = []
        for i in range(0, nmax + 2):
            q = n - i
            if q < 0 or q > qmax:
                continue
            for t, delta in enumerate(res.complex.module(i).degrees):
                rem = J - a * delta
                if rem < 0 or rem % b:
                    continue
                u = rem // b
                for v in range(strands[q].strand(u).dim):
                    out.append((i, t, q, u, v))
        return out

    def differential(src_basis, tgt_index):
        cols = []
        for (i, t, q, u, v) in src_basis:
            st_q = strands[q].strand(u)
            rep_t, rep_b = st_q.free[st_q.coords[v]]
            images = []  # (target label without its last coordinate, image)
            # resolution differential tensor identity
            dmap = res.complex.maps.get(i)
            if dmap is not None:
                for t2, row in enumerate(dmap.entries):
                    r = row[t]
                    if r.is_zero():
                        continue
                    u2 = u + sN * r.degree()
                    img = strands[q].strand(u2).image([(rep_t, rep_b, r)])
                    images.append(((i - 1, t2, q, u2), img))
            # identity tensor coefficient differential, sign (-1)^i
            if q >= 1:
                sign = -1 if i % 2 else 1
                parts = [
                    (w, rep_b, row[rep_t].scale(sign))
                    for w, row in enumerate(N.maps[q - 1])
                ]
                images.append(((i, t, q - 1, u), strands[q - 1].strand(u).image(parts)))
            col = {}
            for head, img in images:
                for w, c in img.items():
                    key = tgt_index.get(head + (w,))
                    if key is not None:
                        col[key] = c
            cols.append(col)
        return cols

    entries = {}
    for J in range(0, D + 1):
        bases = {n: tensor_basis(n, J) for n in range(0, nmax + 2)}
        ranks = {}
        for n in range(1, nmax + 2):
            src, tgt = bases[n], bases[n - 1]
            if not src or not tgt:
                ranks[n] = 0
                continue
            tgt_index = {lab: i for i, lab in enumerate(tgt)}
            ranks[n] = linalg.sparse_rank(differential(src, tgt_index), fld)
        for n in range(0, nmax + 1):
            h = len(bases[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
            if h:
                entries[(n, J)] = h

    top = {J for (_, J) in entries}
    if top and max(top) > D - unit:
        flags.append("tor-classes-at-degree-bound")
    return TorTable(entries, nmax, D, flags)
