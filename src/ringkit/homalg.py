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

from . import bounds, groebner, linalg
from .errors import ValidationError
from .polycore import RingPresentation


# ---------------------------------------------------------------------------
# Free modules, maps, complexes


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


def strand_vector_column(R: RingPresentation, labels, vec):
    """The polynomial column {generator: poly} of a sparse strand vector;
    labels are the (generator, standard monomial) labels of its strand."""
    zero, col = R.ambient.zero(), {}
    for k, c in vec.items():
        t, b = labels[k]
        col[t] = col.get(t, zero) + R.ambient.monomial(b, c)
    return col


def _multiples(R: RingPresentation, columns, degrees, scale, j, index):
    """Strand coordinates of the standard-monomial multiples of columns.

    columns are polynomial columns of the given module degrees; for each
    in turn, yields b * column for every standard monomial b that lands
    it in degree j, in quotient_basis order.  index maps the labels of
    the degree-j strand of the columns' target to positions.
    """
    bases = {}  # remaining degree -> standard monomials
    for degree, col in zip(degrees, columns):
        rem = j - degree
        if rem < 0 or rem % scale:
            continue
        if rem not in bases:
            bases[rem] = groebner.quotient_basis(R, rem // scale)
        for b in bases[rem]:
            yield groebner.nf_coordinates(R, [(t, b, p) for t, p in col.items()], index)


def _columns(columns, target_degrees, scale, source_degrees=None):
    """Check a polynomial matrix given as sparse columns.

    A matrix is one column per source generator, {target generator
    index: homogeneous polynomial}.  Zero entries are pruned and keys
    come out ascending.  Every entry p at target t must give its column
    one module degree, target_degrees[t] + scale * deg p; with
    source_degrees that degree is the source generator's.  Returns
    (columns, column degrees); a column with no entries and no source
    degree has degree None.
    """
    columns = tuple(columns)
    if source_degrees is not None and len(columns) != len(source_degrees):
        raise ValidationError("matrix shape does not match the modules")
    rank = len(target_degrees)
    out, degrees = [], []
    for c, col in enumerate(columns):
        degree = None if source_degrees is None else source_degrees[c]
        clean = {}
        for t in sorted(col):
            p = col[t]
            if not 0 <= t < rank:
                raise ValidationError(
                    f"column {c} has index {t} outside the target rank {rank}"
                )
            if p.is_zero():
                continue
            d = target_degrees[t] + scale * p.degree()
            if degree is None:
                degree = d
            if not p.is_homogeneous() or d != degree:
                raise ValidationError(
                    f"entry ({t},{c}) is not homogeneous of module degree {degree}"
                )
            clean[t] = p
        out.append(clean)
        degrees.append(degree)
    return tuple(out), degrees


class GradedModuleMap:
    """Map of graded free modules given by a homogeneous polynomial matrix.

    columns[j] is the image of source generator j as a sparse column
    {target index i: nonzero polynomial}, keys ascending; each entry is
    homogeneous of ring degree (deg source_j - deg target_i) / scale.
    """

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, columns):
        if source.ring != target.ring or source.scale != target.scale:
            raise ValidationError("map endpoints disagree")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.columns, _ = _columns(
            columns, target.degrees, source.scale, source.degrees
        )

    def strand_columns(self, j: int):
        """The degree-j strand as sparse columns {target basis index: coeff}.

        Column k is the image of the k-th element of the source strand
        basis, free_strand_basis(source, j); entries that cancel to zero
        are left out.
        """
        tgt = free_strand_basis(self.target, j)
        index = {lab: i for i, lab in enumerate(tgt)}
        source = self.source
        return list(
            _multiples(self.ring, self.columns, source.degrees, source.scale, j, index)
        )

    def strand_matrix(self, j: int):
        """Dense matrix of the degree-j strand (rows: target basis)."""
        src = free_strand_basis(self.source, j)
        tgt = free_strand_basis(self.target, j)
        rows = [[self.ring.field.zero] * len(src) for _ in tgt]
        for cidx, col in enumerate(self.strand_columns(j)):
            for r, c in col.items():
                rows[r][cidx] = c
        return rows, src, tgt

    def compose(self, other: "GradedModuleMap") -> "GradedModuleMap":
        """self after other (other.source -> self.target)."""
        if other.target.degrees != self.source.degrees:
            raise ValidationError("maps are not composable")
        zero = self.ring.ambient.zero()
        columns = []
        for col in other.columns:
            acc = {}
            for t, q in col.items():
                for i, p in self.columns[t].items():
                    acc[i] = acc.get(i, zero) + p * q
            columns.append(acc)
        return GradedModuleMap(other.source, self.target, columns)


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
        for col in comp.columns:
            if any(not groebner.nf(R, p).is_zero() for p in col.values()):
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
    bounds.check(degree=up_to_internal)
    D = up_to_internal
    terms = range(C.lo, C.hi + 1)
    warnings = []
    for i in terms:
        degs = C.module(i).degrees
        if degs and max(degs) > D:
            warnings.append(
                f"degree bound {D} is below a generator degree of term {i}"
            )
    dims = {
        (i, j): len(free_strand_basis(C.module(i), j))
        for i in terms
        for j in range(D + 1)
    }
    strands = (
        ((i, j), C.maps[i].strand_columns(j))
        for i in terms
        if i in C.maps
        for j in range(D + 1)
        if dims[(i, j)] and dims.get((i - 1, j))
    )
    entries = linalg.homology(dims, strands, C.ring.field)
    return HomologyTable(entries, C.lo, C.hi, D, warnings)


# ---------------------------------------------------------------------------
# Presented modules


class PresentedModule:
    """Finitely presented graded module: generators and relation columns.

    Generator order is preserved as given (callers index against it).
    Relations are sparse polynomial columns {generator index: poly},
    as in GradedModuleMap; each must be homogeneous, and columns with
    no nonzero entry are pruned.
    """

    def __init__(self, ring: RingPresentation, gen_degrees, relations=(), scale=1):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        self.scale = scale
        cols, degrees = _columns(relations, self.gen_degrees, scale)
        kept = [(d, col) for d, col in zip(degrees, cols) if col]
        self.relations = tuple(col for _, col in kept)
        self.relation_degrees = tuple(d for d, _ in kept)

    def free_module(self) -> GradedFreeModule:
        return GradedFreeModule(self.ring, self.gen_degrees, self.scale)


def residue_field_module(R: RingPresentation) -> PresentedModule:
    """k = R/m as a presented module: one generator killed by the variables."""
    return trivial_action_module(R, (0,))


def trivial_action_module(R: RingPresentation, degrees, scale=1) -> PresentedModule:
    """k^n with trivial multiplication: every variable kills every generator."""
    cols = [{t: R.ambient.var(i)} for t in range(len(degrees)) for i in range(R.embdim)]
    return PresentedModule(R, degrees, cols, scale)


def minimize_presentation(M: PresentedModule) -> PresentedModule:
    """Cancel unit relation entries so the surviving generators are minimal.

    One pass: a relation with a unit entry (at its least such generator
    t) clears t from every other relation and is dropped.  A relation
    already passed has entries of positive degree only, and it loses a
    multiple of the pivot by its entry at t, so it never gains a unit.
    """
    R = M.ring
    zero = R.ambient.zero()
    cols = [dict(col) for col in M.relations]
    dead = set()
    for pivot in cols:
        t = min((t for t, p in pivot.items() if p.degree() == 0), default=None)
        if t is None:
            continue
        inv = R.field.inv(pivot[t].constant_term())
        for col in cols:
            if col is not pivot and t in col:
                factor = col[t].scale(inv)
                for u, p in pivot.items():
                    col[u] = col.get(u, zero) - p * factor
        dead.add(t)
        pivot.clear()
    # every dead generator's entries are now zero; renumber the survivors
    alive = [t for t in range(len(M.gen_degrees)) if t not in dead]
    new = {t: k for k, t in enumerate(alive)}
    cols = [{new[u]: p for u, p in col.items() if p} for col in cols]
    return PresentedModule(R, [M.gen_degrees[t] for t in alive], cols, M.scale)


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
        for vec in _multiples(
            M.ring, M.relations, M.relation_degrees, M.scale, j, self.index
        ):
            self.reducer.add(vec)
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

        parts holds the (t, b, p) triples, as for groebner.nf_coordinates.
        """
        return self.project(groebner.nf_coordinates(self.ring, parts, self.index))


# ---------------------------------------------------------------------------
# Minimal free resolutions


@dataclass
class TorTable:
    entries: dict  # (i, j) -> dim, j in common grading units
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


@dataclass
class BettiTable(TorTable):
    """Graded Betti numbers beta_ij = dim Tor_i(M, k)_j, read off a
    minimal resolution of M: entries count its generators by degree."""

    rescale: int
    terminated: bool

    def to_json(self):
        return {
            **super().to_json(),
            "rescale": self.rescale,
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

    @property
    def flags(self):
        return self.betti.flags

    @property
    def terminated(self):
        return self.betti.terminated


def minimal_resolution(
    M: PresentedModule, homological: int, internal=None
) -> ResolutionResult:
    """Minimal graded free resolution of M, truncated at (N, D).

    Degrees are the outer loop and steps the inner one.  In degree j,
    step s holds a basis of ker(d_s)_j; step 0 starts from the relation
    span of M, which is ker(F_0 -> M)_j.  Step s seeds a SpanReducer
    with the degree-j multiples of the F_{s+1} generators found below j,
    each tagged with its position in the F_{s+1} strand.  Their span is
    m * ker(d_s)_j, since by induction those generators generate the
    kernel below j and R is generated in degree 1.  The kernel vectors
    that enlarge it become the degree-j generators (greedy, in basis
    order), so every differential entry lies in the irrelevant ideal
    and the term ranks are Betti numbers.  The new generators are
    independent of the seeds, so the tags left by the seeds that reduce
    to zero are a basis of ker(d_{s+1})_j, which step s + 1 takes next.

    A conservative truncation flag is raised when new kernel generators
    appear exactly at the degree bound: the next degree could then hold
    more.
    """
    N = homological
    D = bounds.resolution_degree(M, N, internal)
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
    degrees = [list(M.gen_degrees)] + [[] for _ in range(N)]
    columns = [[] for _ in range(N)]  # columns[step]: d_{step+1}
    for j in range(min(M.gen_degrees, default=D + 1), D + 1):
        kernel = strands.strand(j).reducer.rows.values()
        for step in range(N):
            free = free_strand_basis(GradedFreeModule(R, tuple(degrees[step]), s), j)
            index = {lab: i for i, lab in enumerate(free)}
            width = len(free)
            reducer = linalg.SpanReducer(fld, width)
            seeds = _multiples(R, columns[step], degrees[step + 1], s, j, index)
            for k, vec in enumerate(seeds):
                vec[width + k] = fld.one
                reducer.add(vec)
            # a rejected kernel vector leaves a tag too, but no relation
            relations = list(reducer.relations)
            for v in kernel:
                if reducer.add(v):
                    degrees[step + 1].append(j)
                    columns[step].append(strand_vector_column(R, free, v))
            kernel = relations

    terminated = not degrees[N]
    while len(degrees) > 1 and not degrees[-1]:
        degrees.pop()
    steps = range(1, len(degrees))
    flags = [f"syzygy-at-degree-bound:step-{i}" for i in steps if degrees[i][-1] == D]
    mods = {i: GradedFreeModule(R, tuple(degs), s) for i, degs in enumerate(degrees)}
    maps = {i: GradedModuleMap(mods[i], mods[i - 1], columns[i - 1]) for i in steps}
    complex_ = GradedChainComplex(R, 0, len(degrees) - 1, mods, maps)

    betti_entries = {}
    for i, degs in enumerate(degrees):
        for j in degs:
            betti_entries[(i, j)] = betti_entries.get((i, j), 0) + 1
    betti = BettiTable(betti_entries, N, D, flags, s, terminated)
    return ResolutionResult(complex_, betti)


def resolution_is_minimal(res: ResolutionResult) -> bool:
    """Every differential entry lies in the irrelevant ideal."""
    return all(
        p.degree() != 0
        for f in res.complex.maps.values()
        for col in f.columns
        for p in col.values()
    )


# ---------------------------------------------------------------------------
# Tor via tensoring a minimal resolution with a module or complex


@dataclass
class TorCoefficients:
    """A bounded complex of presented modules (terms in degrees 0..len-1).

    maps[q-1] presents d_q: term q -> term q-1 as sparse polynomial
    columns, one per generator of term q, {term q-1 generator: poly},
    checked as for GradedModuleMap.
    """

    terms: list
    maps: list

    def __post_init__(self):
        if len(self.maps) != max(len(self.terms) - 1, 0):
            raise ValidationError("need one map between each pair of adjacent terms")
        degrees = [term.gen_degrees for term in self.terms]
        self.maps = [
            _columns(cols, degrees[q], self.scale, degrees[q + 1])[0]
            for q, cols in enumerate(self.maps)
        ]

    @property
    def scale(self) -> int:
        return self.terms[0].scale if self.terms else 1


def tor_dims(M: PresentedModule, N, homological: int, degree_bound=None) -> TorTable:
    """dim_k Tor_i(M, N) for i <= the homological bound.

    N may be a presented module or a TorCoefficients complex; in the
    latter case the total complex of (minimal resolution of M) tensor N
    is used.  Internal degrees are tracked in the common refinement of
    the two grading scales, and a flag is raised if homology shows up at
    the upper edge of the degree window (the window may then truncate
    genuine classes).
    """
    bounds.check(homological=homological, degree=degree_bound)
    if isinstance(N, PresentedModule):
        N = TorCoefficients([N], [])
    R = M.ring
    if any(term.ring != R for term in N.terms):
        raise ValidationError("Tor arguments live over different rings")
    fld = R.field
    nmax = homological
    sM, sN = M.scale, N.scale
    unit = sM * sN // gcd(sM, sN)
    a, b = unit // sM, unit // sN

    D = degree_bound
    if D is None:
        # the default window reads the generator degrees of a resolution
        res = minimal_resolution(M, nmax + 1)
        max_delta = max(
            (max(res.complex.module(i).degrees, default=0) for i in range(nmax + 2)),
            default=0,
        )
        max_n_gen = max((max(t.gen_degrees, default=0) for t in N.terms), default=0)
        D = bounds.tor_degree(R, unit, a * max_delta + b * max_n_gen)
    # complete through D // a + 1, above every degree the window reads,
    # so the resolution's own bound flags describe no Tor entry; never
    # below a generator of M, which minimal_resolution rejects
    need_res_D = max(D // a + 1, max(M.gen_degrees, default=0))
    if degree_bound is not None or need_res_D > res.betti.degree_bound:
        res = minimal_resolution(M, nmax + 1, need_res_D)

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

    def differential(src_basis, tgt_basis):
        tgt_index = {lab: i for i, lab in enumerate(tgt_basis)}
        cols = []
        for (i, t, q, u, v) in src_basis:
            st_q = strands[q].strand(u)
            rep_t, rep_b = st_q.free[st_q.coords[v]]
            images = []  # (target label without its last coordinate, image)
            # resolution differential tensor identity
            dmap = res.complex.maps.get(i)
            if dmap is not None:
                for t2, r in dmap.columns[t].items():
                    u2 = u + sN * r.degree()
                    img = strands[q].strand(u2).image([(rep_t, rep_b, r)])
                    images.append(((i - 1, t2, q, u2), img))
            # identity tensor coefficient differential, sign (-1)^i
            if q >= 1:
                sign = -1 if i % 2 else 1
                parts = [
                    (w, rep_b, p.scale(sign)) for w, p in N.maps[q - 1][rep_t].items()
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
        dims = {(n, J): len(bases[n]) for n in range(0, nmax + 1)}
        maps = (
            ((n, J), differential(bases[n], bases[n - 1]))
            for n in range(1, nmax + 2)
            if bases[n] and bases[n - 1]
        )
        entries.update(linalg.homology(dims, maps, fld))

    top = {J for (_, J) in entries}
    flags = ["tor-classes-at-degree-bound"] if top and max(top) > D - unit else []
    return TorTable(entries, nmax, D, flags)
