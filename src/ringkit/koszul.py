"""Classical Koszul complexes over a presented ring, and their twists.

K(f_1, ..., f_n) is the exterior-algebra complex with term i free on
the size-i index subsets and differential contracting against the f_j
with the standard alternating signs.  The distinguished complex on the
variable images (the minimal generators of the irrelevant ideal) feeds
the singularity reports, and its homology is ranked only where the
Taylor resolution of S/in(I) allows it; the trivial twist re-expresses
each term as a presented module with trivial action (the Frobenius
twist lives in ghost, next to the pushforward it uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import bounds, groebner, homalg, linalg
from .errors import PreconditionError
from .polycore import RingPresentation, mono_deg, mono_lcm


@dataclass
class KoszulComplex:
    ring: RingPresentation
    sequence: tuple
    subsets: list  # subsets[i]: tuple of index tuples, sorted by (degree, tuple)
    complex: homalg.GradedChainComplex


def differential_terms(subsets, i):
    """The terms of d_i: (source slot, target slot, j, sign).

    d_i sends the basis element of the subset S to the sum over the
    positions pos of S of (-1)^pos f_j times that of S without j = S[pos].
    """
    tix = {T: r for r, T in enumerate(subsets[i - 1])}
    for c, S in enumerate(subsets[i]):
        for pos, j in enumerate(S):
            yield c, tix[S[:pos] + S[pos + 1 :]], j, (-1) ** pos


def koszul(R: RingPresentation, sequence) -> KoszulComplex:
    """The Koszul complex K(f_1, ..., f_n) over the presented ring."""
    seq = tuple(sequence)
    for f in seq:
        if f.ring != R.ambient:
            raise PreconditionError("Koszul input outside the ambient ring")
        if f.is_zero() or not f.is_homogeneous():
            raise PreconditionError(f"inhomogeneous Koszul input: {f}")
        if not R.field.is_zero(f.constant_term()):
            raise PreconditionError(f"Koszul input has a constant term: {f}")
    n = len(seq)
    degs = [f.degree() for f in seq]
    subsets = []
    modules = {}
    for i in range(n + 1):
        subs = sorted(
            combinations(range(n), i), key=lambda S: (sum(degs[j] for j in S), S)
        )
        subsets.append(tuple(subs))
        modules[i] = homalg.GradedFreeModule(
            R, tuple(sum(degs[j] for j in S) for S in subs)
        )
    maps = {}
    for i in range(1, n + 1):
        columns = [{} for _ in subsets[i]]
        for c, r, j, sign in differential_terms(subsets, i):
            columns[c][r] = seq[j] if sign == 1 else -seq[j]
        maps[i] = homalg.GradedModuleMap(modules[i], modules[i - 1], columns)
    return KoszulComplex(
        R, seq, subsets, homalg.GradedChainComplex(R, 0, n, modules, maps)
    )


def koszul_on_maximal_ideal(R: RingPresentation) -> KoszulComplex:
    """K^R: the Koszul complex on the variable images.

    Presentation minimality makes the variables a minimal generating
    set of the irrelevant ideal, so no further check is needed.
    """
    return koszul(R, R.variable_polys())


def _taylor_support(R: RingPresentation) -> set:
    """The pairs (i, j), i <= embdim, where j is the degree of the lcm of
    i distinct leading monomials of the reduced Groebner basis of R.

    H_i(K^R)_j = beta^S_ij(R) <= beta^S_ij(S/in(I)) by upper
    semicontinuity (Herzog-Hibi, Monomial Ideals, 3.3), and the Taylor
    resolution of S/in(I) has its i-th term in these degrees, so Koszul
    homology on the variables vanishes off this set.
    """
    lms = groebner.ring_groebner(R).lms
    # (lcm, largest index used) of the i-subsets; extending only by larger
    # indices reaches each subset once, and merged pairs extend alike
    level = {((0,) * R.embdim, -1)}
    support = {(0, 0)}
    for i in range(1, R.embdim + 1):
        level = {
            (mono_lcm(m, lms[k]), k)
            for m, last in level
            for k in range(last + 1, len(lms))
        }
        support.update((i, mono_deg(m)) for m, _ in level)
    return support


def _support(K: KoszulComplex):
    """The Taylor support of K.ring when K is on embdim linear forms of
    full rank, a minimal generating set of m; otherwise None.

    Such a K is isomorphic to K on the variables through the exterior
    powers of the change-of-basis matrix.
    """
    R, seq = K.ring, K.sequence
    if len(seq) != R.embdim or any(f.degree() != 1 for f in seq):
        return None
    columns = [{m.index(1): c for m, c in f.terms.items()} for f in seq]
    if linalg.sparse_rank(columns, R.field) < R.embdim:
        return None
    return _taylor_support(R)


def koszul_homology_dims(K: KoszulComplex, degree_bound=None) -> homalg.HomologyTable:
    """dim H_i(K)_j through the window; on a minimal generating set of m
    only the Taylor support is ranked, and a window below its top degree
    is flagged, since homology above the window is not ruled out there."""
    D = bounds.koszul_degree(K, degree_bound)
    support = _support(K)
    table = homalg.homology_dims(K.complex, D, support)
    if support is not None:
        top = max(j for _, j in support)
        if top > D:
            table.warnings.append(f"degree-bound-below-certified:{top}")
    return table


def koszul_homology_annihilated(K: KoszulComplex, degree_bound=None) -> bool:
    """Does every variable multiply every cycle into a boundary?

    Checked strandwise up to the degree bound.  Since boundaries are
    preserved by multiplication, vanishing on cycle bases is exactly
    the statement that the irrelevant ideal kills the homology.
    """
    R = K.ring
    fld = R.field
    D = bounds.koszul_degree(K, degree_bound)
    C = K.complex
    for i in range(C.lo, C.hi + 1):
        module = C.module(i)
        dmap = C.maps.get(i)
        nxt = C.maps.get(i + 1)
        for j in range(0, D):
            basis = homalg.free_strand_basis(module, j)
            if not basis:
                continue
            if dmap is None:
                cycles = [{idx: fld.one} for idx in range(len(basis))]
            else:
                cycles = linalg.nullspace(dmap.strand_columns(j), fld)
            if not cycles:
                continue
            boundaries = linalg.SpanReducer(fld)
            if nxt is not None:
                for col in nxt.strand_columns(j + 1):
                    boundaries.add(col)
            # one generator of degree j per cycle, mapped onto it
            z_map = homalg.GradedModuleMap(
                homalg.GradedFreeModule(R, (j,) * len(cycles), module.scale),
                module,
                [homalg.strand_vector_column(R, basis, z) for z in cycles],
            )
            multiples = z_map.strand_columns(j + module.scale)
            if not all(map(boundaries.contains, multiples)):
                return False
    return True


def generator_change_iso_check(
    R: RingPresentation, seq_a, seq_b, degree_bound=None
) -> bool:
    """Same homology dims for two minimal generating sets of one ideal.

    Rejects the comparison when the two sequences generate different
    ideals of the quotient or fail to be minimal generating sets.
    """
    seq_a, seq_b = list(seq_a), list(seq_b)
    order = groebner.ring_ideal(R).order
    ideal_a = groebner.IdealHandle(
        R.ambient, seq_a + list(R.generators), order
    )
    ideal_b = groebner.IdealHandle(
        R.ambient, seq_b + list(R.generators), order
    )
    if not (
        all(groebner.member(f, ideal_b) for f in seq_a)
        and all(groebner.member(f, ideal_a) for f in seq_b)
    ):
        raise PreconditionError("sequences generate different ideals")
    if not groebner.is_minimal_generating_set(R, seq_a):
        raise PreconditionError("first sequence is not a minimal generating set")
    if not groebner.is_minimal_generating_set(R, seq_b):
        raise PreconditionError("second sequence is not a minimal generating set")
    Ka, Kb = koszul(R, seq_a), koszul(R, seq_b)
    D = max(bounds.koszul_degree(K, degree_bound) for K in (Ka, Kb))
    ta = homalg.homology_dims(Ka.complex, D, _support(Ka))
    tb = homalg.homology_dims(Kb.complex, D, _support(Kb))
    return ta.entries == tb.entries


# ---------------------------------------------------------------------------
# Twists


def trivial_twist(K: KoszulComplex, degree_bound=None) -> homalg.TorCoefficients:
    """Each term of K replaced by its homology strand data.

    A term becomes a sum of one-dimensional pieces with trivial action,
    one per homology dimension in the strand window, and every
    differential is zero; this is legitimate because the irrelevant
    ideal kills Koszul homology.  The Frobenius twist is
    ghost.frobenius_twist.
    """
    table = koszul_homology_dims(K, degree_bound)
    terms = [
        homalg.trivial_action_module(
            K.ring, [j for j, d in sorted(table.strands(i).items()) for _ in range(d)]
        )
        for i in range(K.complex.lo, K.complex.hi + 1)
    ]
    maps = [[{} for _ in terms[q].gen_degrees] for q in range(1, len(terms))]
    return homalg.TorCoefficients(terms, maps)
