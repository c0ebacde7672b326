"""Classical Koszul complexes over a presented ring, and their twists.

K(f_1, ..., f_n) is the exterior-algebra complex with term i free on
the size-i index subsets and differential contracting against the f_j
with the standard alternating signs.  The distinguished complex on the
variable images (the minimal generators of the irrelevant ideal) feeds
the singularity reports; the twisted variants re-express each term as a
presented module, either with trivial action or through a Frobenius
power.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import groebner, homalg, linalg
from .errors import PreconditionError
from .polycore import RingPresentation


@dataclass
class KoszulComplex:
    ring: RingPresentation
    sequence: tuple
    subsets: list  # subsets[i]: tuple of index tuples, sorted by (degree, tuple)
    complex: homalg.GradedChainComplex

    @property
    def length(self) -> int:
        return len(self.sequence)

    def term_degrees(self, i: int):
        return self.complex.module(i).degrees


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
    zero = R.ambient.zero()
    for i in range(1, n + 1):
        src = subsets[i]
        tgt = subsets[i - 1]
        tix = {S: r for r, S in enumerate(tgt)}
        entries = [[zero for _ in src] for _ in tgt]
        for c, S in enumerate(src):
            for pos, j in enumerate(S):
                T = tuple(x for x in S if x != j)
                coeff = seq[j] if pos % 2 == 0 else -seq[j]
                r = tix[T]
                entries[r][c] = entries[r][c] + coeff
        maps[i] = homalg.GradedModuleMap(modules[i], modules[i - 1], entries)
    return KoszulComplex(
        R, seq, subsets, homalg.GradedChainComplex(R, 0, n, modules, maps)
    )


def koszul_on_maximal_ideal(R: RingPresentation) -> KoszulComplex:
    """K^R: the Koszul complex on the variable images.

    Presentation minimality makes the variables a minimal generating
    set of the irrelevant ideal, so no further check is needed.
    """
    return koszul(R, R.variable_polys())


def default_koszul_bound(K: KoszulComplex) -> int:
    R = K.ring
    top = sum(f.degree() for f in K.sequence)
    return top + 8 * max(2, R.max_generator_degree()) + 2


def koszul_homology_dims(K: KoszulComplex, degree_bound=None) -> homalg.HomologyTable:
    D = default_koszul_bound(K) if degree_bound is None else degree_bound
    return homalg.homology_dims(K.complex, D)


def koszul_homology_annihilated(K: KoszulComplex, degree_bound=None) -> bool:
    """Does every variable multiply every cycle into a boundary?

    Checked strandwise up to the degree bound.  Since boundaries are
    preserved by multiplication, vanishing on cycle bases is exactly
    the statement that the irrelevant ideal kills the homology.
    """
    R = K.ring
    fld = R.field
    D = default_koszul_bound(K) if degree_bound is None else degree_bound
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
                columns, _, _ = dmap.strand_columns(j)
                cycles = linalg.nullspace(columns, fld)
            if not cycles:
                continue
            boundaries = linalg.SpanReducer(fld)
            if nxt is not None:
                columns, _, _ = nxt.strand_columns(j + 1)
                for col in columns:
                    boundaries.add(col)
            tgt = homalg.free_strand_basis(module, j + module.scale)
            index = {lab: k for k, lab in enumerate(tgt)}
            for xa in R.variable_polys():
                for z in cycles:
                    w = homalg.multiply_strand_vector(R, basis, index, z, xa)
                    if not boundaries.contains(w):
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
    order = groebner.order_for(R)
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
    D = degree_bound
    if D is None:
        D = max(default_koszul_bound(Ka), default_koszul_bound(Kb))
    ta = homalg.homology_dims(Ka.complex, D)
    tb = homalg.homology_dims(Kb.complex, D)
    return ta.entries == tb.entries


# ---------------------------------------------------------------------------
# Twists


@dataclass
class TwistedKoszulModuleComplex:
    """A Koszul complex re-expressed as a complex of presented modules."""

    base: KoszulComplex
    mode: str  # "trivial" | "frobenius"
    power: int  # Frobenius exponent e (0 for trivial mode)
    coefficients: homalg.TorCoefficients
    degree_bound: int | None = None  # bound used to read off strand data


def twist(K: KoszulComplex, mode: str, power: int = 1, degree_bound=None):
    """Restrict the scalars of a Koszul complex along a supported map.

    trivial: each term is replaced by its homology strand data, a sum
    of one-dimensional pieces with trivial action and zero differential
    (legitimate because the irrelevant ideal kills Koszul homology).

    frobenius_power: each term becomes the Frobenius-power pushforward
    of a free module, with the differential re-expressed on the
    monomial basis of exponents below p^e.

    General restrictions of scalars are rejected: for an arbitrary
    self-map the restricted module need not be finitely generated.
    """
    R = K.ring
    if mode == "trivial":
        D = default_koszul_bound(K) if degree_bound is None else degree_bound
        table = homalg.homology_dims(K.complex, D)
        terms = []
        for i in range(K.complex.lo, K.complex.hi + 1):
            degs = []
            for j, d in sorted(table.strands(i).items()):
                degs.extend([j] * d)
            terms.append(homalg.trivial_action_module(R, degs))
        maps = [
            [
                [R.ambient.zero() for _ in terms[q].gen_degrees]
                for _ in terms[q - 1].gen_degrees
            ]
            for q in range(1, len(terms))
        ]
        return TwistedKoszulModuleComplex(
            K, "trivial", 0, homalg.TorCoefficients(terms, maps), D
        )
    if mode == "frobenius_power":
        from . import ghost  # local import; ghost builds on this module

        if R.characteristic == 0:
            raise PreconditionError(
                "Frobenius twist needs prime characteristic"
            )
        if power < 1:
            raise PreconditionError("Frobenius power must be >= 1")
        q = R.characteristic**power
        push_gens, push_relations = ghost.pushforward_presentation(R, q)
        gen_count = len(push_gens)
        terms = []
        for i in range(K.complex.lo, K.complex.hi + 1):
            degs = []
            for S in K.subsets[i]:
                # module degrees in the pushforward are original ring degrees
                shift = sum(K.sequence[j].degree() for j in S)
                degs.extend(shift + d for d in push_gens)
            cols = []
            for slot in range(len(K.subsets[i])):
                for col in push_relations:
                    full = [R.ambient.zero()] * (gen_count * len(K.subsets[i]))
                    for t, p in enumerate(col):
                        full[slot * gen_count + t] = p
                    cols.append(tuple(full))
            terms.append(homalg.PresentedModule(R, degs, cols, scale=q))
        maps = []
        zero = R.ambient.zero()
        for i in range(1, K.complex.hi + 1):
            src_subs = K.subsets[i]
            tgt_subs = K.subsets[i - 1]
            tix = {S: r for r, S in enumerate(tgt_subs)}
            rows = [
                [zero] * (gen_count * len(src_subs))
                for _ in range(gen_count * len(tgt_subs))
            ]
            for cslot, S in enumerate(src_subs):
                for pos, jdx in enumerate(S):
                    T = tuple(x for x in S if x != jdx)
                    rslot = tix[T]
                    sign = 1 if pos % 2 == 0 else -1
                    action = ghost.pushforward_action(R, q, K.sequence[jdx])
                    for t_src in range(gen_count):
                        for t_tgt, p in action[t_src].items():
                            entry = p if sign == 1 else -p
                            rr = rslot * gen_count + t_tgt
                            cc = cslot * gen_count + t_src
                            rows[rr][cc] = rows[rr][cc] + entry
            maps.append(rows)
        return TwistedKoszulModuleComplex(
            K, "frobenius", power, homalg.TorCoefficients(terms, maps), degree_bound
        )
    raise PreconditionError(
        f"unsupported twist {mode!r}: only trivial and frobenius_power "
        "restrictions keep the terms finitely generated"
    )
