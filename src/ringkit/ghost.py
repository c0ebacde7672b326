"""Ring self-map analysis and singularity classification.

The decision layer: well-definedness certificates for variable-image
maps, the conormal (degree-zero) vanishing test, the contracting test
via nilpotency of the linearisation, the quadratic-lift criterion for
complete intersections, Frobenius maps and pushforwards, and the
regular / complete-intersection / other classification with its
Tor-based consistency reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import log2

from . import bounds, groebner, homalg, koszul
from .errors import PreconditionError
from .polycore import Polynomial, RingPresentation, map_to_dsl


# ---------------------------------------------------------------------------
# Validated self-maps


@dataclass
class RingEndomap:
    source: RingPresentation
    target: RingPresentation
    images: tuple  # one polynomial per source variable, zero constant term

    @property
    def is_endo(self) -> bool:
        return self.source == self.target

    def to_dsl(self) -> str:
        return map_to_dsl(self.source, self.images)

    def lift_substitute(self, f: Polynomial) -> Polynomial:
        """Apply the ambient lift (same variable images) to f."""
        return f.substitute(list(self.images), self.target.ambient)


def validate_map(images, source: RingPresentation, target: RingPresentation = None):
    """Certify a variable-image list as a map of presented rings.

    Local: every image has zero constant term.  Well defined: every
    ideal generator lands in the target ideal; the rejection names the
    first generator that fails.
    """
    if target is None:
        target = source
    images = tuple(images)
    if len(images) != source.embdim:
        raise PreconditionError(
            f"need {source.embdim} images, got {len(images)}"
        )
    for v, img in zip(source.variables, images):
        if img.ring != target.ambient:
            raise PreconditionError(f"image of {v} is not in the target ring")
        if not target.field.is_zero(img.constant_term()):
            raise PreconditionError(
                f"map is not local: image of {v} has a constant term"
            )
    ideal = groebner.ring_ideal(target)
    for g in source.generators:
        image = g.substitute(list(images), target.ambient)
        if not image.is_zero() and not groebner.member(image, ideal):
            raise PreconditionError(
                f"map is not well defined: image of generator {g} "
                f"is not in the target ideal"
            )
    return RingEndomap(source, target, images)


# ---------------------------------------------------------------------------
# Conormal matrix and the contracting test


def conormal_matrix(phi: RingEndomap):
    """Linear parts of the images: the induced map on m/m^2.

    Entry (i, j) is the coefficient of variable i in the image of
    variable j.  Returns (matrix, all_zero).  Because presentation
    ideals sit inside m^2, the variables are a basis of m/m^2 and the
    matrix is the degree-zero obstruction: a nonzero matrix certifies
    that the map is not trivial on the conormal level.
    """
    if not phi.is_endo:
        raise PreconditionError("conormal matrix needs an endomorphism")
    R = phi.source
    fld = R.field
    n = R.embdim
    rows = [[fld.zero] * n for _ in range(n)]
    zero = True
    for j, img in enumerate(phi.images):
        for i in range(n):
            c = img.linear_coefficient(i)
            rows[i][j] = c
            if not fld.is_zero(c):
                zero = False
    return rows, zero


def _mat_mul(A, B, fld):
    n = len(A)
    return [
        [
            _dot(A[i], [B[t][j] for t in range(n)], fld)
            for j in range(n)
        ]
        for i in range(n)
    ]


def _dot(u, v, fld):
    acc = fld.zero
    for a, b in zip(u, v):
        acc = fld.add(acc, fld.mul(a, b))
    return acc


def _mat_is_zero(A, fld):
    return all(fld.is_zero(x) for row in A for x in row)


def is_contracting(phi: RingEndomap, j_max: int | None = None):
    """Smallest j <= j_max with all linear parts of phi^j vanishing.

    The linearisation of a composite is the product of linearisations,
    so this is nilpotency of the conormal matrix; j_max defaults to the
    embedding dimension, beyond which no new vanishing can appear.
    """
    R = phi.source
    if j_max is None:
        j_max = max(1, R.embdim)
    if j_max < 1:
        raise PreconditionError("contracting test needs j_max >= 1")
    fld = R.field
    M, zero = conormal_matrix(phi)
    if zero:
        return 1
    power = M
    for j in range(2, j_max + 1):
        power = _mat_mul(power, M, fld)
        if _mat_is_zero(power, fld):
            return j
    return None


# ---------------------------------------------------------------------------
# Classification


@dataclass
class ClassificationReport:
    verdict: str  # "regular" | "complete_intersection" | "other"
    embdim: int
    dim: int
    num_min_gens: int

    def to_json(self):
        return {
            "verdict": self.verdict,
            "embdim": self.embdim,
            "dim": self.dim,
            "num_min_gens": self.num_min_gens,
        }


def classify(R: RingPresentation) -> ClassificationReport:
    """Regular / complete intersection / other, from the presentation.

    Embedding dimension is the variable count (the presentation is
    minimal), the dimension comes from independent variable sets of the
    leading-term ideal, and the minimal generator count is dim_k I/mI
    (equal to the generator count whenever the given generators are
    minimal).  A minimal homogeneous presentation is a complete
    intersection exactly when that count equals the codimension.
    """
    embdim = R.embdim
    dim = groebner.krull_dim(R)
    mu = groebner.minimal_generator_count(R)
    if mu == 0:
        verdict = "regular"
    elif mu == embdim - dim:
        verdict = "complete_intersection"
    else:
        verdict = "other"
    return ClassificationReport(verdict, embdim, dim, mu)


# ---------------------------------------------------------------------------
# Quadratic-lift criterion (complete intersections)


@dataclass
class KoszulGhostVerdict:
    status: str  # "true" | "false" | "not_applicable"
    reason: str
    failing_generator: str | None = None

    @property
    def value(self):
        if self.status == "true":
            return True
        if self.status == "false":
            return False
        return None


def ci_koszul_ghost(phi: RingEndomap) -> KoszulGhostVerdict:
    """Is the induced map on the Koszul complex trivial on homology?

    For complete-intersection presentations this is decided exactly by
    the quadratic-lift test: the ambient lift must send every ideal
    generator into the square of the ideal.  Regular presentations pass
    vacuously (no relations).  For other rings the positive-degree
    obstructions have no finite decision procedure here, so the verdict
    is not-applicable.
    """
    if not phi.is_endo:
        raise PreconditionError("Koszul ghost test needs an endomorphism")
    R = phi.source
    cls = classify(R)
    if cls.verdict == "other":
        return KoszulGhostVerdict(
            "not_applicable",
            "ring is not a complete intersection; positive-degree "
            "vanishing is undecided at this truncation",
        )
    ideal = groebner.ring_ideal(R)
    square = groebner.ideal_power(
        groebner.IdealHandle(R.ambient, R.generators, ideal.order), 2
    )
    for g in R.generators:
        lifted = phi.lift_substitute(g)
        if not lifted.is_zero() and not groebner.member(lifted, square):
            return KoszulGhostVerdict(
                "false",
                "lift sends a generator outside the squared ideal",
                failing_generator=str(g),
            )
    return KoszulGhostVerdict("true", "lift sends the ideal into its square")


# ---------------------------------------------------------------------------
# Frobenius


def _frobenius_q(R: RingPresentation, e: int) -> int:
    """q = p^e for the e-th Frobenius power; rejects what has none."""
    if R.characteristic == 0:
        raise PreconditionError("Frobenius needs prime characteristic")
    if e < 1:
        raise PreconditionError("Frobenius power must be >= 1")
    return R.characteristic**e


def frobenius_map(R: RingPresentation, e: int = 1) -> RingEndomap:
    """The e-th Frobenius power x -> x^(p^e) as a validated self-map."""
    q = _frobenius_q(R, e)
    images = [R.ambient.var(i) ** q for i in range(R.embdim)]
    return validate_map(images, R, R)


def pushforward_basis(R: RingPresentation, q: int):
    """Monomials with all exponents below q: the pushforward generators."""
    key = ("push-basis", q)
    if key not in R._cache:
        R._cache[key] = [
            tuple(reversed(a)) for a in product(range(q), repeat=R.embdim)
        ]
    return R._cache[key]


def _frobenius_expand(R: RingPresentation, q: int, g: Polynomial):
    """Write g as a combination of the basis monomials with q-th power
    coefficients: g = sum_b s_b^[q] x^b.  Returns {b: s_b}.

    On the prime field the inverse of c -> c^q is the identity, so the
    coefficients carry over unchanged.
    """
    fld = R.field
    out = {}
    for m, c in g.terms.items():
        b = tuple(e % q for e in m)
        h = tuple(e // q for e in m)
        slot = out.setdefault(b, {})
        acc = fld.add(slot.get(h, fld.zero), c)
        if fld.is_zero(acc):
            slot.pop(h, None)
        else:
            slot[h] = acc
    ambient = R.ambient
    return {b: Polynomial(ambient, terms) for b, terms in out.items() if terms}


def pushforward_presentation(R: RingPresentation, q: int):
    """Generator degrees and relation columns of the Frobenius pushforward.

    Generators are the q-bounded monomials (degrees are their original
    total degrees; the module carries grading scale q).  Relations are
    the expansions of basis-monomial multiples of the ideal generators:
    the columns of multiplication by each generator.
    """
    degs = [sum(b) for b in pushforward_basis(R, q)]
    cols = [col for f in R.generators for col in pushforward_action(R, q, f)]
    return degs, cols


def pushforward_action(R: RingPresentation, q: int, f: Polynomial):
    """Matrix of multiplication by f on the pushforward, per generator.

    Returns the sparse columns: a list over source generators of
    {target generator: poly}.
    """
    cache = R._cache.setdefault(("push-action", q), {})
    if f in cache:
        return cache[f]
    basis = pushforward_basis(R, q)
    index = {b: i for i, b in enumerate(basis)}
    action = []
    for a in basis:
        expansion = _frobenius_expand(R, q, f * R.ambient.monomial(a))
        action.append({index[b]: s for b, s in expansion.items()})
    cache[f] = action
    return action


def frobenius_pushforward(R: RingPresentation, e: int = 1) -> homalg.PresentedModule:
    """The ring as a module over itself through the e-th Frobenius power.

    Free of rank p^(e*d) on the q-bounded monomials when the ring is
    regular; in general the relations are the expanded generator
    multiples.  Module degrees are original degrees; scale is q = p^e.
    """
    q = _frobenius_q(R, e)
    degs, cols = pushforward_presentation(R, q)
    return homalg.PresentedModule(R, degs, cols, scale=q)


def frobenius_twist(K: koszul.KoszulComplex, e: int = 1) -> homalg.TorCoefficients:
    """Restrict the scalars of a Koszul complex along the e-th Frobenius.

    Each term becomes a sum of pushforwards, one block of generators
    per basis element of the term, and the differential acts on each
    block through the pushforward action of the sequence entry.
    Module degrees are original degrees; the scale is q = p^e.  General
    restrictions of scalars are not offered: along an arbitrary
    self-map the restricted module need not be finitely generated.
    """
    R = K.ring
    q = _frobenius_q(R, e)
    push_gens, push_relations = pushforward_presentation(R, q)
    g = len(push_gens)

    def block(col, slot, sign=1):
        return {slot * g + t: p if sign == 1 else -p for t, p in col.items()}

    terms = []
    for i in range(K.complex.lo, K.complex.hi + 1):
        subsets = K.subsets[i]
        shifts = [sum(K.sequence[j].degree() for j in S) for S in subsets]
        degs = [shift + d for shift in shifts for d in push_gens]
        cols = [
            block(col, slot) for slot in range(len(subsets)) for col in push_relations
        ]
        terms.append(homalg.PresentedModule(R, degs, cols, scale=q))
    maps = []
    for i in range(1, K.complex.hi + 1):
        columns = [{} for _ in range(g * len(K.subsets[i]))]
        for cslot, rslot, j, sign in koszul.differential_terms(K.subsets, i):
            action = pushforward_action(R, q, K.sequence[j])
            for t, col in enumerate(action):
                columns[cslot * g + t].update(block(col, rslot, sign))
        maps.append(columns)
    return homalg.TorCoefficients(terms, maps)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class GhostReport:
    ring: str
    map: str
    conormal_matrix: list
    conormal_zero: bool
    contracting_j: int | None
    contracting_bound: int
    classification: ClassificationReport
    koszul_ghost: bool | None
    koszul_ghost_reason: str
    ghost_verdict: str  # "ghost" | "not_ghost" | "undecided"

    def to_json(self):
        return {
            "ring": self.ring,
            "map": self.map,
            "conormal_matrix": [[str(x) for x in row] for row in self.conormal_matrix],
            "conormal_zero": self.conormal_zero,
            "contracting_j": self.contracting_j,
            "contracting_bound": self.contracting_bound,
            "classification": self.classification.to_json(),
            "ci_status": self.classification.verdict,
            "koszul_ghost": self.koszul_ghost,
            "koszul_ghost_reason": self.koszul_ghost_reason,
            "ghost_verdict": self.ghost_verdict,
        }


def ghost_report(phi: RingEndomap, j_max: int | None = None) -> GhostReport:
    """Bundle the decidable ghost data for a validated self-map.

    The conormal level is a necessary condition: a nonzero matrix means
    not ghost.  When it vanishes, complete-intersection presentations
    are decided by the quadratic-lift criterion; anything else stays
    undecided in positive degrees.
    """
    R = phi.source
    matrix, zero = conormal_matrix(phi)
    jbound = j_max if j_max is not None else max(1, R.embdim)
    j = is_contracting(phi, jbound)
    cls = classify(R)
    kg = ci_koszul_ghost(phi)
    if not zero:
        verdict = "not_ghost"
    elif kg.value is True:
        verdict = "ghost"
    elif kg.value is False:
        verdict = "not_ghost"
    else:
        verdict = "undecided"
    return GhostReport(
        R.to_dsl(),
        phi.to_dsl(),
        matrix,
        zero,
        j,
        jbound,
        cls,
        kg.value,
        kg.reason,
        verdict,
    )


@dataclass
class KunzReport:
    ring: str
    power: int
    classification: ClassificationReport
    frobenius_conormal_zero: bool
    tor: homalg.TorTable
    consistent: bool
    pushforward_rank: int

    def to_json(self):
        return {
            "ring": self.ring,
            "power": self.power,
            "classification": self.classification.to_json(),
            "frobenius_conormal_zero": self.frobenius_conormal_zero,
            "tor": self.tor.to_json(),
            "pushforward_rank": self.pushforward_rank,
            "consistent_with_kunz": self.consistent,
        }


def kunz_report(
    R: RingPresentation, e: int = 1, N: int = bounds.FROBENIUS_HOMOLOGICAL
) -> KunzReport:
    """Regularity versus Frobenius Tor-vanishing, at truncation N.

    Consistent means the biconditional holds through the bound: the
    ring is regular exactly when Tor_i(k, pushforward) vanishes for
    1 <= i <= N.
    """
    cls = classify(R)
    F = frobenius_map(R, e)
    _, zero = conormal_matrix(F)
    M = frobenius_pushforward(R, e)
    table = homalg.tor_dims(homalg.residue_field_module(R), M, N)
    totals = table.totals()
    consistent = (cls.verdict == "regular") == all(t == 0 for t in totals[1:])
    return KunzReport(
        R.to_dsl(), e, cls, zero, table, consistent, len(M.gen_degrees)
    )


@dataclass
class TrivializationReport:
    ring: str
    power: int
    stages_bound_satisfied: bool
    required_stages: float
    lhs_totals: list
    rhs_totals: list
    betti_totals: list
    koszul_homology_totals: list
    matches: bool
    flags: list

    def to_json(self):
        return {
            "ring": self.ring,
            "power": self.power,
            "stages_bound_satisfied": self.stages_bound_satisfied,
            "required_stages_exceed": self.required_stages,
            "lhs_totals": self.lhs_totals,
            "rhs_totals": self.rhs_totals,
            "betti_totals": self.betti_totals,
            "koszul_homology_totals": self.koszul_homology_totals,
            "matches": self.matches,
            "flags": self.flags,
        }


def ghost_trivialization_check(
    R: RingPresentation, e: int = 1, N: int = bounds.FROBENIUS_HOMOLOGICAL
) -> TrivializationReport:
    """Compare Tor against the Frobenius-twisted Koszul complex with the
    Betti/Koszul-homology convolution.

    The left side resolves the residue field and tensors with the
    twisted complex; the right side is the convolution of the Betti
    numbers of k with the total homology of the Koszul complex on the
    variables.  The two agree when enough Frobenius stages are composed
    (the report records whether 2^e exceeds the variable count, the
    bound under which the identity is guaranteed).
    """
    K = koszul.koszul_on_maximal_ideal(R)
    TK = frobenius_twist(K, e)
    k_mod = homalg.residue_field_module(R)
    lhs = homalg.tor_dims(k_mod, TK, N)
    res = homalg.minimal_resolution(k_mod, N)
    betti = res.betti.totals()
    h = koszul.koszul_homology_dims(K).totals()
    rhs = []
    for i in range(N + 1):
        acc = 0
        for qd, hq in enumerate(h):
            if 0 <= i - qd <= N:
                acc += betti[i - qd] * hq
        rhs.append(acc)
    lhs_totals = lhs.totals()
    required = log2(R.embdim) if R.embdim else 0.0
    return TrivializationReport(
        R.to_dsl(),
        e,
        2**e > R.embdim,
        required,
        lhs_totals,
        rhs,
        betti,
        h,
        lhs_totals == rhs,
        list(lhs.flags) + list(res.flags),
    )
