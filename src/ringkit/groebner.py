"""Buchberger's algorithm, normal forms, and ideal-level queries.

This is the decision kernel for every membership-style criterion in the
toolkit: quadratic-lift tests for self-maps, quotient-ring vector-space
bases per degree, and Krull dimension via independent variable sets of
the leading-term ideal.

Only graded orders (degrevlex, deglex) are supported; all inputs are
homogeneous, and graded orders keep degree-truncated reasoning sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import PreconditionError, ValidationError
from .polycore import (
    Polynomial,
    PolyRing,
    RingPresentation,
    mono_deg,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
    monomials_of_degree,
)


@dataclass(frozen=True)
class MonomialOrder:
    """A graded monomial order with a variable priority permutation."""

    kind: str = "degrevlex"  # "degrevlex" | "deglex"
    priority: tuple = ()  # permutation of variable indices, most significant first

    def __post_init__(self):
        if self.kind not in ("degrevlex", "deglex"):
            raise ValidationError(f"unknown monomial order {self.kind!r}")

    def key(self, m):
        """Sort key; larger key means larger monomial."""
        prio = self.priority if self.priority else tuple(range(len(m)))
        pm = [m[i] for i in prio]
        if self.kind == "deglex":
            return (sum(m), tuple(pm))
        return (sum(m), tuple(-e for e in reversed(pm)))


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")


def order_for(ring_or_kind) -> MonomialOrder:
    if isinstance(ring_or_kind, MonomialOrder):
        return ring_or_kind
    if isinstance(ring_or_kind, RingPresentation):
        return MonomialOrder(ring_or_kind.order_kind)
    return MonomialOrder(str(ring_or_kind))


def leading_monomial(f: Polynomial, order: MonomialOrder):
    if f.is_zero():
        return None
    return max(f.terms, key=order.key)


def leading_coefficient(f: Polynomial, order: MonomialOrder):
    return f.terms[leading_monomial(f, order)]


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.is_zero():
        return f
    return f.scale(f.ring.field.inv(leading_coefficient(f, order)))


def normal_form(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Remainder of f under full multivariate division by basis."""
    ring = f.ring
    fld = ring.field
    lms = [(leading_monomial(g, order), g) for g in basis if not g.is_zero()]
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
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    ring = f.ring
    lmf, lmg = leading_monomial(f, order), leading_monomial(g, order)
    lcm = mono_lcm(lmf, lmg)
    mf = ring.monomial(mono_quot(lcm, lmf), ring.field.inv(f.terms[lmf]))
    mg = ring.monomial(mono_quot(lcm, lmg), ring.field.inv(g.terms[lmg]))
    return mf * f - mg * g


def _autoreduce(basis, order: MonomialOrder):
    basis = [monic(g, order) for g in basis if not g.is_zero()]
    # drop generators whose leading monomial is divisible by another's
    basis.sort(key=lambda g: order.key(leading_monomial(g, order)))
    minimal = []
    for g in basis:
        lm = leading_monomial(g, order)
        if not any(
            mono_divides(leading_monomial(h, order), lm) for h in minimal
        ):
            minimal.append(g)
    # reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(monic(normal_form(g, others, order), order))
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return reduced


def buchberger(gens, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the ideal generated by gens.

    Classical Buchberger with the coprime-leading-term criterion and the
    chain criterion; the reduced output makes the computation idempotent.
    """
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return []
    lms = [leading_monomial(g, order) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done = set()
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (
                order.key(mono_lcm(lms[p[0]], lms[p[1]])),
                p,
            ),
        )
        pairs.remove((i, j))
        done.add((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                chain = True
                break
        if chain:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if not r.is_zero():
            r = monic(r, order)
            k = len(basis)
            basis.append(r)
            lms.append(leading_monomial(r, order))
            pairs.update((m, k) for m in range(k))
    return _autoreduce(basis, order)


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    polys: tuple
    order: MonomialOrder

    def leading_monomials(self):
        return [leading_monomial(g, self.order) for g in self.polys]


class IdealHandle:
    """Generators of an ideal with a lazily computed Groebner basis.

    The basis cache is populate-once; recomputation would return the
    identical reduced basis by determinism of the algorithm.
    """

    def __init__(self, ring: PolyRing, gens, order: MonomialOrder = DEGREVLEX):
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if g.ring != ring:
                raise ValidationError("ideal generator outside the ambient ring")
        self.ring = ring
        self.gens = tuple(gens)
        self.order = order
        self._gb = None

    @property
    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = GroebnerBasis(
                self.ring, tuple(buchberger(self.gens, self.order)), self.order
            )
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.groebner.polys, self.order)


def member(f: Polynomial, ideal: IdealHandle) -> bool:
    """Ideal membership: true iff the normal form of f vanishes."""
    if f.ring != ideal.ring:
        raise ValidationError("membership query outside the ambient ring")
    return ideal.normal_form(f).is_zero()


def ideal_sum(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise ValidationError("ideal sum across different rings")
    return IdealHandle(I.ring, list(I.gens) + list(J.gens), I.order)


def ideal_product(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise ValidationError("ideal product across different rings")
    gens = [f * g for f in I.gens for g in J.gens]
    return IdealHandle(I.ring, gens, I.order)


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    if n < 1:
        raise PreconditionError("ideal power requires n >= 1")
    result = I
    for _ in range(n - 1):
        result = ideal_product(result, I)
    return result


def ideals_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """Equality by double inclusion of the generators."""
    return all(member(g, J) for g in I.gens) and all(member(g, I) for g in J.gens)


# ---------------------------------------------------------------------------
# Presented-ring level queries (cached on the presentation).


def ring_ideal(R: RingPresentation) -> IdealHandle:
    key = ("ideal", R.order_kind)
    if key not in R._cache:
        R._cache[key] = IdealHandle(
            R.ambient, R.generators, MonomialOrder(R.order_kind)
        )
    return R._cache[key]


def ring_groebner(R: RingPresentation) -> GroebnerBasis:
    return ring_ideal(R).groebner


def nf(R: RingPresentation, f: Polynomial) -> Polynomial:
    """Normal form of f modulo the presentation ideal."""
    return ring_ideal(R).normal_form(f)


def nf_monomial(R: RingPresentation, m) -> Polynomial:
    cache = R._cache.setdefault(("nfmono", R.order_kind), {})
    got = cache.get(m)
    if got is None:
        got = nf(R, R.ambient.monomial(m))
        cache[m] = got
    return got


def quotient_basis(R: RingPresentation, degree: int):
    """Standard monomials of the given degree: the k-basis of R_degree.

    Monomials of the degree not divisible by any leading monomial of the
    presentation ideal's Groebner basis, largest first.  They form an
    order ideal, so the candidates of degree d are the variable multiples
    of the standard monomials of degree d-1; every lower degree is
    cached on the way.
    """
    if degree < 0:
        return []
    cache = R._cache.setdefault(("qbasis", R.order_kind), {})
    if degree not in cache:
        order = MonomialOrder(R.order_kind)
        lms = ring_groebner(R).leading_monomials()
        units = list(monomials_of_degree(R.embdim, 1))
        start = degree
        while start > 0 and start - 1 not in cache:
            start -= 1
        for d in range(start, degree + 1):
            if d == 0:
                candidates = monomials_of_degree(R.embdim, 0)
            else:
                candidates = {mono_mul(m, e) for m in cache[d - 1] for e in units}
            basis = [
                m for m in candidates if not any(mono_divides(lm, m) for lm in lms)
            ]
            basis.sort(key=order.key, reverse=True)
            cache[d] = basis
    return cache[degree]


def krull_dim(R: RingPresentation) -> int:
    """Krull dimension via independent sets of the leading-term ideal.

    A variable subset S is independent when no leading monomial of the
    Groebner basis has support inside S; the dimension is the largest
    such S.  Correct because the quotient shares its Hilbert function
    with the leading-term quotient.
    """
    key = ("dim", R.order_kind)
    if key in R._cache:
        return R._cache[key]
    lms = ring_groebner(R).leading_monomials()
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    n = R.embdim
    best = 0
    for mask in range(2**n):
        size = mask.bit_count()
        if size <= best:
            continue
        subset = {i for i in range(n) if mask >> i & 1}
        if all(not s <= subset for s in supports):
            best = size
    R._cache[key] = best
    return best


def minimal_generator_count(R: RingPresentation) -> int:
    """dim_k I/mI, the number of minimal generators of the ideal.

    Computed degreewise in the ambient ring: in each degree, the rank of
    the span of all monomial multiples of the generators minus the rank
    of the span of the proper multiples.
    """
    key = ("mu", R.order_kind)
    if key in R._cache:
        return R._cache[key]
    gens = R.generators
    if not gens:
        R._cache[key] = 0
        return 0
    ambient = R.ambient
    fld = R.field
    total = 0
    for d in sorted({g.degree() for g in gens}):
        index = {m: i for i, m in enumerate(monomials_of_degree(R.embdim, d))}
        full = linalg.SpanReducer(fld)
        proper = linalg.SpanReducer(fld)
        for g in gens:
            gd = g.degree()
            if gd > d:
                continue
            for b in monomials_of_degree(R.embdim, d - gd):
                p = ambient.monomial(b) * g
                vec = {index[m]: c for m, c in p.terms.items()}
                full.add(vec)
                if d - gd >= 1:
                    proper.add(vec)
        total += full.rank - proper.rank
    R._cache[key] = total
    return total


def minimal_generator_count_in(R: RingPresentation, gens) -> int:
    """dim_k J/mJ for the ideal J of R generated by the given elements.

    Works modulo the presentation ideal: spans are taken in normal-form
    coordinates over the standard monomials of each degree.
    """
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous():
            raise ValidationError("minimal generator count needs homogeneous input")
    fld = R.field
    total = 0
    for d in sorted({g.degree() for g in gens}):
        index = {m: i for i, m in enumerate(quotient_basis(R, d))}
        full = linalg.SpanReducer(fld)
        proper = linalg.SpanReducer(fld)
        for g in gens:
            gd = g.degree()
            if gd > d:
                continue
            for b in quotient_basis(R, d - gd):
                p = nf(R, R.ambient.monomial(b) * g)
                vec = {index[m]: c for m, c in p.terms.items()}
                full.add(vec)
                if d - gd >= 1:
                    proper.add(vec)
        total += full.rank - proper.rank
    return total


def is_minimal_generating_set(R: RingPresentation, gens) -> bool:
    """Do the given elements minimally generate the ideal they span in R?"""
    gens = [g for g in gens if not g.is_zero()]
    return minimal_generator_count_in(R, gens) == len(gens)
