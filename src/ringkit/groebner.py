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
from heapq import heapify, heappop, heappush
from operator import neg

from . import linalg
from .errors import PreconditionError, ValidationError
from .polycore import (
    Polynomial,
    PolyRing,
    RingPresentation,
    deglex_key,
    degrevlex_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
    monomials_of_degree,
)

_ORDER_KEYS = {"degrevlex": degrevlex_key, "deglex": deglex_key}
# min-heap keys: ascending here is descending in the order key
_HEAP_KEYS = {
    "degrevlex": lambda m: (-sum(m), m[::-1]),
    "deglex": lambda m: (-sum(m), tuple(map(neg, m))),
}


@dataclass(frozen=True)
class MonomialOrder:
    """A graded monomial order: degrevlex or deglex."""

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in _ORDER_KEYS:
            raise ValidationError(f"unknown monomial order {self.kind!r}")

    @property
    def key(self):
        """Sort key function; a larger key means a larger monomial."""
        return _ORDER_KEYS[self.kind]


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")


def leading_monomial(f: Polynomial, order: MonomialOrder):
    if f.is_zero():
        return None
    return max(f.terms, key=order.key)


def monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.is_zero():
        return f
    return f.scale(f.ring.field.inv(f.terms[leading_monomial(f, order)]))


def normal_form(f: Polynomial, basis, order: MonomialOrder, lms=None) -> Polynomial:
    """Remainder of f under full multivariate division by basis.

    The largest remaining term is cancelled by the first basis element
    whose leading monomial (from lms, when given) divides it, or moved
    to the remainder.  Terms wait in a heap, keyed once on entry, so the
    steps and the remainder are those of a max over the terms; a term
    that cancels leaves a stale entry, skipped when it reaches the top.
    """
    fld = f.ring.field
    hkey = _HEAP_KEYS[order.kind]
    if lms is None:
        lms = [leading_monomial(g, order) for g in basis]
    divisors = [(lm, g) for lm, g in zip(lms, basis) if lm is not None]
    remainder = {}
    work = dict(f.terms)
    heap = [(hkey(m), m) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # the term cancelled after it was pushed
        for lm, g in divisors:
            if mono_divides(lm, m):
                factor = mono_quot(m, lm)
                scale = fld.div(c, g.terms[lm])
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, factor)
                    if t not in work:
                        heappush(heap, (hkey(t), t))
                    s = fld.sub(work.get(t, fld.zero), fld.mul(scale, gc))
                    if fld.is_zero(s):
                        work.pop(t, None)
                    else:
                        work[t] = s
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


def s_polynomial(
    f: Polynomial, g: Polynomial, order: MonomialOrder, lmf=None, lmg=None
) -> Polynomial:
    """The S-polynomial of f and g; lmf and lmg are their leading
    monomials, found here when not given."""
    ring = f.ring
    lmf = leading_monomial(f, order) if lmf is None else lmf
    lmg = leading_monomial(g, order) if lmg is None else lmg
    lcm = mono_lcm(lmf, lmg)
    mf = ring.monomial(mono_quot(lcm, lmf), ring.field.inv(f.terms[lmf]))
    mg = ring.monomial(mono_quot(lcm, lmg), ring.field.inv(g.terms[lmg]))
    return mf * f - mg * g


def _autoreduce(basis, lms, order: MonomialOrder):
    """The reduced basis of a monic Groebner basis with leading monomials lms.

    Scanned smallest first, a leading monomial divisible by a kept one is
    dropped; a later one cannot divide it, as a divisor is never larger.
    Tail reduction leaves each kept leading term in place, so the output
    is monic and sorted by leading monomial, smallest first.
    """
    minimal = []
    for i in sorted(range(len(basis)), key=lambda k: order.key(lms[k])):
        if not any(mono_divides(lms[j], lms[i]) for j in minimal):
            minimal.append(i)
    kept = [basis[i] for i in minimal]
    klms = [lms[i] for i in minimal]
    return [
        normal_form(g, kept[:n] + kept[n + 1 :], order, klms[:n] + klms[n + 1 :])
        for n, g in enumerate(kept)
    ]


def buchberger(gens, order: MonomialOrder = DEGREVLEX):
    """Reduced Groebner basis of the ideal generated by gens.

    Classical Buchberger with the coprime-leading-term criterion and the
    chain criterion; the reduced output makes the computation idempotent.
    Pairs wait in a heap keyed by (order key of their lcm, pair), pushed
    once when their later element enters the basis.  Every reduction is
    passed the leading monomials kept beside the basis.
    """
    basis, lms, pairs = [], [], []

    def enter(g):
        """Add g, made monic, to the basis; its leading monomial is found once."""
        k, lm = len(basis), leading_monomial(g, order)
        for i in range(k):
            heappush(pairs, (order.key(mono_lcm(lms[i], lm)), (i, k)))
        basis.append(g.scale(g.ring.field.inv(g.terms[lm])))
        lms.append(lm)

    for g in gens:
        if not g.is_zero():
            enter(g)
    done = set()
    while pairs:
        _, (i, j) = heappop(pairs)
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
        s = s_polynomial(basis[i], basis[j], order, lms[i], lms[j])
        r = normal_form(s, basis, order, lms)
        if not r.is_zero():
            enter(r)
    return _autoreduce(basis, lms, order)


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    polys: tuple
    order: MonomialOrder
    lms: tuple


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
            polys = tuple(buchberger(self.gens, self.order))
            lms = tuple(leading_monomial(g, self.order) for g in polys)
            self._gb = GroebnerBasis(self.ring, polys, self.order, lms)
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        gb = self.groebner
        return normal_form(f, gb.polys, self.order, gb.lms)


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


def nf_coordinates(R: RingPresentation, parts, index):
    """Sparse coordinates of the normal form of a sum of products.

    parts holds (position t, standard monomial b, polynomial p); each
    adds monomial(b) * p placed at t, and index maps (t, standard
    monomial) to a coordinate.  The normal form is linear, so each
    product is summed from the cached normal forms of the monomials b*m
    over the terms c*m of p; terms that land on one coordinate are added
    and those that cancel are dropped.
    """
    fld = R.field
    out = {}
    for t, b, p in parts:
        for m, c in p.terms.items():
            for m2, c2 in nf_monomial(R, mono_mul(b, m)).terms.items():
                k = index[(t, m2)]
                v = fld.mul(c, c2)
                if k in out:
                    v = fld.add(out[k], v)
                    if fld.is_zero(v):
                        del out[k]
                        continue
                out[k] = v
    return out


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
        order = ring_ideal(R).order
        lms = ring_groebner(R).lms
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
    lms = ring_groebner(R).lms
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

    The count of the generators inside the ambient polynomial ring,
    cached on the presentation.
    """
    key = ("mu", R.order_kind)
    if key not in R._cache:
        ambient = RingPresentation(R.field, R.variables, (), R.order_kind)
        R._cache[key] = minimal_generator_count_in(ambient, R.generators)
    return R._cache[key]


def minimal_generator_count_in(R: RingPresentation, gens) -> int:
    """dim_k J/mJ for the ideal J of R generated by the given elements.

    Computed degreewise modulo the presentation ideal: in each degree,
    the rank of the span of all standard-monomial multiples of the
    generators minus the rank of the span of the proper multiples, in
    normal-form coordinates.
    """
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous():
            raise ValidationError("minimal generator count needs homogeneous input")
    fld = R.field
    total = 0
    for d in sorted({g.degree() for g in gens}):
        index = {(0, m): i for i, m in enumerate(quotient_basis(R, d))}
        full = linalg.SpanReducer(fld)
        proper = linalg.SpanReducer(fld)
        for g in gens:
            gd = g.degree()
            if gd > d:
                continue
            for b in quotient_basis(R, d - gd):
                vec = nf_coordinates(R, [(0, b, g)], index)
                full.add(vec)
                if d - gd >= 1:
                    proper.add(vec)
        total += full.rank - proper.rank
    return total


def is_minimal_generating_set(R: RingPresentation, gens) -> bool:
    """Do the given elements minimally generate the ideal they span in R?"""
    gens = [g for g in gens if not g.is_zero()]
    return minimal_generator_count_in(R, gens) == len(gens)
