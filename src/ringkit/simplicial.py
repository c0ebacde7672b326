"""Truncated free simplicial polynomial algebras and their homotopy.

A simplicial algebra here is free on cells of simplicial degree one
with a prescribed boundary: level n is a polynomial ring over the base
on one generator per cell and per monotone surjection onto the one
simplex (indexed by the jump position t in 0..n-1).  Faces and
degeneracies act by index bookkeeping, falling back to the boundary
rule (d0 evaluates the cell's boundary, d_top kills it) when a
composite stops being surjective.

The simplicial modules studied here are spanned, level by level, by
the monomials whose augmentation order (total exponent in the base
variables and the cells) lies in a window [low, high): [n, oo) is the
n-th power of the augmentation ideal I, and [1, 2) is the conormal
module I/I^2, spanned by the variables and the cells.  One label
scheme, (standard monomial of the base, cell exponents), serves every
window.

Homotopy groups are computed strandwise in internal degree through the
Dold-Kan correspondence.  Two normalization routes are implemented:

* "kernel": term n is literally the intersection of the kernels of
  d_1..d_n, with differential d_0 (the definition);
* "quotient": the quotient of the level by its degenerate part, whose
  monomial basis is the set of labels using every jump index.  The two
  have canonically isomorphic homology, and the consistency of all
  routes (including the unnormalized alternating-sum complex) is part
  of the test suite.

The quotient route is the default: degenerate labels are a subset of
the monomial basis, so the quotient is a coordinate restriction and
scales to levels where kernel intersections are out of reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, groebner, linalg
from .errors import PreconditionError, ValidationError
from .polycore import PolyRing, Polynomial, RingPresentation


@dataclass(frozen=True)
class Cell:
    name: str
    boundary: Polynomial  # in the base ambient ring; may be zero
    internal_degree: int


_BOUNDARY = -1


def _face_slot(n: int, i: int, t: int):
    """Where d_i at level n sends the cell slot with jump index t.

    The composite with d_i stays surjective when the index moves (to
    t-1 for i <= t, else t); otherwise the cell evaluates its boundary
    (d_0 on t = 0: _BOUNDARY) or dies (d_n on t = n-1: None).
    """
    if i <= t:
        return t - 1 if t >= 1 else _BOUNDARY
    return t if t <= n - 2 else None


class TruncatedSimplicialAlgebra:
    """Levels 0..L of a free simplicial polynomial algebra with boundaries."""

    def __init__(self, base: RingPresentation, cells, L: int):
        self.base = base
        self.cells = tuple(cells)
        self.L = L
        self._rings = {}
        self._faces = {}
        self._moves = {}
        self._degens = {}

    # -- level rings ---------------------------------------------------------

    def cell_var_name(self, g: int, t: int) -> str:
        return f"{self.cells[g].name}.{t}"

    def level_ring(self, n: int) -> PolyRing:
        if n not in self._rings:
            names = list(self.base.variables)
            for g in range(len(self.cells)):
                for t in range(n):
                    names.append(self.cell_var_name(g, t))
            self._rings[n] = PolyRing(self.base.field, tuple(names))
        return self._rings[n]

    def embed_base(self, n: int, f: Polynomial) -> Polynomial:
        ring = self.level_ring(n)
        pad = ring.nvars - self.base.embdim
        return Polynomial(
            ring, {m + (0,) * pad: c for m, c in f.terms.items()}
        )

    # -- structure maps on generators ----------------------------------------

    def face_images(self, n: int, i: int):
        """Images of the level-n generators under d_i, in the level n-1 ring."""
        key = (n, i)
        if key not in self._faces:
            if not (1 <= n <= self.L and 0 <= i <= n):
                raise ValidationError(f"no face d_{i} at level {n}")
            tgt = self.level_ring(n - 1)
            images = [tgt.var(k) for k in range(self.base.embdim)]
            for g, cell in enumerate(self.cells):
                for t in range(n):
                    slot = _face_slot(n, i, t)
                    if slot is None:
                        images.append(tgt.zero())
                    elif slot == _BOUNDARY:
                        images.append(self.embed_base(n - 1, cell.boundary))
                    else:
                        images.append(self._cell_var(n - 1, g, slot))
            self._faces[key] = images
        return self._faces[key]

    def face_moves(self, n: int, i: int):
        """_face_slot of d_i over the cell slots g*n + t of level n.

        Entry g*n + t is the slot's position g*(n-1) + t' at level n-1,
        or _BOUNDARY, or None.
        """
        key = (n, i)
        if key not in self._moves:
            moves = []
            for g in range(len(self.cells)):
                for t in range(n):
                    slot = _face_slot(n, i, t)
                    if slot is not None and slot != _BOUNDARY:
                        slot += g * (n - 1)
                    moves.append(slot)
            self._moves[key] = moves
        return self._moves[key]

    def degeneracy_images(self, n: int, i: int):
        """Images of the level-n generators under s_i, in the level n+1 ring."""
        key = (n, i)
        if key not in self._degens:
            if not (0 <= n < self.L and 0 <= i <= n):
                raise ValidationError(f"no degeneracy s_{i} at level {n}")
            tgt = self.level_ring(n + 1)
            images = [tgt.var(k) for k in range(self.base.embdim)]
            for g in range(len(self.cells)):
                for t in range(n):
                    new_t = t + 1 if i <= t else t
                    images.append(self._cell_var(n + 1, g, new_t))
            self._degens[key] = images
        return self._degens[key]

    def _cell_var(self, n: int, g: int, t: int) -> Polynomial:
        ring = self.level_ring(n)
        idx = self.base.embdim + g * n + t
        return ring.var(idx)

    # -- identities ------------------------------------------------------------

    def _equal_mod_base(self, f: Polynomial, g: Polynomial) -> bool:
        diff = f - g
        if diff.is_zero():
            return True
        if not self.base.generators:
            return False
        # group by cell-variable part, reduce the base coefficient
        d = self.base.embdim
        grouped = {}
        for m, c in diff.terms.items():
            base_part, cell_part = m[:d], m[d:]
            grouped.setdefault(cell_part, {})[base_part] = c
        for terms in grouped.values():
            coeff = Polynomial(self.base.ambient, terms)
            if not groebner.nf(self.base, coeff).is_zero():
                return False
        return True

    def _compose(self, first_images, second_images, second_ring):
        return [
            img.substitute(second_images, second_ring) for img in first_images
        ]

    def check_simplicial_identities(self) -> None:
        """Verify the simplicial identities on all generators up to L."""
        L = self.L
        for n in range(2, L + 1):
            ring2 = self.level_ring(n - 2)
            for j in range(0, n + 1):
                dj = self.face_images(n, j)
                for i in range(0, j):
                    lhs = self._compose(dj, self.face_images(n - 1, i), ring2)
                    rhs = self._compose(
                        self.face_images(n, i), self.face_images(n - 1, j - 1), ring2
                    )
                    for a, b in zip(lhs, rhs):
                        if not self._equal_mod_base(a, b):
                            raise ValidationError(
                                f"face identity fails at level {n}: d_{i} d_{j}"
                            )
        for n in range(0, L - 1):
            ring2 = self.level_ring(n + 2)
            for j in range(0, n + 1):
                sj = self.degeneracy_images(n, j)
                for i in range(0, j + 1):
                    lhs = self._compose(
                        sj, self.degeneracy_images(n + 1, i), ring2
                    )
                    rhs = self._compose(
                        self.degeneracy_images(n, i),
                        self.degeneracy_images(n + 1, j + 1),
                        ring2,
                    )
                    for a, b in zip(lhs, rhs):
                        if not self._equal_mod_base(a, b):
                            raise ValidationError(
                                f"degeneracy identity fails at level {n}"
                            )
        for n in range(0, L):
            ring_n = self.level_ring(n)
            ident = [ring_n.var(k) for k in range(ring_n.nvars)]
            for j in range(0, n + 1):
                sj = self.degeneracy_images(n, j)
                for i in range(0, n + 2):
                    lhs = self._compose(sj, self.face_images(n + 1, i), ring_n)
                    if i == j or i == j + 1:
                        rhs = ident
                    elif i < j:
                        rhs = self._compose(
                            self.face_images(n, i),
                            self.degeneracy_images(n - 1, j - 1),
                            ring_n,
                        )
                    else:
                        rhs = self._compose(
                            self.face_images(n, i - 1),
                            self.degeneracy_images(n - 1, j),
                            ring_n,
                        )
                    for a, b in zip(lhs, rhs):
                        if not self._equal_mod_base(a, b):
                            raise ValidationError(
                                f"mixed identity fails at level {n}: d_{i} s_{j}"
                            )


def _fresh_cell_names(base_vars, count):
    names = []
    taken = set(base_vars)
    i = 1
    while len(names) < count:
        cand = f"e{i}"
        while cand in taken:
            cand += "x"
        names.append(cand)
        taken.add(cand)
        i += 1
    return names


def build_with_boundaries(base: RingPresentation, gens, L: int):
    """Free truncated simplicial algebra on degree-1 cells with boundaries.

    Each entry of gens is (name, simplicial_degree, boundary); only
    degree-1 cells are supported, and each boundary must be a
    homogeneous polynomial with zero constant term (or zero) in the
    base's ambient ring.
    """
    if L < 1:
        raise PreconditionError("truncation level must be >= 1")
    cells = []
    seen = set(base.variables)
    for name, degree, boundary in gens:
        if degree != 1:
            raise PreconditionError(
                "only simplicial degree 1 generators are supported"
            )
        if name in seen:
            raise ValidationError(f"cell name {name!r} collides")
        seen.add(name)
        if boundary.ring != base.ambient:
            raise ValidationError("boundary outside the base ambient ring")
        if not boundary.is_homogeneous():
            raise PreconditionError("boundary must be homogeneous")
        if not base.field.is_zero(boundary.constant_term()):
            raise PreconditionError("boundary must have zero constant term")
        internal = boundary.degree() if not boundary.is_zero() else 1
        cells.append(Cell(name, boundary, internal))
    return TruncatedSimplicialAlgebra(base, cells, L)


def simplicial_koszul(R: RingPresentation, sequence, L: int):
    """The simplicial Koszul construction: one cell per sequence entry."""
    names = _fresh_cell_names(R.variables, len(sequence))
    seq = list(sequence)
    for f in seq:
        if f.is_zero() or not f.is_homogeneous():
            raise PreconditionError("Koszul boundaries must be homogeneous")
    return build_with_boundaries(
        R, [(names[i], 1, f) for i, f in enumerate(seq)], L
    )


# ---------------------------------------------------------------------------
# Simplicial modules, strand by strand
#
# A label at level n is (rmono, xi): rmono a standard monomial of the
# base and xi the exponent tuple over cell slots (g major, t minor).
# Its augmentation order is the total exponent, sum(rmono) + sum(xi).


class _LabelIndex(dict):
    """Maps (xi, standard monomial) to the label (standard monomial, xi)."""

    def __missing__(self, key):
        label = self[key] = (key[1], key[0])
        return label


class SimplicialModule:
    """Strandwise model of a simplicial module over the base field.

    Levelwise it is the span of the monomials whose augmentation order
    lies in a window [low, high), with internal degree <= the bound:

    mode ("power", n): the window [n, oo), the n-th power of the
    augmentation ideal inside the levelwise polynomial algebra, n = 0
    giving the whole algebra;

    mode "conormal": the window [1, 2), the augmentation ideal modulo
    its square, spanned by the variables and the cells.

    Faces map into the whole algebra; the chain models keep the part
    inside the window, which for the conormal module drops the I^2 part
    of a boundary.
    """

    def __init__(self, tsa: TruncatedSimplicialAlgebra, mode, degree_bound: int):
        bounds.check(degree=degree_bound)
        if mode == "conormal":
            self.window = (1, 2)
        elif isinstance(mode, tuple) and mode[0] == "power":
            self.window = (mode[1], math.inf)
        else:
            raise ValidationError(f"unknown simplicial module {mode!r}")
        self.tsa = tsa
        self.D = degree_bound
        self._label_of = _LabelIndex()
        self._products = {}

    # -- labels ---------------------------------------------------------------

    def label_degree(self, n, label):
        rmono, xi = label
        d = sum(rmono)
        for g, cell in enumerate(self.tsa.cells):
            for t in range(n):
                d += xi[g * n + t] * cell.internal_degree
        return d

    def labels(self, n: int):
        """All labels at level n in the window, internal degree <= the bound."""
        return self._walk(n, False)

    def covering_labels(self, n: int):
        """The labels at level n that survive the degeneracy quotient.

        A label is degenerate exactly when its jump-index set misses
        some index in 0..n-1, because each degeneracy relabels cell
        generators injectively while skipping one index.
        """
        return self._walk(n, True)

    def _walk(self, n: int, covering: bool):
        """The labels at level n; if covering, only those whose cells use
        every jump index t, that is any(xi[t::n]) in the g-major layout,
        tested once per exponent vector before its standard monomials."""
        low, high = self.window
        slots = []
        for cell in self.tsa.cells:
            slots.extend([cell.internal_degree] * n)
        # depth-first over exponent vectors with their internal degree and
        # order; 'start' keeps it canonical
        xi_list = []
        stack = [([0] * len(slots), 0, 0, 0)]
        while stack:
            prefix, start, used, count = stack.pop()
            if not covering or all(any(prefix[t::n]) for t in range(n)):
                xi_list.append((tuple(prefix), used, count))
            if count + 1 >= high:
                continue
            for s in range(len(slots) - 1, start - 1, -1):
                if used + slots[s] > self.D:
                    continue
                nxt = list(prefix)
                nxt[s] += 1
                stack.append((nxt, s, used + slots[s], count + 1))
        # every prefix reads standard monomials of degree <= min(D, high - 1)
        bases = [
            groebner.quotient_basis(self.tsa.base, d)
            for d in range(min(self.D, high - 1) + 1)
        ]
        labs = []
        for xi, xi_deg, xi_count in xi_list:
            top = min(self.D - xi_deg, high - 1 - xi_count)
            for d in range(max(0, low - xi_count), top + 1):
                for rm in bases[d]:
                    labs.append((rm, xi))
        return labs

    # -- structure maps -------------------------------------------------------

    def _boundary_product(self, powers):
        """The product of the cell boundaries to the given powers, cached."""
        got = self._products.get(powers)
        if got is None:
            got = self.tsa.base.ambient.one()
            for cell, e in zip(self.tsa.cells, powers):
                if e:
                    got = got * cell.boundary**e
            self._products[powers] = got
        return got

    def face_vector(self, n: int, i: int, label):
        """d_i of a label as a {label: coefficient} dict at level n-1."""
        rmono, xi = label
        cells = len(self.tsa.cells)
        moves = self.tsa.face_moves(n, i)
        new_xi = [0] * (cells * (n - 1))
        powers = [0] * cells
        for k, e in enumerate(xi):
            if not e:
                continue
            to = moves[k]
            if to is None:
                return {}
            if to == _BOUNDARY:
                powers[k // n] = e
            else:
                new_xi[to] += e
        new_xi = tuple(new_xi)
        if not any(powers):
            # pure relabelling: a standard monomial stays in normal form
            return {(rmono, new_xi): self.tsa.base.field.one}
        product = self._boundary_product(tuple(powers))
        return groebner.nf_coordinates(
            self.tsa.base, [(new_xi, rmono, product)], self._label_of
        )

    def moore_vector(self, n: int, label):
        """Alternating-sum differential of a label, level n -> n-1."""
        fld = self.tsa.base.field
        zero = fld.zero
        out = {}
        for i in range(0, n + 1):
            op = fld.sub if i % 2 else fld.add
            for lab, c in self.face_vector(n, i, label).items():
                acc = op(out.get(lab, zero), c)
                if fld.is_zero(acc):
                    out.pop(lab, None)
                else:
                    out[lab] = acc
        return out


# ---------------------------------------------------------------------------
# Homology of the three chain models


@dataclass
class NormalizedComplex:
    """Normalization of a truncated simplicial module.

    dims[(n, j)] and mats[(n, j)] describe the strand complex;
    homological degrees >= untrusted_from depend on levels beyond the
    truncation and are not reported.
    """

    dims: dict
    mats: dict  # (n, j) -> list of sparse columns into level n-1
    untrusted_from: int
    field: object

    def homology(self):
        """Entries (i, internal_degree) -> dim, for i < untrusted_from."""
        table = linalg.homology(self.dims, self.mats.items(), self.field)
        return {k: h for k, h in table.items() if k[0] < self.untrusted_from}

    def verify_d_squared(self) -> bool:
        for (n, j), cols in self.mats.items():
            lower = self.mats.get((n - 1, j))
            if not lower:
                continue
            for col in cols:
                if _combine(self.field, [(c, lower[r]) for r, c in col.items()]):
                    return False
        return True


def _combine(fld, pieces):
    """The sparse sum of c * vec over the (c, vec) pieces, zeros dropped."""
    out = {}
    for c, vec in pieces:
        for k, x in vec.items():
            v = fld.add(out.get(k, fld.zero), fld.mul(c, x))
            if fld.is_zero(v):
                out.pop(k, None)
            else:
                out[k] = v
    return out


def normalize(module: SimplicialModule, method: str = "quotient") -> NormalizedComplex:
    """Dold-Kan normalization of a strandwise simplicial module.

    quotient: coordinate restriction to covering labels, differential
    the projected alternating sum (isomorphic to the kernel model).

    kernel: terms are the literal intersections of the kernels of
    d_1..d_n per strand, with differential d_0; feasible for small
    modules and used to cross-check the quotient route.
    """
    if method == "quotient":
        return _moore_complex(module, module.covering_labels)
    if method == "kernel":
        return _normalize_kernel(module)
    raise ValidationError(f"unknown normalization method {method!r}")


def _group_by_key(module, n, labels):
    grouped = {}
    for lab in labels:
        grouped.setdefault(module.label_degree(n, lab), []).append(lab)
    return grouped


def _restrict(vec, tix):
    """The entries of a {label: coefficient} vector on the labels tix indexes."""
    return {tix[lab]: c for lab, c in vec.items() if lab in tix}


def _moore_complex(module: SimplicialModule, labels_of):
    """The alternating-sum complex on the labels labels_of(n) of each level.

    Each column is the Moore differential of a label, restricted to the
    labels of the level below (the coordinate projection of a quotient).
    """
    L = module.tsa.L
    grouped = {n: _group_by_key(module, n, labels_of(n)) for n in range(L + 1)}
    dims = {(n, j): len(labs) for n in grouped for j, labs in grouped[n].items()}
    mats = {}
    for n in range(1, L + 1):
        for j, labs in grouped[n].items():
            tix = {lab: i for i, lab in enumerate(grouped[n - 1].get(j, []))}
            cols = [_restrict(module.moore_vector(n, lab), tix) for lab in labs]
            mats[(n, j)] = cols
    return NormalizedComplex(dims, mats, L, module.tsa.base.field)


def _normalize_kernel(module: SimplicialModule) -> NormalizedComplex:
    """Terms are bases of the kernel intersections, in label coordinates."""
    L = module.tsa.L
    fld = module.tsa.base.field
    grouped = {n: _group_by_key(module, n, module.labels(n)) for n in range(L + 1)}
    bases = {}
    dims = {}
    for n in range(L + 1):
        for j, labs in grouped[n].items():
            # one row block per face d_1..d_n; level 0 has no faces
            tgt = grouped.get(n - 1, {}).get(j, [])
            tix = {lab: i for i, lab in enumerate(tgt)}
            cols = []
            for lab in labs:
                col = {}
                for i in range(1, n + 1):
                    for lab2, c in module.face_vector(n, i, lab).items():
                        col[(i - 1) * len(tgt) + tix[lab2]] = c
                cols.append(col)
            vecs = linalg.nullspace(cols, fld)
            bases[(n, j)] = (labs, vecs)
            dims[(n, j)] = len(vecs)
    mats = {}
    for n in range(1, L + 1):
        for j in grouped[n]:
            labs, vecs = bases[(n, j)]
            tgt_labs, tgt_vecs = bases.get((n - 1, j), ([], []))
            if not tgt_vecs:
                mats[(n, j)] = [{} for _ in vecs]
                continue
            tix = {lab: i for i, lab in enumerate(tgt_labs)}
            # d_0 of each label inside the window, then of each kernel
            # vector in the target kernel basis
            d0 = [_restrict(module.face_vector(n, 0, lab), tix) for lab in labs]
            images = [_combine(fld, [(c, d0[k]) for k, c in v.items()]) for v in vecs]
            mats[(n, j)] = [_express(tgt_vecs, img, fld) for img in images]
    return NormalizedComplex(dims, mats, L, fld)


def _express(basis, target, fld):
    """Coordinates {i: c} with sum c_i basis_i = target, all sparse.

    basis is a nullspace basis: vector i is 1 at its free column, its
    largest index, and 0 at the free columns of the others, so c_i is
    the target's entry there.  The target is known to lie in the span;
    that is checked exactly.
    """
    coeffs = {i: target[max(v)] for i, v in enumerate(basis) if max(v) in target}
    pieces = [(fld.neg(c), basis[i]) for i, c in coeffs.items()]
    if _combine(fld, [(fld.one, target)] + pieces):
        raise ValidationError("vector outside the expected span")
    return coeffs


def unnormalized_homology(module: SimplicialModule, i_max: int):
    """Homology of the alternating-sum complex on full label bases."""
    if i_max >= module.tsa.L:
        raise PreconditionError("homotopy beyond the truncation level")
    table = _moore_complex(module, module.labels).homology()
    return {k: v for k, v in table.items() if k[0] <= i_max}


# ---------------------------------------------------------------------------
# Public operations


def homotopy_groups(module: SimplicialModule, i_max: int):
    """Strand dimensions of pi_i for i <= i_max (< truncation level)."""
    if i_max >= module.tsa.L:
        raise PreconditionError("homotopy beyond the truncation level")
    table = normalize(module, "quotient").homology()
    return {k: v for k, v in table.items() if k[0] <= i_max}


def connectedness_defect(tsa: TruncatedSimplicialAlgebra, degree_bound: int):
    """Strands of pi_0 of the augmentation ideal; empty means connected."""
    module = SimplicialModule(tsa, ("power", 1), degree_bound)
    return homotopy_groups(module, 0)


def ideal_power_homotopy(
    tsa: TruncatedSimplicialAlgebra, power: int, i_max: int, degree_bound: int
):
    """pi_i of the power of the augmentation ideal, strandwise.

    Requires a connected algebra: the vanishing statement this feeds
    is used with a connectedness hypothesis, and the disconnected case
    genuinely fails it, so disconnected input is rejected rather than
    reported.
    """
    if power < 1:
        raise PreconditionError("ideal power must be >= 1")
    if i_max >= tsa.L:
        raise PreconditionError("homotopy beyond the truncation level")
    defect = connectedness_defect(tsa, degree_bound)
    if defect:
        strand = sorted(defect)[0]
        raise PreconditionError(
            "algebra is not connected (pi_0 of the augmentation ideal is "
            f"nonzero in internal degree {strand[1]}); the power-vanishing "
            "statement requires connectedness"
        )
    module = SimplicialModule(tsa, ("power", power), degree_bound)
    return homotopy_groups(module, i_max)


@dataclass
class AQResult:
    dims: list  # dims[i] = total dim of degree-i homology, i <= L-2
    strands: dict  # (i, internal degree) -> dim
    levels: int
    degree_bound: int
    ring: str
    flags: list

    def to_json(self):
        return {
            "ring": self.ring,
            "aq_dims": list(self.dims),
            "strands": sorted([i, j, d] for (i, j), d in self.strands.items()),
            "truncation": {
                "L": self.levels,
                "D": self.degree_bound,
                "flags": list(self.flags),
            },
        }


def aq_dims(R: RingPresentation, L: int = bounds.AQ_LEVELS, D=None) -> AQResult:
    """André-Quillen homology dimensions of a complete intersection.

    Builds the free simplicial replacement of the presentation (one
    cell per generator of a minimal generating subset, kept in ascending
    degree, with the generator as boundary), takes the
    conormal module of the augmentation ideal over the field, and
    normalizes.  Non complete intersections are rejected: without a
    regular sequence the replacement built from the generators alone is
    not a resolution, so its homology would not compute anything.
    """
    D = bounds.aq_degree(D)
    codim = R.embdim - groebner.krull_dim(R)
    ambient = RingPresentation(R.field, R.variables, (), R.order_kind)
    gens = []
    for g in sorted(R.generators, key=lambda g: g.degree()):
        if groebner.is_minimal_generating_set(ambient, gens + [g]):
            gens.append(g)
    if len(gens) != codim:
        raise PreconditionError(
            "presentation is not a complete intersection (minimal generator "
            f"count {len(gens)} differs from codimension {codim}); "
            "the cell-per-generator replacement is only a resolution for "
            "regular sequences"
        )
    names = _fresh_cell_names(R.variables, len(gens))
    tsa = build_with_boundaries(
        ambient,
        [(names[i], 1, g) for i, g in enumerate(gens)],
        L,
    )
    module = SimplicialModule(tsa, "conormal", D)
    table = normalize(module, "quotient").homology()
    dims = []
    for i in range(0, L - 1):
        dims.append(sum(d for (h, _), d in table.items() if h == i))
    strands = {k: v for k, v in table.items() if k[0] <= L - 2}
    certified = bounds.aq_certified(R)
    flags = [f"degree-bound-below-certified:{certified}"] if D < certified else []
    return AQResult(dims, strands, L, D, R.to_dsl(), flags)
