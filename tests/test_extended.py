"""Cases outside the bundled corpus: two-generator complete
intersections, mixed-height ideals, non-monomial data (which drives the
total-degree strand fallback in the simplicial layer), and higher
Frobenius powers."""

import random

import pytest

from oracles import oracle_nullspace, oracle_rank, oracle_rref, span_contains
from ringkit import parse_ring
from ringkit import ghost, homalg, koszul, simplicial
from ringkit.errors import ValidationError
from ringkit.groebner import DEGREVLEX, IdealHandle, normal_form
from ringkit.linalg import SpanReducer, homology, nullspace, rank, rref, sparse_rank
from ringkit.polycore import PolyRing, PrimeField, QQ


def test_two_quadric_artinian_complete_intersection():
    R = parse_ring("QQ[x,y]/(x^2,y^2)")
    cls = ghost.classify(R)
    assert (cls.verdict, cls.embdim, cls.dim, cls.num_min_gens) == (
        "complete_intersection",
        2,
        0,
        2,
    )
    res = homalg.minimal_resolution(homalg.residue_field_module(R), 4)
    assert res.betti.totals() == [1, 2, 3, 4, 5]
    table = koszul.koszul_homology_dims(koszul.koszul_on_maximal_ideal(R))
    assert table.totals() == [1, 2, 1]
    assert simplicial.aq_dims(R, 4, 10).dims == [2, 2, 0]


def test_mixed_height_ideal_is_not_a_complete_intersection():
    # (x*y, y*z) has a height-one component, so two generators do not
    # make it a complete intersection
    cls = ghost.classify(parse_ring("QQ[x,y,z]/(x*y,y*z)"))
    assert (cls.verdict, cls.embdim, cls.dim, cls.num_min_gens) == (
        "other",
        3,
        2,
        2,
    )


def test_non_monomial_hypersurface():
    R = parse_ring("QQ[x,y]/(x^2+y^2)")
    cls = ghost.classify(R)
    assert cls.verdict == "complete_intersection"
    assert simplicial.aq_dims(R, 4, 10).dims == [2, 1, 0]
    res = homalg.minimal_resolution(homalg.residue_field_module(R), 4)
    assert res.betti.totals() == [1, 2, 2, 2, 2]


def test_simplicial_koszul_on_non_monomial_element():
    # x+y is regular on the coordinate axes; the strand grading falls
    # back to total degree and still matches the classical complex
    R = parse_ring("QQ[x,y]/(x*y)")
    f = R.ambient.var(0) + R.ambient.var(1)
    tsa = simplicial.simplicial_koszul(R, [f], 3)
    module = simplicial.SimplicialModule(tsa, ("power", 0), 8)
    assert not module.multigraded
    simp = simplicial.normalize(module, "quotient").homology()
    classical = {
        (i, j): d
        for (i, j), d in homalg.homology_dims(
            koszul.koszul(R, [f]).complex, 8
        ).entries.items()
        if i < 3
    }
    assert simp == classical
    assert classical == {(0, 0): 1, (0, 1): 1}


def test_trivialization_identity_on_two_quadric_ci():
    # convolution of Betti numbers (1,2,3,4,5) with Koszul homology
    # (1,2,1); equality holds at e=1 already and is guaranteed at e=2,
    # where two Frobenius stages exceed the log of the variable count
    R = parse_ring("F2[x,y]/(x^2,y^2)")
    rep = ghost.ghost_trivialization_check(R, 1, 4)
    assert rep.lhs_totals == rep.rhs_totals == [1, 4, 8, 12, 16]
    assert not rep.stages_bound_satisfied
    rep2 = ghost.ghost_trivialization_check(R, 2, 4)
    assert rep2.matches and rep2.stages_bound_satisfied
    assert rep2.lhs_totals == [1, 4, 8, 12, 16]


def test_second_frobenius_power():
    R = parse_ring("F2[x]/(x^2)")
    M = ghost.frobenius_pushforward(R, 2)
    assert M.scale == 4
    assert len(M.gen_degrees) == 4
    assert homalg.minimize_presentation(M).gen_degrees == (0, 1)
    tor = homalg.tor_dims(homalg.residue_field_module(R), M, 6)
    assert tor.totals() == [2] * 7
    assert ghost.kunz_report(R, 2, 6).consistent


# ---------------------------------------------------------------------------
# hardening: linear algebra and validation layers


def test_normal_form_is_k_linear():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.var(0), ring.var(1)
    basis = [x * x, x * y + y * y]
    rng = random.Random(31)
    from test_polycore import random_poly

    for _ in range(40):
        f, g = random_poly(ring, rng), random_poly(ring, rng)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = f.scale(a) + g.scale(b)
        nf = normal_form(combo, basis, DEGREVLEX)
        expected = normal_form(f, basis, DEGREVLEX).scale(a) + normal_form(
            g, basis, DEGREVLEX
        ).scale(b)
        assert nf == expected


# QQ, F2 and F5 keep their old parameter ids; F3 joins as field3
ENGINE_FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(3)]


def random_sparse_matrix(field, rng):
    """A random matrix up to 10x10, about a third nonzero.

    Returns (dense rows, sparse columns).
    """
    nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
    dense = [
        [
            field.normalize(rng.randint(-3, 3)) if rng.random() < 0.35 else field.zero
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    cols = [
        {i: row[j] for i, row in enumerate(dense) if not field.is_zero(row[j])}
        for j in range(ncols)
    ]
    return dense, cols


def densify(vec, size, field):
    out = [field.zero] * size
    for k, c in vec.items():
        out[k] = c
    return out


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_sparse_rank_matches_dense_rank(field):
    rng = random.Random(field.characteristic + 17)
    for _ in range(40):
        dense, cols = random_sparse_matrix(field, rng)
        expected = oracle_rank(dense, field)
        assert sparse_rank(cols, field) == expected
        assert rank(dense, field) == expected
        assert rref(dense, field) == oracle_rref(dense, field)


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_nullspace_vectors_are_in_the_kernel(field):
    rng = random.Random(field.characteristic + 23)
    for _ in range(40):
        dense, cols = random_sparse_matrix(field, rng)
        ncols = len(cols)
        kern = nullspace(cols, field)
        # the reduced-echelon basis, entry for entry and in free-column order
        assert [densify(v, ncols, field) for v in kern] == oracle_nullspace(
            dense, field, ncols
        )
        for v in kern:
            assert all(not field.is_zero(c) for c in v.values())
            for row in dense:
                acc = field.zero
                for k, c in v.items():
                    acc = field.add(acc, field.mul(row[k], c))
                assert field.is_zero(acc)


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_span_reducer_against_rank(field):
    rng = random.Random(field.characteristic + 5)
    for _ in range(40):
        vecs, _ = random_sparse_matrix(field, rng)
        size = len(vecs[0])
        reducer = SpanReducer(field)
        for v in vecs:
            reducer.add({k: c for k, c in enumerate(v) if not field.is_zero(c)})
        assert reducer.rank == oracle_rank(vecs, field)
        pivots = oracle_rref(vecs, field)[1]
        assert sorted(reducer.rows) == pivots
        for v in vecs:
            assert reducer.contains(dict(enumerate(v)))
        for _ in range(5):
            w = {
                k: field.normalize(rng.randint(1, 4))
                for k in range(size)
                if rng.random() < 0.4
            }
            w = {k: c for k, c in w.items() if not field.is_zero(c)}
            before = dict(w)
            red = reducer.reduce(w)
            assert w == before
            assert not set(red) & set(pivots)
            assert all(not field.is_zero(c) for c in red.values())
            diff = [
                field.sub(a, b)
                for a, b in zip(densify(w, size, field), densify(red, size, field))
            ]
            assert span_contains(vecs, diff, field)
            assert reducer.contains(w) == span_contains(
                vecs, densify(w, size, field), field
            )


def random_complex(field, rng, length):
    """Term sizes and dense differentials d_1..d_length of a random complex.

    d_1 is random; each later d_{n+1} has columns that are random
    combinations of the oracle's nullspace basis of d_n, so that
    d_n d_{n+1} = 0.
    """
    d1, _ = random_sparse_matrix(field, rng)
    sizes, mats = [len(d1), len(d1[0])], [d1]
    for _ in range(length - 1):
        kernel = oracle_nullspace(mats[-1], field, sizes[-1])
        cols = []
        for _ in range(rng.randint(0, 6)):
            col = [field.zero] * sizes[-1]
            for v in kernel:
                if rng.random() < 0.5:
                    c = field.normalize(rng.randint(-2, 2))
                    col = [field.add(a, field.mul(c, b)) for a, b in zip(col, v)]
            cols.append(col)
        mats.append([[col[r] for col in cols] for r in range(sizes[-1])])
        sizes.append(len(cols))
    return sizes, mats


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_homology_matches_oracle_ranks(field):
    rng = random.Random(field.characteristic + 41)
    for _ in range(20):
        dims, strands, expected = {}, [], {}
        for key in range(3):
            sizes, mats = random_complex(field, rng, 3)
            # rank d_n for n = 0..len(mats)+1; the ends have no map
            ranks = [0] + [oracle_rank(m, field) for m in mats] + [0]
            for n, size in enumerate(sizes):
                dims[(n, key)] = size
                if size - ranks[n] - ranks[n + 1]:
                    expected[(n, key)] = size - ranks[n] - ranks[n + 1]
            for n, m in enumerate(mats, start=1):
                cols = [
                    {r: row[j] for r, row in enumerate(m) if not field.is_zero(row[j])}
                    for j in range(sizes[n])
                ]
                strands.append(((n, key), cols))
        got = homology(dims, iter(strands), field)
        assert got == expected
        assert all(h > 0 for h in got.values())
        for key in range(3):
            euler = sum((-1) ** n * h for (n, k), h in got.items() if k == key)
            assert euler == sum((-1) ** n * d for (n, k), d in dims.items() if k == key)


def test_graded_map_validation_rejects_bad_degrees():
    R = parse_ring("QQ[x,y]")
    from ringkit.homalg import GradedFreeModule, GradedModuleMap

    src = GradedFreeModule(R, (1,))
    tgt = GradedFreeModule(R, (0,))
    x = R.ambient.var(0)
    GradedModuleMap(src, tgt, [{0: x}])  # degree 1 entry: fine
    with pytest.raises(ValidationError):
        GradedModuleMap(src, tgt, [{0: x * x}])  # wrong degree
    with pytest.raises(ValidationError):
        GradedModuleMap(src, tgt, [{0: x + x * x}])  # inhomogeneous


def test_presented_module_validation():
    R = parse_ring("QQ[x,y]")
    amb = R.ambient
    with pytest.raises(ValidationError):
        # index outside the target rank
        homalg.PresentedModule(R, (0, 0), [{2: amb.var(0)}])
    with pytest.raises(ValidationError):
        # column mixes degrees 1 and 2
        homalg.PresentedModule(
            R, (0, 0), [{0: amb.var(0), 1: amb.var(0) * amb.var(1)}]
        )
    # zero entries and then zero columns are pruned
    M = homalg.PresentedModule(R, (0,), [{0: amb.zero()}])
    assert M.relations == ()


def test_ideal_handle_cache_is_populate_once():
    R = parse_ring("QQ[x,y]/(x*y)")
    handle = IdealHandle(R.ambient, R.generators)
    first = handle.groebner
    assert handle.groebner is first
