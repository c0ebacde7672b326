import pytest
from hypothesis import given, settings, strategies as st
from oracles import oracle_covering, small_rings

from ringkit import groebner, parse_ring
from ringkit.errors import PreconditionError
from ringkit.homalg import homology_dims
from ringkit.koszul import koszul
from ringkit.polycore import QQ, Polynomial, RingPresentation, monomials_of_degree
from ringkit.simplicial import (
    SimplicialModule,
    aq_dims,
    build_with_boundaries,
    connectedness_defect,
    ideal_power_homotopy,
    homotopy_groups,
    normalize,
    simplicial_koszul,
    unnormalized_homology,
)

CI_CORPUS = [
    "F2[x]/(x^2)",
    "F2[x,y]",
    "F3[x,y]/(x*y)",
    "QQ[x]",
    "QQ[x,y]/(x*y)",
    "QQ[x,y]/(y^3)",
    "QQ[x,y,z]/(x*y*z)",
]


def double_point_replacement(L=3):
    """Ambient line with one cell whose boundary is the squared variable."""
    base = parse_ring("F2[x]")
    return build_with_boundaries(base, [("y", 1, base.ambient.var(0) ** 2)], L)


def free_loop_algebra(L=5):
    """One cell with zero boundary over the rationals."""
    k = RingPresentation(QQ, (), ())
    return build_with_boundaries(k, [("u", 1, k.ambient.zero())], L)


# ---------------------------------------------------------------------------
# construction and simplicial identities


def test_level_rings_have_expected_generators():
    tsa = double_point_replacement()
    assert tsa.level_ring(0).variables == ("x",)
    assert tsa.level_ring(1).variables == ("x", "y.0")
    assert tsa.level_ring(3).variables == ("x", "y.0", "y.1", "y.2")


def test_simplicial_identities_on_built_objects():
    double_point_replacement().check_simplicial_identities()
    free_loop_algebra(4).check_simplicial_identities()
    R = parse_ring("QQ[x,y]/(x*y)")
    simplicial_koszul(
        R, [R.ambient.var(0), R.ambient.var(1)], 3
    ).check_simplicial_identities()


def test_boundary_rule_on_the_one_cell():
    tsa = double_point_replacement()
    d0 = tsa.face_images(1, 0)
    d1 = tsa.face_images(1, 1)
    assert str(d0[1]) == "x^2"
    assert d1[1].is_zero()


def _substituted_face(tsa, n, i, label):
    """d_i of a label's monomial through face_images, in label coordinates."""
    rmono, xi = label
    image = tsa.level_ring(n).monomial(rmono + xi).substitute(
        tsa.face_images(n, i), tsa.level_ring(n - 1)
    )
    d = tsa.base.embdim
    by_cells = {}
    for m, c in image.terms.items():
        by_cells.setdefault(m[d:], {})[m[:d]] = c
    out = {}
    for xi2, terms in by_cells.items():
        reduced = groebner.nf(tsa.base, Polynomial(tsa.base.ambient, terms))
        out.update({(m, xi2): c for m, c in reduced.terms.items()})
    return out


def _face_test_algebras():
    R = parse_ring("QQ[x,y]/(x*y)")
    yield simplicial_koszul(R, R.variable_polys(), 3)
    R = parse_ring("F2[x]/(x^2)")
    x = R.ambient.var(0)
    yield simplicial_koszul(R, [x, x], 3)
    R = parse_ring("QQ[x,y]")
    x, y = R.ambient.var(0), R.ambient.var(1)
    yield build_with_boundaries(
        R, [("u", 1, x**2 - y**2), ("v", 1, R.ambient.zero())], 3
    )


def test_face_vector_matches_face_images():
    # homology is built from face_vector; the simplicial identities are
    # checked on face_images, so the two must be the same maps
    checks = 0
    for tsa in _face_test_algebras():
        mod = SimplicialModule(tsa, ("power", 0), 5)
        for n in range(1, tsa.L + 1):
            for lab in mod.labels(n):
                for i in range(n + 1):
                    expected = _substituted_face(tsa, n, i, lab)
                    assert mod.face_vector(n, i, lab) == expected, (n, i, lab)
                    checks += 1
    assert checks > 10000


@pytest.mark.parametrize("mode", [("power", 0), ("power", 2), "conormal"])
def test_covering_labels_match_the_definition(mode):
    # the walk tests covering per exponent vector; the order of the
    # labels fixes every strand matrix, so it is pinned as well
    for tsa in _face_test_algebras():
        mod = SimplicialModule(tsa, mode, 5)
        for n in range(tsa.L + 1):
            labs, cover = mod.labels(n), mod.covering_labels(n)
            assert len(set(labs)) == len(labs)
            assert len(set(cover)) == len(cover)
            assert cover == [l for l in labs if oracle_covering(len(tsa.cells), n, l)]


def test_higher_degree_cells_rejected():
    base = parse_ring("QQ[x]")
    with pytest.raises(PreconditionError):
        build_with_boundaries(base, [("y", 2, base.ambient.var(0) ** 2)], 3)
    with pytest.raises(PreconditionError):
        build_with_boundaries(base, [("y", 1, base.ambient.var(0) ** 2)], 0)


# ---------------------------------------------------------------------------
# Dold-Kan consistency


def test_three_chain_models_agree_on_conormal_module():
    tsa = double_point_replacement()
    mod = SimplicialModule(tsa, "conormal", 10)
    q = normalize(mod, "quotient").homology()
    k = normalize(mod, "kernel").homology()
    u = unnormalized_homology(mod, 2)
    assert q == k == u == {(0, 1): 1, (1, 2): 1}
    # a binomial boundary: strands are total degrees, not multidegrees
    base = parse_ring("QQ[x,y]")
    x, y = base.ambient.var(0), base.ambient.var(1)
    tsa = build_with_boundaries(base, [("u", 1, x**2 - y**2), ("v", 1, x * y)], 4)
    mod = SimplicialModule(tsa, "conormal", 8)
    q = normalize(mod, "quotient").homology()
    k = normalize(mod, "kernel").homology()
    u = unnormalized_homology(mod, 3)
    assert q == k == u == {(0, 1): 2, (1, 2): 2}


def test_three_chain_models_agree_on_small_ring_module():
    R = parse_ring("F2[x]/(x^2)")
    tsa = simplicial_koszul(R, [R.ambient.var(0)], 3)
    mod = SimplicialModule(tsa, ("power", 0), 6)
    q = normalize(mod, "quotient").homology()
    k = normalize(mod, "kernel").homology()
    u = unnormalized_homology(mod, 2)
    assert q == k == u


def test_three_chain_models_agree_on_ideal_power():
    tsa = free_loop_algebra(3)
    mod = SimplicialModule(tsa, ("power", 2), 6)
    q = normalize(mod, "quotient").homology()
    k = normalize(mod, "kernel").homology()
    u = unnormalized_homology(mod, 2)
    assert q == k == u


def test_normalized_complexes_square_to_zero():
    tsa = double_point_replacement()
    mod = SimplicialModule(tsa, "conormal", 10)
    assert normalize(mod, "quotient").verify_d_squared()
    assert normalize(mod, "kernel").verify_d_squared()
    R = parse_ring("F2[x]/(x^2)")
    tsa2 = simplicial_koszul(R, [R.ambient.var(0)], 3)
    mod2 = SimplicialModule(tsa2, ("power", 0), 6)
    assert normalize(mod2, "quotient").verify_d_squared()


def test_constant_module_normalizes_to_degree_zero():
    # the full algebra on no cells is the constant simplicial module
    k = RingPresentation(QQ, (), ())
    tsa = build_with_boundaries(k, [], 3)
    mod = SimplicialModule(tsa, ("power", 0), 5)
    assert normalize(mod, "quotient").homology() == {(0, 0): 1}
    assert normalize(mod, "kernel").homology() == {(0, 0): 1}


def test_free_loop_augmentation_ideal_is_connected():
    tsa = free_loop_algebra(3)
    mod = SimplicialModule(tsa, ("power", 1), 4)
    assert homotopy_groups(mod, 0) == {}


# ---------------------------------------------------------------------------
# simplicial Koszul against the classical complex


def test_simplicial_koszul_recovers_classical_homology_small():
    R = parse_ring("F2[x]/(x^2)")
    seq = [R.ambient.var(0)]
    tsa = simplicial_koszul(R, seq, 3)
    mod = SimplicialModule(tsa, ("power", 0), 8)
    simp = normalize(mod, "quotient").homology()
    clas = {
        (i, j): d
        for (i, j), d in homology_dims(koszul(R, seq).complex, 8).entries.items()
        if i <= 2
    }
    assert simp == clas


def test_strands_are_keyed_by_level_and_internal_degree():
    # monomial relations and monomial boundaries still give one strand
    # per (level, internal degree), not one per multidegree
    R = parse_ring("QQ[x,y]/(x^2,y^2)")
    x, y = R.variable_polys()
    tsa = simplicial_koszul(R, [x, y * y], 3)
    cx = normalize(SimplicialModule(tsa, ("power", 0), 6), "quotient")
    assert (0, 0) in cx.dims and (1, 1) in cx.dims and (1, 2) in cx.dims
    for n, j in list(cx.dims) + list(cx.mats):
        assert type(n) is int and type(j) is int


@st.composite
def _koszul_inputs(draw):
    """A ring in at most 2 variables and 1-2 monomials of degree 1-2."""
    R = draw(small_rings(max_vars=2))
    monos = [m for d in (1, 2) for m in monomials_of_degree(R.embdim, d)]
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2))
    return R, [R.ambient.monomial(m) for m in picks]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_koszul_inputs())
def test_quotient_route_is_classical_koszul_homology(case):
    R, seq = case
    L, D = 3, 6
    module = SimplicialModule(simplicial_koszul(R, seq, L), ("power", 0), D)
    simp = normalize(module, "quotient").homology()
    clas = homology_dims(koszul(R, seq).complex, D).entries
    assert simp == {k: d for k, d in clas.items() if k[0] < L}


def test_pi_zero_of_koszul_is_quotient_strand_dims():
    R = parse_ring("QQ[x,y]")
    seq = [R.ambient.var(0), R.ambient.var(1)]
    tsa = simplicial_koszul(R, seq, 2)
    mod = SimplicialModule(tsa, ("power", 0), 6)
    table = homotopy_groups(mod, 1)
    # pi_0 strands match the monomial count of the quotient by (x, y)
    assert table == {(0, 0): 1}


def test_homotopy_vanishes_above_sequence_length():
    R = parse_ring("QQ[x,y]/(x*y)")
    seq = [R.ambient.var(0)]
    tsa = simplicial_koszul(R, seq, 4)
    mod = SimplicialModule(tsa, ("power", 0), 8)
    table = homotopy_groups(mod, 3)
    assert all(i <= 1 for (i, _) in table)


# ---------------------------------------------------------------------------
# AQ homology


def test_aq_dims_of_double_point_rings():
    assert aq_dims(parse_ring("F2[x]/(x^2)"), 4, 10).dims == [1, 1, 0]
    assert aq_dims(parse_ring("QQ[x]/(x^2)"), 4, 10).dims == [1, 1, 0]


def test_aq_dims_examples():
    assert aq_dims(parse_ring("QQ[x,y]/(x*y)"), 4, 10).dims == [2, 1, 0]
    assert aq_dims(parse_ring("QQ[x]"), 3, 10).dims == [1, 0]
    # a complete intersection presented with a redundant generator
    assert aq_dims(parse_ring("QQ[x,y]/(x^2,2*x^2)"), 5, 10).dims == [2, 1, 0, 0]
    assert aq_dims(parse_ring("QQ[x,y]/(x^2)"), 5, 10).dims == [2, 1, 0, 0]
    assert aq_dims(parse_ring("QQ[x,y]/(x^2,y^2,x^2+y^2)"), 5, 10).dims == [2, 2, 0, 0]
    assert aq_dims(parse_ring("QQ[x,y]/(x^3,x^2)"), 5, 10).dims == [2, 1, 0, 0]


@pytest.mark.parametrize("dsl", CI_CORPUS)
def test_aq_low_degrees_count_variables_and_relations(dsl):
    R = parse_ring(dsl)
    res = aq_dims(R, 4, 10)
    assert res.dims[0] == R.embdim
    assert res.dims[1] == len(R.generators)


def test_aq_rejects_non_complete_intersection():
    with pytest.raises(PreconditionError, match="complete intersection"):
        aq_dims(parse_ring("QQ[x,y]/(x^2,x*y,y^2)"), 4, 10)


def test_aq_stable_under_raising_bounds():
    R = parse_ring("QQ[x,y]/(x*y)")
    low = aq_dims(R, 4, 8)
    high = aq_dims(R, 5, 12)
    assert low.dims == high.dims[: len(low.dims)]
    assert low.strands == {
        k: v for k, v in high.strands.items() if k[0] <= 2 and k[1] <= 8
    }


# ---------------------------------------------------------------------------
# augmentation-ideal powers


def test_connectedness_defect_of_double_point_model():
    tsa = double_point_replacement()
    defect = connectedness_defect(tsa, 10)
    assert defect == {(0, 1): 1}


def test_ideal_power_vanishing_for_connected_algebra():
    tsa = free_loop_algebra(5)
    assert ideal_power_homotopy(tsa, 2, 1, 10) == {}
    assert ideal_power_homotopy(tsa, 1, 0, 10) == {}


def test_first_homotopy_of_free_loop():
    tsa = free_loop_algebra(4)
    pi = ideal_power_homotopy(tsa, 1, 1, 10)
    assert pi == {(1, 1): 1}


def test_ideal_power_rejects_disconnected_algebra():
    tsa = double_point_replacement(4)
    with pytest.raises(PreconditionError, match="connected"):
        ideal_power_homotopy(tsa, 2, 1, 10)
