import pytest

from ringkit import parse_map, parse_ring
from ringkit.errors import PreconditionError
from ringkit.ghost import (
    ci_koszul_ghost,
    classify,
    conormal_matrix,
    frobenius_map,
    frobenius_pushforward,
    ghost_report,
    ghost_trivialization_check,
    is_contracting,
    kunz_report,
    pushforward_basis,
    validate_map,
)
from ringkit.homalg import minimize_presentation, residue_field_module, tor_dims

CHAR_P_CORPUS = ["F2[x]/(x^2)", "F2[x,y]", "F3[x,y]/(x*y)"]
WORKED_MAPS = [
    ("QQ[x,y]/(y^3)", "{x->x, y->y^2}"),
    ("QQ[x,y]/(x*y)", "{x->x, y->0}"),
    ("QQ[x,y,z]/(x*y*z)", "{x->x, y->y^2, z->x*z^2}"),
]


def endo(ring_text, map_text):
    R = parse_ring(ring_text)
    return validate_map(parse_map(map_text, R, R), R, R)


# ---------------------------------------------------------------------------
# validation


def test_valid_map_with_zero_image():
    phi = endo("QQ[x,y]/(x*y)", "{x->x, y->0}")
    assert phi.is_endo


def test_identity_map_is_valid():
    phi = endo("QQ[x,y]/(x*y)", "{x->x, y->y}")
    assert phi.images[0] == phi.source.ambient.var(0)


def test_ill_defined_map_rejected_with_generator():
    R = parse_ring("QQ[x,y]/(x*y)")
    with pytest.raises(PreconditionError, match="x\\*y"):
        validate_map(parse_map("{x->x, y->x}", R, R), R, R)


def test_non_local_map_rejected():
    R = parse_ring("QQ[x,y]/(x*y)")
    images = [R.ambient.var(0) + R.ambient.one(), R.ambient.zero()]
    with pytest.raises(PreconditionError, match="local"):
        validate_map(images, R, R)


# ---------------------------------------------------------------------------
# conormal matrices and the contracting test


def test_frobenius_conormal_is_zero_matrix():
    R = parse_ring("F2[x,y]/(x*y)")
    matrix, zero = conormal_matrix(frobenius_map(R))
    assert zero
    assert all(R.field.is_zero(c) for row in matrix for c in row)


def test_conormal_of_partial_square_map():
    phi = endo("QQ[x,y]/(y^3)", "{x->x, y->y^2}")
    matrix, zero = conormal_matrix(phi)
    assert not zero
    assert matrix[0][0] == 1 and matrix[1][1] == 0


def test_identity_conormal_is_identity():
    phi = endo("QQ[x,y]/(x*y)", "{x->x, y->y}")
    matrix, zero = conormal_matrix(phi)
    assert not zero
    assert matrix[0][0] == 1 and matrix[1][1] == 1 and matrix[0][1] == 0


def test_contracting_examples():
    assert is_contracting(frobenius_map(parse_ring("F2[x]/(x^2)"))) == 1
    assert is_contracting(endo("QQ[x,y]/(y^3)", "{x->x, y->y^2}")) is None
    assert is_contracting(endo("QQ[x,y]/(x*y)", "{x->x, y->y}")) is None


def test_contracting_strictly_nilpotent_case():
    # x -> y^2-ish chains: linearisation nilpotent of index 2
    phi = endo("QQ[x,y]/(x*y)", "{x->y^2, y->x*y}")
    # linear parts vanish immediately
    assert is_contracting(phi) == 1
    phi2 = endo("QQ[x,y,z]/(x*y*z)", "{x->y, y->z^2, z->x*z}")
    # matrix sends x->0 chain: e_x -> e_y -> 0: nilpotent of index 2
    assert is_contracting(phi2) == 2


def test_conormal_powers_track_contracting_failure():
    phi = endo("QQ[x,y]/(x*y)", "{x->x, y->0}")
    assert is_contracting(phi, 6) is None
    matrix, _ = conormal_matrix(phi)
    # the (x,x) entry persists in every power
    power = matrix
    from ringkit.ghost import _mat_mul

    for _ in range(5):
        power = _mat_mul(power, matrix, phi.source.field)
        assert power[0][0] == 1


# ---------------------------------------------------------------------------
# quadratic-lift criterion


@pytest.mark.parametrize("ring_text,map_text", WORKED_MAPS)
def test_worked_maps_are_koszul_ghost_but_not_ghost(ring_text, map_text):
    phi = endo(ring_text, map_text)
    rep = ghost_report(phi)
    assert rep.conormal_zero is False
    assert rep.koszul_ghost is True
    assert rep.ghost_verdict == "not_ghost"
    assert rep.classification.verdict == "complete_intersection"


def test_identity_on_singular_ring_fails_lift():
    verdict = ci_koszul_ghost(endo("QQ[x,y]/(x*y)", "{x->x, y->y}"))
    assert verdict.status == "false"
    assert verdict.failing_generator == "x*y"


def test_non_ci_ring_is_not_applicable():
    verdict = ci_koszul_ghost(endo("QQ[x,y]/(x^2,x*y,y^2)", "{x->0, y->0}"))
    assert verdict.status == "not_applicable"


def test_undecided_band_for_non_ci_with_vanishing_conormal():
    rep = ghost_report(endo("QQ[x,y]/(x^2,x*y,y^2)", "{x->0, y->0}"))
    assert rep.conormal_zero is True
    assert rep.ghost_verdict == "undecided"


def test_ghost_verdict_for_frobenius_on_ci():
    rep = ghost_report(frobenius_map(parse_ring("F2[x]/(x^2)")))
    assert rep.conormal_zero and rep.koszul_ghost
    assert rep.ghost_verdict == "ghost"


def test_lift_criterion_stable_under_composition():
    # if the lift lands in the squared ideal, so does the composite's
    from ringkit.groebner import IdealHandle, ideal_power, member

    for ring_text, map_text in WORKED_MAPS:
        R = parse_ring(ring_text)
        phi = endo(ring_text, map_text)
        square = ideal_power(IdealHandle(R.ambient, R.generators), 2)
        composite = [
            img.substitute(list(phi.images), R.ambient) for img in phi.images
        ]
        for g in R.generators:
            lifted = g.substitute(composite, R.ambient)
            assert lifted.is_zero() or member(lifted, square)


# ---------------------------------------------------------------------------
# Frobenius pushforward


def test_frobenius_requires_prime_characteristic():
    with pytest.raises(PreconditionError):
        frobenius_map(parse_ring("QQ[x]"))
    with pytest.raises(PreconditionError):
        frobenius_pushforward(parse_ring("QQ[x]"))


def test_pushforward_of_regular_rings_is_free():
    for dsl, rank in [("F2[x]", 2), ("F2[x,y]", 4), ("F3[x]", 3)]:
        R = parse_ring(dsl)
        M = frobenius_pushforward(R, 1)
        assert len(M.gen_degrees) == rank
        assert M.relations == ()
        # basis is the q-bounded monomials
        q = R.characteristic
        assert set(pushforward_basis(R, q)) == {
            m for m in _all_bounded(R.embdim, q)
        }


def _all_bounded(d, q):
    from itertools import product

    return set(product(range(q), repeat=d))


def test_pushforward_of_double_point_is_two_trivial_lines():
    R = parse_ring("F2[x]/(x^2)")
    M = minimize_presentation(frobenius_pushforward(R, 1))
    assert M.gen_degrees == (0, 1)
    cols = sorted([(t, str(p)) for t, p in col.items()] for col in M.relations)
    assert cols == [[(0, "x")], [(1, "x")]]


def test_pushforward_exponent_bookkeeping():
    # x^a * f decomposed as (quotient)^q * remainder, per slot
    R = parse_ring("F2[x]/(x^2)")
    from ringkit.ghost import pushforward_presentation

    degs, cols = pushforward_presentation(R, 2)
    assert degs == [0, 1]
    # x^0 * x^2 = (x)^2 * 1 and x^1 * x^2 = (x)^2 * x
    assert {t: str(p) for t, p in cols[0].items()} == {0: "x"}
    assert {t: str(p) for t, p in cols[1].items()} == {1: "x"}


def test_second_frobenius_power_rank():
    R = parse_ring("F2[x]")
    M = frobenius_pushforward(R, 2)
    assert len(M.gen_degrees) == 4
    assert M.scale == 4


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "dsl,verdict,data",
    [
        ("QQ[x,y]/(x*y)", "complete_intersection", (2, 1, 1)),
        ("QQ[x]", "regular", (1, 1, 0)),
        ("QQ[x,y]/(x^2,x*y,y^2)", "other", (2, 0, 3)),
        ("F2[x,y]", "regular", (2, 2, 0)),
        ("QQ[x,y,z]/(x*y*z)", "complete_intersection", (3, 2, 1)),
        ("QQ[x,y]/(y^3)", "complete_intersection", (2, 1, 1)),
    ],
)
def test_classification_table(dsl, verdict, data):
    rep = classify(parse_ring(dsl))
    assert rep.verdict == verdict
    assert (rep.embdim, rep.dim, rep.num_min_gens) == data


def test_classification_invariants():
    rep = classify(parse_ring("QQ[x,y]/(x*y)"))
    assert (rep.verdict == "regular") == (rep.num_min_gens == 0)
    assert (rep.verdict == "regular") == (rep.embdim == rep.dim)


def test_classify_invariant_under_variable_permutation():
    a = classify(parse_ring("QQ[x,y,z]/(x*y*z)"))
    b = classify(parse_ring("QQ[z,y,x]/(z*y*x)"))
    assert (a.verdict, a.dim, a.num_min_gens) == (b.verdict, b.dim, b.num_min_gens)


def test_classify_invariant_under_generator_change():
    a = classify(parse_ring("QQ[x,y]/(x^2,x*y)"))
    b = classify(parse_ring("QQ[x,y]/(x^2+x*y,x*y)"))
    assert (a.verdict, a.dim, a.num_min_gens) == (b.verdict, b.dim, b.num_min_gens)


# ---------------------------------------------------------------------------
# reports


@pytest.mark.parametrize("dsl", CHAR_P_CORPUS)
def test_kunz_report_consistency(dsl):
    rep = kunz_report(parse_ring(dsl), 1, 6)
    assert rep.consistent
    assert rep.frobenius_conormal_zero


def test_kunz_forward_tor_vanishing():
    rep = kunz_report(parse_ring("F2[x]"), 1, 6)
    assert rep.classification.verdict == "regular"
    assert rep.tor.totals() == [2, 0, 0, 0, 0, 0, 0]


def test_kunz_contrapositive_tor_nonvanishing():
    R = parse_ring("F2[x]/(x^2)")
    tor = tor_dims(residue_field_module(R), frobenius_pushforward(R, 1), 8)
    assert tor.totals() == [2] * 9
    rep = kunz_report(R, 1, 8)
    assert rep.consistent


def test_kunz_char_zero_rejected():
    with pytest.raises(PreconditionError):
        kunz_report(parse_ring("QQ[x]"), 1, 4)


def test_ghost_trivialization_on_double_point():
    rep = ghost_trivialization_check(parse_ring("F2[x]/(x^2)"), 1, 6)
    assert rep.lhs_totals == [1, 2, 2, 2, 2, 2, 2]
    assert rep.rhs_totals == [1, 2, 2, 2, 2, 2, 2]
    assert rep.matches
    assert rep.stages_bound_satisfied


def test_ghost_trivialization_on_regular_ring():
    rep = ghost_trivialization_check(parse_ring("F2[x]"), 1, 6)
    assert rep.matches
    assert rep.lhs_totals == [1, 1, 0, 0, 0, 0, 0]


def test_ghost_trivialization_char3_axes():
    rep = ghost_trivialization_check(parse_ring("F3[x,y]/(x*y)"), 1, 4)
    assert rep.matches
    assert rep.lhs_totals == rep.rhs_totals
    assert not rep.stages_bound_satisfied  # e=1 does not exceed log2(2)


@pytest.mark.parametrize(
    "dsl, e, N, totals",
    [
        # three variables: the twisted terms 1 and 2 have three slots each
        ("F2[x,y,z]/(x^2,y^2,z^2)", 2, 6, [1, 6, 18, 38, 66, 102, 146]),
        ("F2[x,y]/(x*y,x^2+y^2)", 1, 4, [1, 4, 8, 12, 16]),
    ],
)
def test_ghost_trivialization_pins_multi_slot_twists(dsl, e, N, totals):
    rep = ghost_trivialization_check(parse_ring(dsl), e, N)
    assert rep.lhs_totals == rep.rhs_totals == totals
    assert rep.flags == []


def test_frobenius_tor_on_three_variable_quadric():
    R = parse_ring("F2[x,y,z]/(y^2+x*z)")
    t = tor_dims(residue_field_module(R), frobenius_pushforward(R, 1), 4)
    assert t.totals() == [6, 4, 4, 4, 4]
    assert t.degree_bound == 21
    assert t.flags == []


def test_ghost_trivialization_char_zero_rejected():
    with pytest.raises(PreconditionError):
        ghost_trivialization_check(parse_ring("QQ[x]"), 1, 4)
