import random
from fractions import Fraction

import pytest

from ringkit import DSLError, ValidationError, parse_map, parse_poly, parse_ring
from ringkit.polycore import (
    PolyRing,
    PrimeField,
    QQ,
    RingPresentation,
    poly_to_dsl,
)


def random_poly(ring, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[mono] = rng.randint(-5, 5)
    return ring.poly(terms)


# ---------------------------------------------------------------------------
# parsing


def test_parse_ring_basic():
    R = parse_ring("F2[x]/(x^2)")
    assert R.characteristic == 2
    assert R.variables == ("x",)
    assert len(R.generators) == 1
    assert R.generators[0].degree() == 2


def test_parse_ring_rational():
    R = parse_ring("QQ[x,y]/(x*y)")
    assert R.characteristic == 0
    assert R.embdim == 2
    assert str(R.generators[0]) == "x*y"


def test_parse_zero_ideal_forms():
    assert parse_ring("QQ[x]/()").generators == ()
    assert parse_ring("QQ[x]").generators == ()
    assert parse_ring("QQ[x]/()") == parse_ring("QQ[x]")


def test_parse_implicit_multiplication_and_signs():
    R = parse_ring("QQ[x,y]")
    f = parse_poly("2x^2y - y^2 + 3", R.ambient)
    assert f.terms[(2, 1)] == 2
    assert f.terms[(0, 2)] == -1
    assert f.terms[(0, 0)] == 3


def test_parse_errors_carry_position():
    with pytest.raises(DSLError) as err:
        parse_ring("QQ[x]/(x^2,)")
    assert err.value.position is not None


@pytest.mark.parametrize(
    "text, position",
    [("QQ[x]/(x²)", 8), ("QQ[x]/(x$)", 8), ("QQ[é]", 3)],
)
def test_unexpected_characters_are_rejected_where_they_stand(text, position):
    with pytest.raises(DSLError, match="unexpected character") as err:
        parse_ring(text)
    assert err.value.position == position


def test_nonprime_modulus_rejected():
    with pytest.raises(ValidationError):
        parse_ring("F4[x]/(x^2)")


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValidationError, match="inhomogeneous"):
        parse_ring("QQ[x,y]/(x^2+y)")


def test_linear_generator_rejected():
    with pytest.raises(ValidationError, match="linear"):
        parse_ring("QQ[x,y]/(x+y)")


def test_unknown_variable_rejected():
    with pytest.raises(DSLError, match="unknown variable"):
        parse_ring("QQ[x]/(x*z)")


def test_generator_dedup():
    R = parse_ring("QQ[x,y]/(x*y,x*y)")
    assert len(R.generators) == 1


def test_map_parsing():
    R = parse_ring("QQ[x,y]/(y^3)")
    images = parse_map("{x->x, y->y^2}", R, R)
    assert [str(f) for f in images] == ["x", "y^2"]


def test_map_frobenius_image():
    R = parse_ring("F2[x]/(x^2)")
    images = parse_map("{x->x^2}", R, R)
    assert str(images[0]) == "x^2"


def test_map_zero_image():
    R = parse_ring("QQ[x,y]/(x*y)")
    images = parse_map("{x->x, y->0}", R, R)
    assert images[1].is_zero()


def test_map_missing_and_duplicate_assignments():
    R = parse_ring("QQ[x,y]/(x*y)")
    with pytest.raises(DSLError, match="missing"):
        parse_map("{x->x}", R, R)
    with pytest.raises(DSLError, match="duplicate"):
        parse_map("{x->x, x->y, y->y}", R, R)
    with pytest.raises(DSLError, match="unknown"):
        parse_map("{x->x, y->z}", R, R)


# ---------------------------------------------------------------------------
# arithmetic


def test_difference_of_squares():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_char2_square_of_sum():
    R = PolyRing(PrimeField(2), ("x", "y"))
    x, y = R.var(0), R.var(1)
    assert (x + y) ** 2 == x * x + y * y


def test_char2_doubling_vanishes():
    R = PolyRing(PrimeField(2), ("x", "y"))
    x, y = R.var(0), R.var(1)
    assert (x * y + x * y).is_zero()


def test_prime_field_normalizes_fractions_by_inverting_the_denominator():
    F3 = PrimeField(3)
    assert F3.normalize(Fraction(1, 2)) == 2
    assert F3.normalize(Fraction(-5, 4)) == 1
    assert PrimeField(7).normalize(Fraction(6, 1)) == 6
    with pytest.raises(ValidationError):
        F3.normalize(Fraction(1, 6))


def test_field_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.zero == 0 and QQ.one == 1
    assert PrimeField(5).zero == 0 and PrimeField(5).one == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("value", [2.5, 0.1, "1", "1/2"])
def test_normalize_rejects_what_is_not_rational(field, value):
    with pytest.raises(ValidationError):
        field.normalize(value)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
def test_ring_axioms_randomized(field):
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(20240 + field.characteristic)
    for _ in range(200):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_freshmans_dream(p):
    ring = PolyRing(PrimeField(p), ("x", "y"))
    rng = random.Random(99 + p)
    for _ in range(40):
        a, b = random_poly(ring, rng), random_poly(ring, rng)
        assert (a + b) ** p == a**p + b**p


def test_substitute_spec_examples():
    R3 = parse_ring("QQ[x,y,z]/(x*y*z)")
    amb = R3.ambient
    x, y, z = amb.var(0), amb.var(1), amb.var(2)
    f = amb.var(1) ** 3  # y^3 in three variables
    assert f.substitute([x, y * y, x * z * z]) == y**6
    xyz = x * y * z
    assert str(xyz.substitute([x, y * y, x * z * z])) == "x^2*y^2*z^2"
    R2 = parse_ring("QQ[x,y]/(x*y)")
    xy = R2.ambient.var(0) * R2.ambient.var(1)
    assert xy.substitute([R2.ambient.var(0), R2.ambient.zero()]).is_zero()


def test_substitute_is_ring_hom():
    ring = PolyRing(QQ, ("x", "y"))
    rng = random.Random(7)
    images = [random_poly(ring, rng), random_poly(ring, rng)]
    for _ in range(50):
        f, g = random_poly(ring, rng), random_poly(ring, rng)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(
            images
        )
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(
            images
        )


# ---------------------------------------------------------------------------
# printing round-trips


def test_parse_print_roundtrip_randomized():
    ring = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(200):
        f = random_poly(ring, rng)
        assert parse_poly(poly_to_dsl(f), ring) == f


def test_ring_dsl_roundtrip():
    for text in [
        "F2[x]/(x^2)",
        "QQ[x,y]/(x*y)",
        "QQ[x]",
        "F3[x,y]/(x*y)",
        "QQ[x,y]/(x^2,x*y,y^2)",
        "QQ[x,y,z]/(x*y*z)",
    ]:
        R = parse_ring(text)
        assert parse_ring(R.to_dsl()) == R


def test_homogeneity_query():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.var(0), ring.var(1)
    assert (x * x + y * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert ring.zero().is_homogeneous()


def test_zero_variable_presentation():
    k = RingPresentation(QQ, (), ())
    assert k.embdim == 0
    assert k.ambient.one().degree() == 0
