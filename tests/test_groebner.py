import random

import pytest

from oracles import degreewise_member, naive_buchberger
from ringkit import parse_ring
from ringkit.errors import PreconditionError
from ringkit.groebner import (
    DEGLEX,
    DEGREVLEX,
    IdealHandle,
    MonomialOrder,
    buchberger,
    ideal_power,
    ideal_product,
    ideal_sum,
    ideals_equal,
    krull_dim,
    member,
    minimal_generator_count,
    quotient_basis,
    ring_groebner,
)
from ringkit.polycore import (
    QQ,
    PolyRing,
    RingPresentation,
    mono_divides,
    monomials_of_degree,
)

CORPUS = [
    "F2[x]/(x^2)",
    "F2[x,y]",
    "F3[x,y]/(x*y)",
    "QQ[x]",
    "QQ[x,y]/(x*y)",
    "QQ[x,y]/(y^3)",
    "QQ[x,y,z]/(x*y*z)",
    "QQ[x,y]/(x^2,x*y,y^2)",
]


def test_single_monomial_is_its_own_basis():
    R = PolyRing(QQ, ("x", "y"))
    xy = R.var(0) * R.var(1)
    assert buchberger([xy]) == [xy]


def test_empty_generators():
    assert buchberger([]) == []


def test_reduced_basis_contains_cubic():
    # frozen from the naive closure oracle
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    gens = [x * x, x * y + y * y]
    gb = buchberger(gens)
    assert naive_buchberger(gens, DEGREVLEX) == gb
    assert y**3 in gb


@pytest.mark.parametrize("dsl", CORPUS)
def test_buchberger_idempotent(dsl):
    R = parse_ring(dsl)
    gb = list(ring_groebner(R).polys)
    assert buchberger(gb) == gb


def test_membership_examples():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    assert member(y**6, ideal_power(IdealHandle(R, [y**3]), 2))
    assert not member(x, IdealHandle(R, [x * x]))
    R3 = PolyRing(QQ, ("x", "y", "z"))
    x3, y3, z3 = (R3.var(i) for i in range(3))
    assert member(
        (x3 * y3 * z3) ** 2, ideal_power(IdealHandle(R3, [x3 * y3 * z3]), 2)
    )


def test_membership_is_multiplicative():
    R = PolyRing(QQ, ("x", "y"))
    rng = random.Random(5)
    x, y = R.var(0), R.var(1)
    ideal = IdealHandle(R, [x * x, x * y + y * y])
    f = x * x
    for _ in range(30):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(-3, 3)
            for _ in range(3)
        }
        g = R.poly(terms)
        assert member(f * g, ideal)


@pytest.mark.parametrize("dsl", CORPUS)
def test_membership_matches_degreewise_linear_algebra(dsl):
    R = parse_ring(dsl)
    if not R.generators:
        return
    ideal = IdealHandle(R.ambient, R.generators)
    rng = random.Random(hash(dsl) % 10_000)
    for d in range(1, 9):
        for _ in range(6):
            from ringkit.polycore import monomials_of_degree

            monos = list(monomials_of_degree(R.embdim, d))
            terms = {}
            for _ in range(3):
                terms[rng.choice(monos)] = rng.randint(-3, 3)
            f = R.ambient.poly(terms)
            if f.is_zero():
                continue
            assert member(f, ideal) == degreewise_member(f, R.generators, R.ambient)


def test_ideal_product_and_power_generators():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    m = IdealHandle(R, [x, y])
    sq = ideal_power(m, 2)
    assert {str(g) for g in sq.gens} == {"x^2", "x*y", "y^2"}
    assert {str(g) for g in ideal_product(m, IdealHandle(R, [x])).gens} == {
        "x^2",
        "x*y",
    }
    assert {str(g) for g in ideal_power(IdealHandle(R, [x * y]), 2).gens} == {
        "x^2*y^2"
    }
    with pytest.raises(PreconditionError):
        ideal_power(m, 0)


def test_power_additivity_up_to_gb():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    ideal = IdealHandle(R, [x * x, x * y + y * y])
    lhs = ideal_power(ideal, 3)
    rhs = ideal_product(ideal_power(ideal, 1), ideal_power(ideal, 2))
    assert ideals_equal(lhs, rhs)
    assert lhs.groebner.polys == rhs.groebner.polys


def test_ideal_sum():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    s = ideal_sum(IdealHandle(R, [x * x]), IdealHandle(R, [y * y]))
    assert member(x * x + y * y, s)


def test_quotient_basis_examples():
    R = parse_ring("F2[x]/(x^2)")
    assert quotient_basis(R, 1) == [(1,)]
    assert quotient_basis(R, 2) == []
    R2 = parse_ring("QQ[x,y]/(x*y)")
    assert quotient_basis(R2, 3) == [(3, 0), (0, 3)]
    R3 = parse_ring("QQ[x]")
    assert quotient_basis(R3, 5) == [(5,)]
    # against brute force over every monomial of the degree; degrees are
    # asked out of order so both a fresh and a partly filled cache are hit
    for dsl in [
        "QQ[x,y,z,w]/(x*y,z*w)",
        "F101[x,y,z,w,u]/(x*y,z*w,u^3)",
        "F3[x,y,z]/(x^2-y*z,x*y,z^3)",
        "QQ[x,y]/(x^2,x*y,y^2)",
    ]:
        R = parse_ring(dsl)
        for kind in ("degrevlex", "deglex"):
            Rk = RingPresentation(R.field, R.variables, R.generators, kind)
            order = MonomialOrder(kind)
            lms = ring_groebner(Rk).leading_monomials()
            for d in (4, 0, 2, 7, 5):
                brute = [
                    m
                    for m in monomials_of_degree(Rk.embdim, d)
                    if not any(mono_divides(lm, m) for lm in lms)
                ]
                brute.sort(key=order.key, reverse=True)
                assert quotient_basis(Rk, d) == brute, (dsl, kind, d)


def test_krull_dim_examples():
    assert krull_dim(parse_ring("QQ[x,y]/(x*y)")) == 1
    assert krull_dim(parse_ring("F2[x]/(x^2)")) == 0
    assert krull_dim(parse_ring("QQ[x,y,z]/(x*y*z)")) == 2
    assert krull_dim(parse_ring("QQ[x,y]")) == 2


@pytest.mark.parametrize("dsl", CORPUS)
def test_krull_dim_order_independent(dsl):
    from ringkit.polycore import RingPresentation

    R1 = parse_ring(dsl)
    R2 = RingPresentation(R1.field, R1.variables, R1.generators, "deglex")
    assert krull_dim(R1) == krull_dim(R2)


def test_deglex_vs_degrevlex_keys():
    # x^2 y > x y^2 in both orders; x z > y^2 only in deglex (x>y>z)
    assert DEGREVLEX.key((2, 1, 0)) > DEGREVLEX.key((1, 2, 0))
    assert DEGLEX.key((2, 1, 0)) > DEGLEX.key((1, 2, 0))
    assert DEGLEX.key((1, 0, 1)) > DEGLEX.key((0, 2, 0))
    assert DEGREVLEX.key((1, 0, 1)) < DEGREVLEX.key((0, 2, 0))


def test_priority_permutation():
    order = MonomialOrder("degrevlex", (1, 0))
    # with y given priority, y > x
    assert order.key((0, 1)) > order.key((1, 0))


def test_membership_agrees_across_orders():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.var(0), R.var(1)
    gens = [x * x, x * y + y * y]
    a = IdealHandle(R, gens, DEGREVLEX)
    b = IdealHandle(R, gens, DEGLEX)
    probes = [y**3, x * y**2, x**3 + y**3, x + y, y**4 + x * y]
    for f in probes:
        assert member(f, a) == member(f, b)
    assert len(buchberger(gens, DEGLEX)) >= 2


def test_minimal_generator_count():
    assert minimal_generator_count(parse_ring("QQ[x,y]/(x^2,x*y,y^2)")) == 3
    assert minimal_generator_count(parse_ring("QQ[x,y]/(x*y)")) == 1
    assert minimal_generator_count(parse_ring("QQ[x]")) == 0
