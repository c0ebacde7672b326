import pytest

from oracles import koszul_strand_homology
from ringkit import parse_poly, parse_ring
from ringkit.errors import PreconditionError
from ringkit.homalg import (
    homology_dims,
    residue_field_module,
    tor_dims,
    verify_d_squared,
    minimal_resolution,
)
from ringkit.koszul import (
    generator_change_iso_check,
    koszul,
    koszul_homology_annihilated,
    koszul_homology_dims,
    koszul_on_maximal_ideal,
    twist,
)


def test_rank_shapes():
    R = parse_ring("F2[x]/(x^2)")
    K = koszul(R, [R.ambient.var(0)])
    assert K.complex.ranks() == [1, 1]
    R2 = parse_ring("QQ[x,y]/(x*y)")
    assert koszul_on_maximal_ideal(R2).complex.ranks() == [1, 2, 1]
    R3 = parse_ring("QQ[x,y,z]/(x*y*z)")
    assert koszul_on_maximal_ideal(R3).complex.ranks() == [1, 3, 3, 1]


def test_differential_entries_and_d_squared():
    R = parse_ring("QQ[x,y]/(x*y)")
    K = koszul_on_maximal_ideal(R)
    d1 = K.complex.maps[1]
    assert [str(p) for p in d1.entries[0]] == ["x", "y"]
    d2 = K.complex.maps[2]
    assert [str(d2.entries[0][0]), str(d2.entries[1][0])] == ["-y", "x"]
    assert verify_d_squared(K.complex)


def test_inhomogeneous_input_rejected():
    R = parse_ring("QQ[x,y]")
    with pytest.raises(PreconditionError):
        koszul(R, [R.ambient.var(0) + R.ambient.var(1) ** 2])
    with pytest.raises(PreconditionError):
        koszul(R, [R.ambient.one()])


def test_h0_matches_quotient_dimensions():
    # H_0(K(f)) is the quotient by (f): strandwise dims must agree
    from ringkit.groebner import DEGREVLEX, buchberger, leading_monomial
    from ringkit.polycore import mono_divides, monomials_of_degree

    R = parse_ring("QQ[x,y]/(x*y)")
    f = [R.ambient.var(0)]
    K = koszul(R, f)
    table = homology_dims(K.complex, 8)
    full = buchberger(list(R.generators) + f, DEGREVLEX)
    lms = [leading_monomial(g, DEGREVLEX) for g in full]
    for j in range(0, 9):
        dim = sum(
            1
            for m in monomials_of_degree(R.embdim, j)
            if not any(mono_divides(lm, m) for lm in lms)
        )
        assert table.entries.get((0, j), 0) == dim


def test_strandwise_oracle_agreement():
    cases = [
        ("QQ[x,y]/(x*y)", None),
        ("F2[x]/(x^2)", None),
        ("QQ[x,y]/(x^2,x*y,y^2)", None),
        # binomial quotients over both kinds of field
        ("QQ[x,y,z]/(x^2-2*y^2,x*y,z^2)", None),
        ("F7[x,y,z]/(x^2-2*y^2,x*y,z^2)", None),
        ("F101[x,y,z]/(x^2-2*y^2,x*y,z^2)", None),
        ("QQ[x,y,z]/(x^2+y*z-3*z^2)", None),
        # multi-term entries; x*(x-y) = x^2-x*y and x*(x+y) = x^2+x*y
        # cancel to zero in the last two quotients
        ("QQ[x,y]/(x*y)", "x+y,y^2"),
        ("QQ[x,y,z]/(x^2-x*y)", "x-y,z^2"),
        ("F7[x,y,z]/(x^2+x*y)", "x+y,z^2"),
    ]
    for dsl, seq_text in cases:
        R = parse_ring(dsl)
        if seq_text is None:
            seq = R.variable_polys()
        else:
            seq = [parse_poly(s, R.ambient) for s in seq_text.split(",")]
        oracle = koszul_strand_homology(R, seq, 8)
        engine = homology_dims(koszul(R, seq).complex, 8).entries
        assert oracle == engine, dsl


def test_regular_sequence_has_no_higher_homology():
    R = parse_ring("QQ[x,y,z]")
    K = koszul_on_maximal_ideal(R)
    table = homology_dims(K.complex, 6)
    assert table.totals() == [1, 0, 0, 0]


def _tensor_complex(C1, C2):
    """Total complex of the tensor product of two free complexes."""
    from ringkit.homalg import GradedChainComplex, GradedFreeModule, GradedModuleMap

    R = C1.ring
    hi = C1.hi + C2.hi
    gens = {}
    for n in range(hi + 1):
        labels = []
        for p in range(C1.lo, C1.hi + 1):
            q = n - p
            if q < C2.lo or q > C2.hi:
                continue
            for a, da in enumerate(C1.module(p).degrees):
                for b, db in enumerate(C2.module(q).degrees):
                    labels.append((p, a, q, b, da + db))
        gens[n] = labels
    modules = {
        n: GradedFreeModule(R, tuple(l[4] for l in labels))
        for n, labels in gens.items()
    }
    maps = {}
    zero = R.ambient.zero()
    for n in range(1, hi + 1):
        src, tgt = gens[n], gens[n - 1]
        tix = {lab[:4]: i for i, lab in enumerate(tgt)}
        entries = [[zero] * len(src) for _ in tgt]
        for c, (p, a, q, b, _) in enumerate(src):
            f1 = C1.maps.get(p)
            if f1 is not None:
                for a2 in range(f1.target.rank):
                    e = f1.entries[a2][a]
                    if not e.is_zero():
                        r = tix[(p - 1, a2, q, b)]
                        entries[r][c] = entries[r][c] + e
            f2 = C2.maps.get(q)
            if f2 is not None:
                sign = 1 if p % 2 == 0 else -1
                for b2 in range(f2.target.rank):
                    e = f2.entries[b2][b]
                    if not e.is_zero():
                        r = tix[(p, a, q - 1, b2)]
                        entries[r][c] = entries[r][c] + (e if sign == 1 else -e)
        maps[n] = GradedModuleMap(modules[n], modules[n - 1], entries)
    return GradedChainComplex(R, 0, hi, modules, maps)


def test_tensor_decomposition_of_koszul_complexes():
    # K(f, g) and the total complex of K(f) tensor K(g) have the same
    # strandwise homology (they are isomorphic complexes)
    for dsl in ["QQ[x,y]/(x*y)", "QQ[x,y]"]:
        R = parse_ring(dsl)
        x, y = R.ambient.var(0), R.ambient.var(1)
        D = 8
        tensor = _tensor_complex(koszul(R, [x]).complex, koszul(R, [y]).complex)
        assert verify_d_squared(tensor)
        txy = homology_dims(koszul(R, [x, y]).complex, D)
        tt = homology_dims(tensor, D)
        assert tt.entries == txy.entries


def test_homology_annihilated_by_variables():
    for dsl in ["QQ[x,y]/(x*y)", "F2[x]/(x^2)"]:
        R = parse_ring(dsl)
        assert koszul_homology_annihilated(koszul_on_maximal_ideal(R))


def test_homology_not_annihilated_for_partial_sequence():
    R = parse_ring("QQ[x,y]")
    K = koszul(R, [R.ambient.var(0) ** 2])
    assert not koszul_homology_annihilated(K)


def test_generator_change_invariance():
    R = parse_ring("QQ[x,y]/(x*y)")
    x, y = R.ambient.var(0), R.ambient.var(1)
    assert generator_change_iso_check(R, [x, y], [x + y, y])
    assert generator_change_iso_check(R, [x, y], [x, y])
    R3 = parse_ring("QQ[x,y,z]/(x*y*z)")
    x3, y3, z3 = (R3.ambient.var(i) for i in range(3))
    assert generator_change_iso_check(R3, [x3, y3, z3], [x3, x3 + y3, z3])


def test_generator_change_rejects_different_ideals():
    R = parse_ring("QQ[x,y]/(x*y)")
    x, y = R.ambient.var(0), R.ambient.var(1)
    with pytest.raises(PreconditionError):
        generator_change_iso_check(R, [x, y], [x, y * y])


def test_generator_change_rejects_non_minimal():
    R = parse_ring("QQ[x,y]/(x*y)")
    x, y = R.ambient.var(0), R.ambient.var(1)
    with pytest.raises(PreconditionError):
        generator_change_iso_check(R, [x, y], [x, y, x + y])


# ---------------------------------------------------------------------------
# twists


def test_trivial_twist_tor_is_betti_convolution():
    for dsl in ["F2[x]/(x^2)", "QQ[x,y]/(x*y)", "QQ[x]"]:
        R = parse_ring(dsl)
        K = koszul_on_maximal_ideal(R)
        TK = twist(K, "trivial")
        N = 5
        k = residue_field_module(R)
        lhs = tor_dims(k, TK.coefficients, N).totals()
        betti = minimal_resolution(k, N).betti.totals()
        h = koszul_homology_dims(K).totals()
        rhs = [
            sum(betti[i - q] * hq for q, hq in enumerate(h) if 0 <= i - q <= N)
            for i in range(N + 1)
        ]
        assert lhs == rhs


def test_frobenius_twist_matrix_on_double_point():
    # pushforward basis (1, x): multiplication by x sends the slot of 1
    # to the slot of x with unit coefficient, and kills the slot of x
    # (its raw image x*e_1 is a relation of the pushforward)
    R = parse_ring("F2[x]/(x^2)")
    K = koszul_on_maximal_ideal(R)
    TK = twist(K, "frobenius_power", 1)
    (mat,) = TK.coefficients.maps
    assert str(mat[1][0]) == "1"
    assert mat[0][0].is_zero() and mat[1][1].is_zero()
    # the image of the x-slot generator projects to zero in the target
    from ringkit.homalg import ModuleStrands

    target = TK.coefficients.terms[0]
    st = ModuleStrands(target).strand(TK.coefficients.terms[1].gen_degrees[1])
    vec = {}
    for m, c in mat[0][1].terms.items():
        vec[st.index[(0, m)]] = c
    for m, c in mat[1][1].terms.items():
        vec[st.index[(1, m)]] = c
    assert vec
    assert not st.project(vec)


def test_frobenius_twist_requires_prime_characteristic():
    R = parse_ring("QQ[x]")
    with pytest.raises(PreconditionError):
        twist(koszul_on_maximal_ideal(R), "frobenius_power", 1)


def test_unsupported_twist_rejected():
    R = parse_ring("F2[x]/(x^2)")
    with pytest.raises(PreconditionError, match="finitely generated"):
        twist(koszul_on_maximal_ideal(R), "general")
