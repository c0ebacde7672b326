import pytest

from oracles import brute_betti_of_k
from ringkit import parse_ring
from ringkit.errors import ValidationError
from ringkit.homalg import (
    GradedChainComplex,
    GradedFreeModule,
    GradedModuleMap,
    PresentedModule,
    TorCoefficients,
    homology_dims,
    minimal_resolution,
    minimize_presentation,
    residue_field_module,
    resolution_is_minimal,
    tor_dims,
    trivial_action_module,
    verify_d_squared,
)


def koszul_on_vars(R):
    from ringkit.koszul import koszul_on_maximal_ideal

    return koszul_on_maximal_ideal(R)


# ---------------------------------------------------------------------------
# homology of chain complexes


def test_koszul_homology_artinian_line():
    R = parse_ring("F2[x]/(x^2)")
    table = homology_dims(koszul_on_vars(R).complex, 8)
    assert table.totals() == [1, 1]
    assert table.entries == {(0, 0): 1, (1, 2): 1}


def test_koszul_homology_regular_pair():
    R = parse_ring("QQ[x,y]")
    table = homology_dims(koszul_on_vars(R).complex, 8)
    assert table.totals() == [1, 0, 0]


def test_koszul_homology_axes_euler():
    R = parse_ring("QQ[x,y]/(x*y)")
    table = homology_dims(koszul_on_vars(R).complex, 10)
    assert table.totals() == [1, 1, 0]
    # Euler characteristic: alternating sum of homology equals the
    # alternating sum of ranks for a complex with finite total homology
    assert table.total(0) - table.total(1) + table.total(2) == 0


def test_truncation_warning_on_low_bound():
    R = parse_ring("QQ[x,y]/(x*y)")
    table = homology_dims(koszul_on_vars(R).complex, 1)
    assert table.warnings


def test_verify_d_squared_and_corrupted_sign():
    R = parse_ring("QQ[x,y,z]/(x*y*z)")
    K = koszul_on_vars(R)
    assert verify_d_squared(K.complex)
    # corrupt one sign of the middle differential
    bad_maps = dict(K.complex.maps)
    f = bad_maps[2]
    columns = [dict(col) for col in f.columns]
    columns[0][0] = -columns[0][0]
    bad_maps[2] = GradedModuleMap(f.source, f.target, columns)
    bad = GradedChainComplex(R, 0, 3, dict(K.complex.modules), bad_maps)
    assert not verify_d_squared(bad)


def test_shifted_complex_homology_shifts():
    R = parse_ring("QQ[x,y]/(x*y)")
    C = koszul_on_vars(R).complex
    shifted = C.shift(1)
    t0 = homology_dims(C, 8)
    t1 = homology_dims(shifted, 8)
    assert {(i + 1, j): d for (i, j), d in t0.entries.items()} == t1.entries


# ---------------------------------------------------------------------------
# minimal resolutions


def test_periodic_resolution_over_double_point():
    R = parse_ring("F2[x]/(x^2)")
    res = minimal_resolution(residue_field_module(R), 6)
    assert res.betti.totals() == [1] * 7
    assert {(i, j) for (i, j) in res.betti.entries} == {(i, i) for i in range(7)}
    assert resolution_is_minimal(res)
    assert verify_d_squared(res.complex)


def test_koszul_resolution_over_polynomial_ring():
    R = parse_ring("QQ[x,y]")
    res = minimal_resolution(residue_field_module(R), 3)
    assert res.betti.totals() == [1, 2, 1, 0]
    assert res.terminated


def test_resolution_terminates_at_variable_count_for_regular():
    for dsl, d in [("QQ[x]", 1), ("QQ[x,y]", 2), ("F2[x,y]", 2)]:
        res = minimal_resolution(residue_field_module(parse_ring(dsl)), 8)
        totals = res.betti.totals()
        assert res.terminated
        assert totals[d] != 0
        assert all(t == 0 for t in totals[d + 1 :])


def test_axes_resolution_matches_poincare_series():
    R = parse_ring("QQ[x,y]/(x*y)")
    res = minimal_resolution(residue_field_module(R), 4)
    assert res.betti.totals() == [1, 2, 2, 2, 2]
    assert resolution_is_minimal(res)


@pytest.mark.parametrize(
    "dsl,steps,expected",
    [
        ("F2[x]/(x^2)", 4, [1, 1, 1, 1, 1]),
        ("QQ[x,y]/(x*y)", 4, [1, 2, 2, 2, 2]),
        ("QQ[x,y]", 3, [1, 2, 1, 0]),
        # syzygies more than one degree above the last ones found
        ("QQ[x]/(x^3)", 4, [1, 1, 1, 1, 1]),
        ("F2[x,y]/(x^2,y^3)", 4, [1, 2, 3, 4, 5]),
        ("F3[x,y]/(x*y,x^3+y^3)", 4, [1, 2, 3, 4, 5]),
    ],
)
def test_betti_numbers_match_brute_force_oracle(dsl, steps, expected):
    R = parse_ring(dsl)
    oracle = brute_betti_of_k(R, steps)
    engine = minimal_resolution(residue_field_module(R), steps).betti.totals()
    assert oracle == expected
    assert engine == expected


def test_module_that_minimizes_to_zero_resolves_as_terminated():
    # a unit relation kills the only generator, so the resolution is 0
    R = parse_ring("QQ[x,y]/(x^2,y^2)")
    M = PresentedModule(R, (0,), [{0: R.ambient.one()}])
    for N in range(4):
        res = minimal_resolution(M, N)
        assert res.terminated, N
        assert res.betti.totals() == [0] * (N + 1)


@pytest.mark.parametrize(
    "dsl,totals",
    [
        ("F2[x,y,z]/(x^2,y^2,z^2)", [8, 24, 48, 80]),
        ("F3[x,y,z]/(x*y-z^2)", [13, 8, 8, 8]),
        ("F2[x,y,z]/(y^2+x*z)", [6, 4, 4, 4]),
        ("F3[x,y]/(x*y)", [5, 4, 4, 4]),
    ],
)
def test_frobenius_pushforward_resolution_is_a_minimal_complex(dsl, totals):
    # scale p > 1, and step 0 starts from the relation span of the pushforward
    from ringkit.ghost import frobenius_pushforward

    res = minimal_resolution(frobenius_pushforward(parse_ring(dsl), 1), 3)
    assert res.betti.totals() == totals
    assert verify_d_squared(res.complex)
    assert resolution_is_minimal(res)


@pytest.mark.parametrize(
    "dsl",
    [
        "QQ[x]/(x^3)",
        "F2[x,y]/(x^2,y^3)",
        "QQ[x,y,z]/(x*y,y*z,x^3)",
        "F3[x,y]/(x*y,x^3+y^3)",
    ],
)
@pytest.mark.parametrize("D", [3, 5])
def test_resolution_through_d_is_a_prefix_of_a_wider_window(dsl, D):
    # the generators and differential columns found through degree D do
    # not depend on how far above D the window reaches
    k = residue_field_module(parse_ring(dsl))
    small = minimal_resolution(k, 4, D)
    wide = minimal_resolution(k, 4, D + 3)
    assert small.betti.entries == {
        (i, j): n for (i, j), n in wide.betti.entries.items() if j <= D
    }
    for i, f in small.complex.maps.items():
        assert wide.complex.maps[i].columns[: len(f.columns)] == f.columns, i


def test_degree_bound_below_generator_degree_rejected():
    R = parse_ring("QQ[x,y]/(x*y)")
    M = PresentedModule(R, (0, 3), ())
    with pytest.raises(ValidationError):
        minimal_resolution(M, 2, internal=1)


@pytest.mark.parametrize(
    "entry, bounds",
    [
        ("tor", (2, -2)),
        ("tor", (-1,)),
        ("resolution", (-1,)),
        ("resolution", (2, -1)),
        ("homology", (-1,)),
        ("koszul", (-1,)),
        ("koszul-annihilated", (-1,)),
        ("simplicial-conormal", (-1,)),
        ("simplicial-power", (-1,)),
        ("ideal-power", (2, 1, -1)),
        ("connectedness", (-1,)),
        ("aq", (4, -1)),
    ],
)
def test_negative_bounds_are_rejected(entry, bounds):
    from ringkit import simplicial
    from ringkit.koszul import koszul_homology_annihilated, koszul_homology_dims

    R = parse_ring("QQ[x,y]/(x*y)")
    k = residue_field_module(R)
    K = koszul_on_vars(R)
    tsa = simplicial.simplicial_koszul(R, R.variable_polys(), 3)
    call = {
        "tor": lambda: tor_dims(k, k, *bounds),
        "resolution": lambda: minimal_resolution(k, *bounds),
        "homology": lambda: homology_dims(K.complex, *bounds),
        "koszul": lambda: koszul_homology_dims(K, *bounds),
        "koszul-annihilated": lambda: koszul_homology_annihilated(K, *bounds),
        "simplicial-conormal": lambda: simplicial.SimplicialModule(
            tsa, "conormal", *bounds
        ),
        "simplicial-power": lambda: simplicial.SimplicialModule(
            tsa, ("power", 1), *bounds
        ),
        "ideal-power": lambda: simplicial.ideal_power_homotopy(tsa, *bounds),
        "connectedness": lambda: simplicial.connectedness_defect(tsa, *bounds),
        "aq": lambda: simplicial.aq_dims(R, *bounds),
    }[entry]
    with pytest.raises(ValidationError):
        call()


def test_minimize_presentation_drops_dead_generator():
    R = parse_ring("F3[x,y]/(x*y)")
    amb = R.ambient
    # second generator equals x times the first: unit relation kills it
    M = PresentedModule(
        R,
        (1, 2),
        [{0: amb.var(0), 1: amb.const(-1)}],
    )
    Mm = minimize_presentation(M)
    assert Mm.gen_degrees == (1,)
    assert Mm.relations == ()


# ---------------------------------------------------------------------------
# Tor


def test_tor_of_k_with_k_over_regular_ring():
    R = parse_ring("QQ[x]")
    t = tor_dims(residue_field_module(R), residue_field_module(R), 3)
    assert t.totals() == [1, 1, 0, 0]


def test_betti_numbers_equal_tor_dimensions():
    # minimality makes the term ranks Tor dimensions
    for dsl in ["QQ[x,y]/(x*y)", "F2[x]/(x^2)", "QQ[x,y]"]:
        R = parse_ring(dsl)
        k = residue_field_module(R)
        beta = minimal_resolution(k, 4).betti
        tor = tor_dims(k, k, 4)
        assert beta.totals() == tor.totals(), dsl
        # bigraded, through the smaller of the two degree windows
        top = min(beta.degree_bound, tor.degree_bound)
        assert {e: v for e, v in beta.entries.items() if e[1] <= top} == {
            e: v for e, v in tor.entries.items() if e[1] <= top
        }, dsl


def test_tor_symmetry_on_small_modules():
    R = parse_ring("F2[x]/(x^2)")
    from ringkit.ghost import frobenius_pushforward

    k = residue_field_module(R)
    M = frobenius_pushforward(R, 1)
    left = tor_dims(k, M, 4).totals()
    right = tor_dims(M, k, 4).totals()
    assert left == right == [2, 2, 2, 2, 2]


def test_tor_against_trivial_complex_is_convolution():
    R = parse_ring("QQ[x,y]/(x*y)")
    k = residue_field_module(R)
    terms = [trivial_action_module(R, (0,)), trivial_action_module(R, (2,))]
    maps = [[{}]]
    C = TorCoefficients(terms, maps)
    t = tor_dims(k, C, 3)
    betti = minimal_resolution(k, 3).betti.totals()
    expected = [betti[0], betti[1] + betti[0], betti[2] + betti[1], betti[3] + betti[2]]
    assert t.totals() == expected


def test_tor_coefficients_check_their_maps():
    R = parse_ring("QQ[x,y]/(x*y)")
    x = R.ambient.var(0)
    terms = [trivial_action_module(R, (0,)), trivial_action_module(R, (1,))]
    assert TorCoefficients(terms, [[{0: x}]]).maps == [({0: x},)]
    for maps in ([], [[{1: x}]], [[{0: x * x}]]):  # missing, outside rank, degree
        with pytest.raises(ValidationError):
            TorCoefficients(terms, maps)


def test_tor_with_given_degree_bound_resolves_once(monkeypatch):
    # the window through D 4 reads the resolution through D 5 only
    from ringkit import homalg

    calls = []
    resolve = homalg.minimal_resolution

    def recording(M, homological, internal=None):
        calls.append((homological, internal))
        return resolve(M, homological, internal)

    monkeypatch.setattr(homalg, "minimal_resolution", recording)
    k = residue_field_module(parse_ring("QQ[x,y,z]/(x*y,y*z,x^3)"))
    assert tor_dims(k, k, 4, 4).totals() == [1, 3, 6, 12, 13]
    assert calls == [(5, 5)]


def test_betti_table_text_and_json():
    R = parse_ring("QQ[x,y]")
    table = minimal_resolution(residue_field_module(R), 3).betti
    js = table.to_json()
    assert js["rescale"] == 1
    assert js["truncation"]["N"] == 3
    assert [1, 2, 1, 0] == js["totals"]
    text = table.to_text()
    assert "total" in text


def test_beta_zero_row_matches_minimal_generators_of_scaled_module():
    # the pushforward over the char-3 axes has four dead generators;
    # after minimization the zeroth Betti row lists the survivors
    from ringkit.ghost import frobenius_pushforward

    R = parse_ring("F3[x,y]/(x*y)")
    M = frobenius_pushforward(R, 1)
    res = minimal_resolution(M, 2)
    assert res.betti.rescale == 3
    assert res.betti.total(0) == 5
    row0 = sorted(
        j
        for (i, j), count in res.betti.entries.items()
        for _ in range(count)
        if i == 0
    )
    assert row0 == sorted(minimize_presentation(M).gen_degrees)


def test_minimized_second_frobenius_pushforward_keeps_121_generators():
    from ringkit.ghost import frobenius_pushforward

    M = frobenius_pushforward(parse_ring("F3[x,y,z]/(x*y-z^2)"), 2)
    assert len(M.gen_degrees) == 729
    Mm = minimize_presentation(M)
    assert len(Mm.gen_degrees) == 121
    betti = minimal_resolution(M, 1).betti
    row0 = sorted(j for (i, j), n in betti.entries.items() for _ in range(n) if i == 0)
    assert row0 == sorted(Mm.gen_degrees)


def test_free_module_strands_respect_scale():
    R = parse_ring("F2[x]")
    M = GradedFreeModule(R, (0, 1), scale=2)
    from ringkit.homalg import free_strand_basis

    assert [lab for lab in free_strand_basis(M, 0)] == [(0, (0,))]
    assert [lab for lab in free_strand_basis(M, 1)] == [(1, (0,))]
    # degree 2 = x * generator 0; degree 3 = x * generator 1
    assert free_strand_basis(M, 2) == [(0, (1,))]
    assert free_strand_basis(M, 3) == [(1, (1,))]
