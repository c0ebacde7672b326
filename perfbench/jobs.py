"""Seeded job lists for the four benchmark workloads.

A job is a plain dict, so the whole list can be written to the run
record and compared between runs.  Every job names its coefficient
field ("QQ" or "Fp"), how it is run ("cli" argv or a named public
call), and what the checker must verify.

Seeded rings are built from blocks of variables that share no
variable, so each ring's Hilbert function is fixed by its stratum
(block shapes and degrees) while the seed picks the variables, the
trailing monomials, the coefficients and the prime.  That
keeps the cost of a job list steady from seed to seed without fixing
the inputs themselves.  This module uses only the standard library:
generating a job list never runs ringkit code.
"""

from __future__ import annotations

import random

VARS = ("x", "y", "z", "w", "v", "u", "t")
PRIMES = (101, 7919, 32003, 65521)


# ---------------------------------------------------------------------------
# Polynomial text helpers


def _mono(exps, names):
    parts = []
    for e, n in zip(exps, names):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append(f"{n}^{e}")
    return "*".join(parts)


def _random_exps(rng, k, d, exclude=()):
    """Exponent vector of total degree d over k variables, avoiding some."""
    while True:
        cuts = sorted(rng.randint(0, d) for _ in range(k - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        if exps not in exclude:
            return exps


def _term(c, mono):
    if c == 1:
        return mono
    return f"{c}*{mono}"


def _binomial(rng, names, d):
    """a^d + c*m with a the first of the names and m another monomial of degree d.

    a^d leads under every monomial order ringkit uses, so the initial
    ideal is fixed by the stratum; a binomial led by a mixed monomial
    such as a*b costs about a quarter more.
    """
    m1 = (d,) + (0,) * (len(names) - 1)
    m2 = _random_exps(rng, len(names), d, exclude=(m1,))
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    sign = "-" if c < 0 else "+"
    return f"{_mono(m1, names)} {sign} {_term(abs(c), _mono(m2, names))}"


def _block_gens(rng, kind, names, d):
    """Generators of one block; blocks in disjoint variables tensor together.

    kind "power": one variable, the generator x^d (Artinian in it).
    kind "hyper": one binomial a^d +- c*m of degree d in the block's
      variables (a pure power when the block has one variable).
    kind "pair": two variables a, b and the complete intersection
      (a^2 +- b^2, a*b); the coefficients are units in every
      characteristic.
    kind "square": two variables and a binomial basis of (a, b)^2.

    Shapes are fixed per kind, and only variables, monomials and
    coefficients are drawn, because monomial and binomial versions of
    one block differ several-fold in cost.
    """
    if kind == "power":
        return [f"{names[0]}^{d}"]
    if kind == "hyper":
        if len(names) == 1:
            return [f"{names[0]}^{d}"]
        return [_binomial(rng, names, d)]
    a, b = names
    if kind == "pair":
        sign = rng.choice("+-")
        return [f"{a}^2 {sign} {b}^2", f"{a}*{b}"]
    if kind == "square":
        c = rng.choice((1, 2, 3))
        return [f"{a}^2 + {_term(c, f'{a}*{b}')}", f"{a}*{b} - {b}^2", f"{b}^2"]
    raise ValueError(f"unknown block kind {kind!r}")


def seeded_ring(rng, nvars, blocks):
    """(variables, generator texts) for a stratum.

    blocks is a list of (kind, size, degree); variables left over after
    the blocks are free.  The seed permutes which variables each block
    uses, so the same stratum yields differently labelled rings.
    """
    variables = list(VARS[:nvars])
    pool = list(variables)
    rng.shuffle(pool)
    gens = []
    for kind, size, d in blocks:
        names, pool = pool[:size], pool[size:]
        names.sort(key=variables.index)
        gens.extend(_block_gens(rng, kind, names, d))
    return variables, gens


def ring_text(field, variables, gens):
    head = f"{field}[{','.join(variables)}]"
    return head + ("/(" + ",".join(gens) + ")" if gens else "")


def _field_pair(rng, variables, gens):
    """The same ring over QQ and over one F_p."""
    p = rng.choice(PRIMES)
    return [("QQ", ring_text("QQ", variables, gens)), ("Fp", ring_text(f"F{p}", variables, gens))]


# ---------------------------------------------------------------------------
# Workloads


def _koszul_jobs(rng):
    jobs = []
    # (count, nvars, blocks): Artinian and one-dimensional rings in 3-4
    # variables, whose time goes mostly to nf, and two-dimensional
    # quadrics in 3 variables, where dense rank over QQ does over 80% of
    # the work and which carry most of the workload's time.
    # Two-dimensional rings in 4 variables cost seconds each at the
    # default bound and are left to the anchors.  The counts put the
    # median job among the pair quotients over QQ and the tail job among
    # the quadrics over F_p, each inside a stratum rather than on a gap.
    strata = [
        (3, 3, [("power", 1, 2), ("power", 1, 2), ("power", 1, 3)]),
        (3, 3, [("pair", 2, 2), ("power", 1, 2)]),
        (3, 3, [("hyper", 2, 2), ("power", 1, 2)]),
        (3, 3, [("square", 2, 2)]),
        (5, 3, [("hyper", 3, 2)]),
        (4, 4, [("pair", 2, 2), ("power", 1, 2), ("power", 1, 2)]),
        (2, 4, [("hyper", 2, 2), ("power", 1, 2), ("power", 1, 2)]),
    ]
    for count, nvars, blocks in strata:
        for _ in range(count):
            variables, gens = seeded_ring(rng, nvars, blocks)
            for field, text in _field_pair(rng, variables, gens):
                jobs.append({"kind": "cli", "field": field, "argv": ["koszul", text],
                             "check": "koszul"})
    # Generator change x_i -> x_i + c*x_j on the variables of a ring.
    for nvars, blocks in [
        (3, [("pair", 2, 2), ("power", 1, 2)]),
        (3, [("hyper", 2, 2), ("power", 1, 2)]),
    ]:
        variables, gens = seeded_ring(rng, nvars, blocks)
        i, j = rng.sample(range(nvars), 2)
        c = rng.choice((1, 2, 3))
        seq_b = list(variables)
        seq_b[i] = f"{variables[i]} + {_term(c, variables[j])}"
        for field, text in _field_pair(rng, variables, gens):
            jobs.append({"kind": "call", "call": "generator_change", "field": field,
                         "ring": text, "seq_a": list(variables), "seq_b": seq_b,
                         "check": "generator_change"})
    return jobs


def _resolution_jobs(rng):
    jobs = []
    strata = [
        # (count, nvars, blocks, N)
        (3, 2, [("pair", 2, 2)], 6),
        (6, 3, [("pair", 2, 2), ("power", 1, 2)], 5),
        (3, 3, [("square", 2, 2), ("power", 1, 2)], 4),
        (3, 3, [("hyper", 2, 2), ("power", 1, 3)], 3),
        (2, 4, [("pair", 2, 2), ("power", 1, 2), ("power", 1, 2)], 3),
    ]
    for count, nvars, blocks, N in strata:
        for _ in range(count):
            variables, gens = seeded_ring(rng, nvars, blocks)
            for field, text in _field_pair(rng, variables, gens):
                n = ["--homological-bound", str(N)]
                jobs.append({"kind": "cli", "field": field, "argv": ["betti", text] + n,
                             "check": "betti"})
                jobs.append({"kind": "cli", "field": field,
                             "argv": ["tor", text, "--with", "k"] + n, "check": "tor_k"})
    # Frobenius pushforwards need a small prime: q = p^e generators per variable.
    for nvars, blocks, p, N in [
        (2, [("hyper", 2, 2)], 3, 4),
        (2, [("pair", 2, 2)], 2, 4),
        (3, [("hyper", 2, 2), ("power", 1, 2)], 2, 3),
    ]:
        variables, gens = seeded_ring(rng, nvars, blocks)
        text = ring_text(f"F{p}", variables, gens)
        n = ["--homological-bound", str(N)]
        jobs.append({"kind": "cli", "field": "Fp",
                     "argv": ["tor", text, "--with", "frobenius"] + n,
                     "check": "tor_frobenius"})
        jobs.append({"kind": "cli", "field": "Fp", "argv": ["kunz", text] + n,
                     "check": "kunz"})
    return jobs


def _simplicial_jobs(rng):
    jobs = []
    strata = [
        # (count, nvars, blocks, cells, L, D): Koszul cells on `cells` variables.
        # The third hypersurface lifts the median job off the gap between
        # the cheap F_p jobs and the QQ jobs above them.
        (4, 1, [("power", 1, 3)], 1, 4, 10),
        (3, 2, [("hyper", 2, 2)], 1, 4, 10),
        (4, 2, [("pair", 2, 2)], 1, 4, 9),
        (1, 3, [("hyper", 2, 2), ("power", 1, 2)], 1, 4, 8),
        (1, 2, [("hyper", 2, 2)], 2, 3, 8),
    ]
    for count, nvars, blocks, cells, L, D in strata:
        for _ in range(count):
            variables, gens = seeded_ring(rng, nvars, blocks)
            idx = sorted(rng.sample(range(nvars), cells))
            for field, text in _field_pair(rng, variables, gens):
                jobs.append({"kind": "call", "call": "simplicial_koszul", "field": field,
                             "ring": text, "seq": idx, "L": L, "D": D,
                             "check": "simplicial"})
    # Powers of the augmentation ideal of a levelwise free, connected
    # algebra: Koszul cells on every variable of a polynomial ring.
    for nvars, power, L, D in [(1, 2, 4, 8), (2, 2, 3, 6)]:
        variables = list(VARS[:nvars])
        for field, text in _field_pair(rng, variables, []):
            jobs.append({"kind": "call", "call": "ideal_power", "field": field,
                         "ring": text, "power": power, "L": L, "D": D,
                         "check": "ideal_power"})
    for nvars, blocks, L in [
        (2, [("hyper", 2, 2)], 5),
        (3, [("pair", 2, 2), ("power", 1, 3)], 4),
    ]:
        variables, gens = seeded_ring(rng, nvars, blocks)
        for field, text in _field_pair(rng, variables, gens):
            jobs.append({"kind": "cli", "field": field,
                         "argv": ["aq", text, "--levels", str(L)], "check": "aq"})
    return jobs


def _dense_forms(rng, variables, count, d):
    """count forms of degree d with every monomial, coefficients in +-{1, 2, 3}.

    With no coefficient zero, the forms are generic and the cost of a
    basis varies little with the seed: one coefficient of 0 in a few
    makes the ideal special and its basis up to a third cheaper.
    """
    monos = []

    def rec(prefix, left, k):
        if k == len(variables) - 1:
            monos.append(tuple(prefix + [left]))
            return
        for e in range(left, -1, -1):
            rec(prefix + [e], left - e, k + 1)

    rec([], d, 0)
    forms = []
    for _ in range(count):
        text = ""
        for m in monos:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            sign = "-" if c < 0 else "+"
            text += f" {sign} {_term(abs(c), _mono(m, variables))}"
        forms.append(text[3:] if text.startswith(" + ") else "-" + text[3:])
    return forms


def _groebner_jobs(rng):
    jobs = []
    # (count, nvars, ngens, degree).  Jobs of one stratum cost about the
    # same, so the counts are set for the median and the tail to fall
    # inside a stratum, not on the gap between two, where they would
    # jump with the machine's speed: the median among the 4 quadrics in
    # 5 variables over QQ, the tail among the 5 quadrics over QQ.
    for count, nvars, ngens, d in [
        (12, 5, 4, 2),
        (5, 5, 5, 2),
        (1, 6, 4, 2),
        (1, 6, 5, 2),
        (1, 7, 4, 2),
        (1, 5, 3, 3),
    ]:
        for _ in range(count):
            variables = list(VARS[:nvars])
            gens = _dense_forms(rng, variables, ngens, d)
            for field, text in _field_pair(rng, variables, gens):
                jobs.append({"kind": "cli", "field": field, "argv": ["classify", text],
                             "check": "classify"})
    return jobs


# ---------------------------------------------------------------------------
# Anchors: fixed jobs from the ROADMAP baseline and the bundled corpus.


def _anchors(workload):
    if workload == "koszul":
        out = []
        for gens, totals in [("x*y,z*w", [1, 2, 1, 0, 0]), ("x*y*z", [1, 1, 0, 0])]:
            v = "x,y,z,w" if "w" in gens else "x,y,z"
            for field, fname in [("QQ", "QQ"), ("Fp", "F101")]:
                out.append({"kind": "cli", "field": field,
                            "argv": ["koszul", f"{fname}[{v}]/({gens})"],
                            "check": "koszul", "expect_totals": totals})
        # the body of test_generator_change_invariance
        for ring, a, b in [
            ("QQ[x,y]/(x*y)", ["x", "y"], ["x + y", "y"]),
            ("QQ[x,y]/(x*y)", ["x", "y"], ["x", "y"]),
            ("QQ[x,y,z]/(x*y*z)", ["x", "y", "z"], ["x", "x + y", "z"]),
        ]:
            out.append({"kind": "call", "call": "generator_change", "field": "QQ",
                        "ring": ring, "seq_a": a, "seq_b": b,
                        "check": "generator_change"})
        return out
    if workload == "resolution":
        out = []
        for field, fname in [("QQ", "QQ"), ("Fp", "F32003")]:
            out.append({"kind": "cli", "field": field,
                        "argv": ["betti", f"{fname}[x,y,z,w]/(x^2,y^2,z^2,w^2,x*y)",
                                 "--homological-bound", "6"],
                        "check": "betti", "expect_totals": [1, 4, 11, 26, 57, 120, 247]})
        out.append({"kind": "cli", "field": "Fp",
                    "argv": ["tor", "F3[x,y]/(x*y)", "--with", "frobenius"],
                    "check": "tor_frobenius"})
        return out
    if workload == "simplicial":
        out = [{"kind": "cli", "field": "QQ",
                "argv": ["aq", "QQ[x,y,z,w]/(x^2,y^2,z^2,w^2)", "--levels", "6"],
                "check": "aq", "expect_dims": [4, 4, 0, 0, 0]}]
        # the body of test_criterion_02_simplicial_vs_classical_koszul
        for ring, idx in [
            ("F2[x]/(x^2)", [0]),
            ("F2[x]/(x^2)", [0, 0]),
            ("QQ[x,y]/(x*y)", [0]),
            ("QQ[x,y]/(x*y)", [1]),
            ("QQ[x,y]/(x*y)", [0, 1]),
        ]:
            out.append({"kind": "call", "call": "simplicial_koszul",
                        "field": "QQ" if ring.startswith("QQ") else "Fp",
                        "ring": ring, "seq": idx, "L": 4, "D": 10, "check": "simplicial"})
        return out
    if workload == "groebner":
        # classification pinned in the bundled corpus
        pinned = [
            ("F2[x]/(x^2)", "complete_intersection", 0, 1),
            ("F2[x,y]", "regular", 2, 0),
            ("F3[x,y]/(x*y)", "complete_intersection", 1, 1),
            ("QQ[x]", "regular", 1, 0),
            ("QQ[x,y]/(x*y)", "complete_intersection", 1, 1),
            ("QQ[x,y]/(y^3)", "complete_intersection", 1, 1),
            ("QQ[x,y,z]/(x*y*z)", "complete_intersection", 2, 1),
            ("QQ[x,y]/(x^2,x*y,y^2)", "other", 0, 3),
        ]
        return [{"kind": "cli", "field": "QQ" if r.startswith("QQ") else "Fp",
                 "argv": ["classify", r], "check": "classify",
                 "expect": {"verdict": v, "dim": dim, "num_min_gens": mu}}
                for r, v, dim, mu in pinned]
    raise ValueError(workload)


WORKLOADS = {
    "koszul": _koszul_jobs,
    "resolution": _resolution_jobs,
    "simplicial": _simplicial_jobs,
    "groebner": _groebner_jobs,
}


def job_list(workload, seed):
    """The anchors and the seeded jobs, each with a stable id, shuffled."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"ringkit-bench:{workload}:{seed}")
    anchors = _anchors(workload)
    for job in anchors:
        job["anchor"] = True
    seeded = WORKLOADS[workload](rng)
    for job in seeded:
        job["anchor"] = False
    jobs = anchors + seeded
    for n, job in enumerate(jobs):
        job["id"] = f"{workload}-{n:03d}"
    # Jobs of one stratum cost about the same; run in stratum order they
    # would all fall into the same few seconds and share that stretch's
    # machine speed, which then moves the median job time as a block.
    rng.shuffle(jobs)
    return jobs
