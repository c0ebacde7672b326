"""Correctness checks for every benchmark job.

Each check tests the job's output against an identity that the timed
path does not compute, or against a value pinned in the ROADMAP
baseline or the bundled corpus:

* koszul: for each strand j, sum_i (-1)^i dim H_{i,j} equals
  sum_i (-1)^i C(n, i) dim R_{j-i};
* betti and tor: (sum_{i,j} (-1)^i beta_{i,j} t^j) * HS_R(t) = 1 through
  degree min(N, D); Tor(k, k) equals the Betti table of the same ring;
  d^2 = 0 on the resolution (F_p seeded jobs);
* Frobenius Tor and kunz: (sum (-1)^i T_i(t)) * HS_R(t^q) = HS_R(t),
  where the pushforward has the Hilbert series of R;
* simplicial: the normalized homology equals the classical Koszul
  homology in every strand with i < L;
* ideal powers of a connected, levelwise free algebra: pi_i(I^n) = 0
  for i < n;
* aq on a complete intersection: dims (embdim, codim, 0, ...);
* classify: the input generators and every S-pair of the basis the job
  computed reduce to zero (pair criteria off), and the verdict,
  dimension and minimal generator count agree with an independent
  computation.

A check returns None when the output is right and a one-line reason
otherwise.  Hilbert functions come from ringkit's quotient_basis counts
on a freshly parsed ring.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd


def hilbert_function(mods, text, top):
    R = mods.polycore.parse_ring(text)
    return [len(mods.groebner.quotient_basis(R, d)) for d in range(top + 1)], R


def _series_product(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def _alternating_series(entries, top):
    """sum (-1)^i dim_{i,j} t^j over entries [[i, j, dim], ...]."""
    out = [0] * (top + 1)
    for i, j, v in entries:
        if j <= top:
            out[j] += (-1) ** i * v
    return out


def _cli_ok(result):
    code, report = result["code"], result["report"]
    if code != 0 or report is None:
        return f"exit code {code}"
    return None


# ---------------------------------------------------------------------------
# Homological layers


def check_koszul(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    res = result["report"]["results"]
    if res["warnings"]:
        return f"warnings {res['warnings']}"
    D = res["degree_bound"]
    hf, R = hilbert_function(mods, job["argv"][1], D)
    n = R.embdim
    h = {}
    for i, j, d in res["entries"]:
        h[(i, j)] = d
    for j in range(D + 1):
        lhs = sum((-1) ** i * h.get((i, j), 0) for i in range(n + 1))
        rhs = sum((-1) ** i * comb(n, i) * hf[j - i] for i in range(min(n, j) + 1))
        if lhs != rhs:
            return f"Euler characteristic of strand {j}: {lhs} != {rhs}"
    want = job.get("expect_totals")
    if want is not None and res["totals"] != want:
        return f"totals {res['totals']} != pinned {want}"
    return None


def check_generator_change(mods, job, result, ctx):
    return None if result is True else f"iso check returned {result!r}"


def _resolution_identity(mods, ring, entries, N, D):
    top = min(N, D)
    hf, R = hilbert_function(mods, ring, top)
    prod = _series_product(_alternating_series(entries, top), hf, top)
    if prod != [1] + [0] * top:
        return f"P(-t)*HS_R(t) = {prod} through degree {top}", R
    return None, R


def check_betti(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    res = result["report"]["results"]
    N, D = res["truncation"]["N"], res["truncation"]["D"]
    ring = job["argv"][1]
    bad, R = _resolution_identity(mods, ring, res["entries"], N, D)
    if bad:
        return bad
    want = job.get("expect_totals")
    if want is not None and res["totals"] != want:
        return f"totals {res['totals']} != pinned {want}"
    ctx[("betti", ring, N)] = res
    if not job["anchor"] and job["field"] == "Fp":
        homalg = mods.homalg
        resolution = homalg.minimal_resolution(homalg.residue_field_module(R), N)
        if not homalg.verify_d_squared(resolution.complex):
            return "d^2 != 0 on the resolution"
    return None


def check_tor_k(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    res = result["report"]["results"]
    N, D = res["truncation"]["N"], res["truncation"]["D"]
    ring = job["argv"][1]
    bad, _ = _resolution_identity(mods, ring, res["entries"], N, D)
    if bad:
        return bad
    betti = ctx.get(("betti", ring, N))
    if betti is None:
        return "no Betti table of the same ring to compare with"
    if betti["totals"] != res["totals"]:
        return f"Tor totals {res['totals']} != Betti totals {betti['totals']}"
    top = min(D, betti["truncation"]["D"])
    a = sorted(e for e in res["entries"] if e[1] <= top)
    b = sorted(e for e in betti["entries"] if e[1] <= top)
    if a != b:
        return "Tor(k, k) entries differ from the Betti table"
    return None


def _frobenius_identity(mods, ring, tor):
    """(sum (-1)^i T_i(t)) * HS_R(t^q) = HS_R(t) below the truncation."""
    R = mods.polycore.parse_ring(ring)
    q = R.characteristic
    N, D = tor["truncation"]["N"], tor["truncation"]["D"]
    top = min(q * (N + 1) - 1, D)
    hf, _ = hilbert_function(mods, ring, top)
    stretched = [0] * (top + 1)
    for d in range(top // q + 1):
        stretched[d * q] = hf[d]
    prod = _series_product(_alternating_series(tor["entries"], top), stretched, top)
    if prod != hf:
        return f"Tor series * HS_R(t^q) = {prod} != HS_R(t) = {hf}"
    return None


def check_tor_frobenius(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    return _frobenius_identity(mods, job["argv"][1], result["report"]["results"])


def check_kunz(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    res = result["report"]["results"]
    if res["consistent_with_kunz"] is not True:
        return "not consistent with Kunz"
    return _frobenius_identity(mods, job["argv"][1], res["tor"])


# ---------------------------------------------------------------------------
# Simplicial layer


def check_simplicial(mods, job, result, ctx):
    R = mods.polycore.parse_ring(job["ring"])
    seq = [R.ambient.var(i) for i in job["seq"]]
    L, D = job["L"], job["D"]
    table = mods.homalg.homology_dims(mods.koszul.koszul(R, seq).complex, D)
    classical = {k: v for k, v in table.entries.items() if k[0] < L}
    if result != classical:
        return f"normalized {sorted(result.items())} != classical {sorted(classical.items())}"
    return None


def check_ideal_power(mods, job, result, ctx):
    return None if result == {} else f"pi_i(I^n) nonzero below n: {result}"


def check_aq(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    dims = result["report"]["results"]["aq_dims"]
    R = mods.polycore.parse_ring(job["argv"][1])
    levels = int(job["argv"][job["argv"].index("--levels") + 1])
    want = [R.embdim, len(R.generators)] + [0] * (levels - 3)
    want = job.get("expect_dims", want)
    if dims != want:
        return f"aq dims {dims} != {want}"
    return None


# ---------------------------------------------------------------------------
# Groebner layer: an independent reduction with packed monomials
#
# A monomial m in n variables is packed into one int whose order is
# degrevlex: deg(m)*B^n + sum_k (B-1-m_k)*B^k.  Then the packed product
# of two monomials is P(a) + P(b) minus a constant, so shifting a
# polynomial by a monomial is an integer addition, and a heap of packed
# keys yields the leading term of the remainder.

_B = 1 << 8


def _packer(n):
    def pack(m):
        return sum(m) * _B ** n + sum((_B - 1 - e) * _B ** k for k, e in enumerate(m))

    def unpack(key):
        return tuple(_B - 1 - (key // _B ** k) % _B for k in range(n))

    return pack, unpack


def _field_ops(R):
    p = R.characteristic
    if p == 0:
        return (lambda c: Fraction(c)), (lambda a, b: a / b)
    return (lambda c: int(c) % p), (lambda a, b: a * pow(b, -1, p) % p)


def _integral(poly):
    """A rational polynomial scaled to coprime integer coefficients."""
    den = 1
    for c in poly.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {k: int(c * den) for k, c in poly.items()}
    g = 0
    for c in out.values():
        g = gcd(g, c)
    return {k: c // g for k, c in out.items()}


def _reduces_to_zero(f, leads, p, unpack):
    """Full division of {packed: coeff} by leads; True iff the remainder is 0.

    Over F_p (p > 0) coefficients are residues.  Over QQ (p == 0) they
    are integers and each step is a pseudo-division: the remainder is
    scaled by the divisor's leading coefficient, which does not change
    whether it reduces to zero, and its content is divided out.
    """
    work = dict(f)
    heap = [-k for k in work]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = work.pop(k, 0)
        if c == 0:
            continue
        m = unpack(k)
        for lk, lexp, lc, tail in leads:
            if all(a <= b for a, b in zip(lexp, m)):
                shift = k - lk
                if p:
                    s = c * pow(lc, -1, p) % p
                else:
                    g = gcd(lc, c)
                    scale, s = lc // g, c // g
                    if scale != 1:
                        for key in work:
                            work[key] *= scale
                for t, tc in tail:
                    key = t + shift
                    old = work.get(key)
                    v = (old or 0) - s * tc
                    if p:
                        v %= p
                    if v == 0:
                        work.pop(key, None)
                    else:
                        work[key] = v
                        if old is None:
                            heapq.heappush(heap, -key)
                if not p and work:
                    content = 0
                    for v in work.values():
                        content = gcd(content, v)
                        if content == 1:
                            break
                    if content > 1:
                        for key in work:
                            work[key] //= content
                break
        else:
            return False
    return True


def _gb_check(gens, basis, n, p):
    """None if gens reduce to 0 and every S-pair of basis reduces to 0."""
    pack, unpack = _packer(n)

    def packed(g):
        g = {pack(m): c for m, c in g.items()}
        return {k: int(c) % p for k, c in g.items()} if p else _integral(g)

    polys = [packed(g) for g in basis]
    leads = []
    for g in polys:
        lk = max(g)
        leads.append((lk, unpack(lk), g[lk], [(t, c) for t, c in g.items() if t != lk]))
    for g in gens:
        if not _reduces_to_zero(packed(g), leads, p, unpack):
            return "an input generator does not reduce to zero"
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            (ka, ea, ca, _), (kb, eb, cb, _) = leads[a], leads[b]
            lcm = pack(tuple(max(x, y) for x, y in zip(ea, eb)))
            if p:
                sa, sb = pow(ca, -1, p), -pow(cb, -1, p)
            else:
                g = gcd(ca, cb)
                sa, sb = cb // g, -(ca // g)
            spoly = {}
            for poly, lead, s in ((polys[a], ka, sa), (polys[b], kb, sb)):
                shift = lcm - lead
                for t, c in poly.items():
                    key = t + shift
                    v = spoly.get(key, 0) + s * c
                    spoly[key] = v % p if p else v
            spoly = {k: c for k, c in spoly.items() if c != 0}
            if not _reduces_to_zero(spoly, leads, p, unpack):
                return f"S-pair ({a}, {b}) does not reduce to zero"
    return None


def _key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _krull_dim(leads, n):
    best = 0
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    for mask in range(2 ** n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) > best and all(not s <= subset for s in supports):
            best = len(subset)
    return best


def _span_rank(vectors, norm, div):
    rows = [dict(v) for v in vectors]
    rank = 0
    while rows:
        row = rows.pop()
        row = {k: c for k, c in row.items() if c != 0}
        if not row:
            continue
        rank += 1
        piv = max(row)
        for other in rows:
            if other.get(piv, 0) != 0:
                s = div(other[piv], row[piv])
                for k, c in row.items():
                    other[k] = norm(other.get(k, 0) - s * c)
    return rank


def check_classify(mods, job, result, ctx):
    bad = _cli_ok(result)
    if bad:
        return bad
    rep = result["report"]["results"]
    if len(result["rings"]) != 1:
        return f"classify ran on {len(result['rings'])} rings"
    R = result["rings"][0]
    norm, div = _field_ops(R)
    basis = [dict(g.terms) for g in mods.groebner.ring_groebner(R).polys]
    bad = _gb_check([g.terms for g in R.generators], basis, R.embdim,
                    R.characteristic)
    if bad:
        return bad
    dim = _krull_dim([max(g, key=_key) for g in basis], R.embdim)
    if rep["dim"] != dim or rep["embdim"] != R.embdim:
        return f"dim {rep['dim']} != {dim}"
    degrees = {g.degree() for g in R.generators}
    if len(degrees) <= 1:
        mu = _span_rank([g.terms for g in R.generators], norm, div)
        if rep["num_min_gens"] != mu:
            return f"minimal generators {rep['num_min_gens']} != {mu}"
    mu = rep["num_min_gens"]
    verdict = ("regular" if mu == 0 else
               "complete_intersection" if mu == R.embdim - dim else "other")
    if rep["verdict"] != verdict:
        return f"verdict {rep['verdict']} != {verdict}"
    want = job.get("expect")
    if want is not None:
        got = {k: rep[k] for k in want}
        if got != want:
            return f"{got} != pinned {want}"
    return None


CHECKS = {
    "koszul": check_koszul,
    "generator_change": check_generator_change,
    "betti": check_betti,
    "tor_k": check_tor_k,
    "tor_frobenius": check_tor_frobenius,
    "kunz": check_kunz,
    "simplicial": check_simplicial,
    "ideal_power": check_ideal_power,
    "aq": check_aq,
    "classify": check_classify,
}


def check(mods, job, result, ctx):
    """None when the job's result is right, else a one-line reason."""
    try:
        return CHECKS[job["check"]](mods, job, result, ctx)
    except Exception as exc:  # a crashing check is a failed job, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
