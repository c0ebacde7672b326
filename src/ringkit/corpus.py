"""Example corpus: plain-text expectation records and their verifier.

A corpus file holds one stanza per ring, blank-line separated:

    name: coordinate-axes
    ring: QQ[x,y]/(x*y)
    map: {x->x, y->0}
    expect.classify: complete_intersection [DIRECT]
    expect.aq: 2,1,0 [ORACLE: strandwise replacement homology]

Every expectation carries a provenance tag so reviewers can see where
a number comes from: LIT (a worked value from the literature this
checks against), ORACLE (independently recomputed, e.g. brute-force
kernels), DIRECT (immediate from definitions).  An optional note
follows the tag after a colon.
"""

from __future__ import annotations

import re
from importlib import resources

from . import ghost, homalg, koszul, simplicial
from .errors import ValidationError
from .polycore import parse_map, parse_ring

_TAGS = ("LIT", "ORACLE", "DIRECT")
_EXPECT_RE = re.compile(
    r"^expect\.(?P<key>[a-z_0-9]+):\s*(?P<value>.*?)\s*"
    r"\[(?P<tag>[A-Z]+)(?::\s*(?P<note>[^\]]*))?\]$"
)


class CorpusEntry:
    def __init__(self, name, ring_text, map_text, expectations):
        self.name = name
        self.ring_text = ring_text
        self.map_text = map_text
        self.expectations = expectations  # list of (key, value, tag, note)


def parse_corpus(text: str):
    entries = []
    current = {}
    expectations = []

    def flush():
        if not current:
            return
        if "name" not in current or "ring" not in current:
            raise ValidationError("corpus stanza needs name: and ring: lines")
        entries.append(
            CorpusEntry(
                current["name"],
                current["ring"],
                current.get("map"),
                list(expectations),
            )
        )
        current.clear()
        expectations.clear()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        m = _EXPECT_RE.match(line)
        if m:
            tag = m.group("tag")
            if tag not in _TAGS:
                raise ValidationError(
                    f"line {lineno}: unknown provenance tag {tag!r}"
                )
            expectations.append(
                (m.group("key"), m.group("value"), tag, m.group("note"))
            )
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key in ("name", "ring", "map"):
                current[key] = value
                continue
            if key.startswith("expect."):
                raise ValidationError(
                    f"line {lineno}: expectation without a provenance tag"
                )
        raise ValidationError(f"line {lineno}: cannot parse corpus line {line!r}")
    flush()
    return entries


def _ints(value):
    return [int(v) for v in value.split(",") if v.strip() != ""]


def _run_expectation(entry: CorpusEntry, key: str, value: str):
    """Returns (actual value as string, matches: bool)."""
    R = parse_ring(entry.ring_text)
    if key == "classify":
        got = ghost.classify(R).verdict
        return got, got == value
    if key in ("embdim", "dim", "mu"):
        cls = ghost.classify(R)
        got = {"embdim": cls.embdim, "dim": cls.dim, "mu": cls.num_min_gens}[key]
        return str(got), got == int(value)
    if key == "aq":
        got = simplicial.aq_dims(R, 4).dims
        return ",".join(map(str, got)), got == _ints(value)
    if key == "betti_k":
        want = _ints(value)
        res = homalg.minimal_resolution(
            homalg.residue_field_module(R), len(want) - 1
        )
        got = res.betti.totals()
        return ",".join(map(str, got)), got == want
    if key == "koszul_h":
        table = koszul.koszul_homology_dims(koszul.koszul_on_maximal_ideal(R))
        got = table.totals()
        return ",".join(map(str, got)), got == _ints(value)
    if key == "kunz":
        rep = ghost.kunz_report(R, 1)
        got = "consistent" if rep.consistent else "inconsistent"
        return got, got == value
    if key == "frobenius_conormal_zero":
        _, zero = ghost.conormal_matrix(ghost.frobenius_map(R, 1))
        return str(zero).lower(), str(zero).lower() == value
    if key in ("conormal_zero", "contracting", "ci_koszul_ghost"):
        if entry.map_text is None:
            return "<no map>", False
        phi = ghost.validate_map(parse_map(entry.map_text, R, R), R, R)
        if key == "conormal_zero":
            _, zero = ghost.conormal_matrix(phi)
            return str(zero).lower(), str(zero).lower() == value
        if key == "contracting":
            j = ghost.is_contracting(phi)
            got = "none" if j is None else str(j)
            return got, got == value
        verdict = ghost.ci_koszul_ghost(phi)
        return verdict.status, verdict.status == value
    raise ValidationError(f"unknown expectation key {key!r}")


def bundled_corpus_text() -> str:
    return (
        resources.files("ringkit").joinpath("data/corpus.txt").read_text("utf-8")
    )


def corpus_verify(path=None) -> dict:
    """Run every corpus expectation; returns a summary dict.

    Each entry also gets an automatic round-trip check: the canonical
    printing of the parsed ring must reparse to an equal presentation.
    """
    if path is None:
        text = bundled_corpus_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = parse_corpus(text)
    rows = []
    failures = 0
    for entry in entries:
        R = parse_ring(entry.ring_text)
        roundtrip = parse_ring(R.to_dsl()) == R
        rows.append((entry.name, "roundtrip", "true", str(roundtrip).lower(), roundtrip))
        if not roundtrip:
            failures += 1
        for key, value, tag, _ in entry.expectations:
            got, ok = _run_expectation(entry, key, value)
            rows.append((entry.name, key, value, got, ok))
            if not ok:
                failures += 1
    width_name = max((len(r[0]) for r in rows), default=4)
    width_key = max((len(r[1]) for r in rows), default=3)
    lines = []
    for name, key, want, got, ok in rows:
        status = "ok  " if ok else "FAIL"
        lines.append(
            f"{status} {name:<{width_name}} {key:<{width_key}} "
            f"expected={want} got={got}"
        )
    lines.append(
        f"{len(rows)} checks on {len(entries)} entries, {failures} failing"
    )
    return {
        "entries": len(entries),
        "checks": len(rows),
        "failures": failures,
        "rows": [
            {"entry": n, "key": k, "expected": w, "got": g, "ok": ok}
            for n, k, w, g, ok in rows
        ],
        "text": "\n".join(lines),
    }
