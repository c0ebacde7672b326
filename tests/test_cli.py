import argparse
import json

import pytest

from ringkit.bounds import HOMOLOGICAL
from ringkit.cli import run


def test_classify_command(capsys):
    code, report = run(["classify", "QQ[x,y]/(x^2,x*y,y^2)"])
    out = capsys.readouterr().out
    assert code == 0
    assert report["results"]["verdict"] == "other"
    assert "other" in out


def test_aq_command_reproduces_worked_dims():
    code, report = run(["aq", "F2[x]/(x^2)", "--levels", "4"])
    assert code == 0
    assert report["results"]["aq_dims"] == [1, 1, 0]


def test_ghost_command():
    code, report = run(
        ["ghost", "QQ[x,y]/(y^3)", "--map", "{x->x,y->y^2}"]
    )
    assert code == 0
    assert report["results"]["conormal_zero"] is False
    assert report["results"]["koszul_ghost"] is True


def test_koszul_command():
    code, report = run(["koszul", "QQ[x,y]/(x*y)"])
    assert code == 0
    assert report["results"]["totals"] == [1, 1, 0]
    assert report["results"]["ranks"] == [1, 2, 1]


def test_koszul_command_with_explicit_sequence():
    # (x^2, y) is a regular sequence: homology is the two-dimensional
    # quotient in degree zero
    code, report = run(["koszul", "QQ[x,y]", "--sequence", "x^2,y"])
    assert code == 0
    assert report["results"]["totals"] == [2, 0, 0]


def test_koszul_partial_sequence_keeps_the_full_route():
    # (x, y) is not a generating set of m: every strand is ranked, and
    # no Taylor support certifies or flags the window
    code, report = run(["koszul", "QQ[x,y,z]/(x*y,z^2)", "--sequence", "x,y"])
    assert code == 0
    results = report["results"]
    assert results["entries"] == [[0, 0, 1], [0, 1, 1], [1, 2, 1], [1, 3, 1]]
    assert results["totals"] == [2, 2, 0]
    assert results["warnings"] == []


def test_koszul_on_a_linear_change_of_variables_matches_the_variables():
    ring = "QQ[x,y,z]/(x*y,z^2)"
    _, changed = run(["koszul", ring, "--sequence", "x+y,y,z"])
    _, variables = run(["koszul", ring])
    for key in ("entries", "totals", "degree_bound", "warnings"):
        assert changed["results"][key] == variables["results"][key]
    assert variables["results"]["entries"] == [[0, 0, 1], [1, 2, 2], [2, 4, 1]]


def test_betti_command():
    code, report = run(["betti", "QQ[x,y]/(x*y)", "--homological-bound", "4"])
    assert code == 0
    assert report["results"]["totals"] == [1, 2, 2, 2, 2]


def test_betti_and_tor_flag_totals_below_the_tate_bound():
    argv = ["QQ[x]/(x^5)", "--degree-bound", "3", "--homological-bound", "4"]
    flags = [f"betti-below-tate-bound:step-{i}" for i in (2, 3, 4)]
    for command in ("betti", "tor"):
        code, report = run([command] + argv)
        assert code == 3
        assert report["results"]["totals"] == [1, 1, 0, 0, 0]
        assert report["results"]["truncation"]["flags"] == flags


def test_betti_with_a_flag_does_not_report_termination():
    argv = ["betti", "QQ[x,y]/(x^3,y^3)", "--degree-bound", "3", "--homological-bound", "4"]
    code, report = run(argv)
    assert code == 3
    assert "syzygy-at-degree-bound:step-2" in report["results"]["truncation"]["flags"]
    assert report["results"]["terminated"] is False


def test_tor_command_against_k():
    code, report = run(["tor", "QQ[x]", "--with", "k", "--homological-bound", "3"])
    assert code == 0
    assert report["results"]["totals"] == [1, 1, 0, 0]


def test_tor_command_frobenius():
    code, report = run(
        ["tor", "F2[x]/(x^2)", "--with", "frobenius", "--homological-bound", "4"]
    )
    assert code == 0
    assert report["results"]["totals"] == [2, 2, 2, 2, 2]


def test_tor_command_frobenius_over_a_binomial_quotient():
    # x*(x-y) has two terms that land on one strand coordinate, so a
    # strand vector that overwrote instead of summing would show here
    code, report = run(
        ["tor", "F3[x,y]/(x^2-x*y)", "--with", "frobenius", "--homological-bound", "3"]
    )
    assert code == 0
    results = report["results"]
    assert results["totals"] == [5, 4, 4, 4]
    assert results["entries"] == [
        [0, 0, 1], [0, 1, 2], [0, 2, 2], [1, 4, 2], [1, 5, 2],
        [2, 7, 2], [2, 8, 2], [3, 10, 2], [3, 11, 2],
    ]
    assert all(dim > 0 for _, _, dim in results["entries"])


def test_kunz_command():
    code, report = run(["kunz", "F3[x,y]/(x*y)"])
    assert code == 0
    assert report["results"]["consistent_with_kunz"] is True


def test_ghost_trivial_command():
    code, report = run(["ghost-trivial", "F2[x]/(x^2)"])
    assert code == 0
    assert report["results"]["matches"] is True
    assert report["results"]["lhs_totals"] == [1, 2, 2, 2, 2, 2, 2]


# x*z + y^2 leads with y^2 under degrevlex and with x*z under deglex
_BINOMIAL = "F2[x,y,z]/(x*z+y^2)"

_BINOMIAL_COMMANDS = [
    ["classify", _BINOMIAL],
    ["koszul", _BINOMIAL],
    ["betti", _BINOMIAL, "--homological-bound", "4"],
    ["tor", _BINOMIAL, "--homological-bound", "3"],
    ["tor", _BINOMIAL, "--with", "frobenius", "--homological-bound", "3"],
    ["kunz", _BINOMIAL, "--homological-bound", "3"],
    ["aq", _BINOMIAL],
    ["ghost", _BINOMIAL, "--map", "{x->x^2,y->y^2,z->z^2}"],
    ["ghost-trivial", _BINOMIAL, "--homological-bound", "1"],
]

# per command: the keys of the --json "results", and of its "truncation"
_REPORT_KEYS = {
    "classify": ("dim embdim num_min_gens verdict", None),
    "koszul": ("degree_bound entries range ranks totals warnings", None),
    "betti": ("entries rescale terminated totals truncation", "D N flags"),
    "tor": ("entries totals truncation", "D N flags"),
    "kunz": (
        "classification consistent_with_kunz frobenius_conormal_zero power "
        "pushforward_rank ring tor",
        None,
    ),
    "aq": ("aq_dims ring strands truncation", "D L flags"),
    "ghost": (
        "ci_status classification conormal_matrix conormal_zero contracting_bound "
        "contracting_j ghost_verdict koszul_ghost koszul_ghost_reason map ring",
        None,
    ),
    "ghost-trivial": (
        "betti_totals flags koszul_homology_totals lhs_totals matches power "
        "required_stages_exceed rhs_totals ring stages_bound_satisfied",
        None,
    ),
}


@pytest.mark.parametrize("argv", _BINOMIAL_COMMANDS)
def test_json_output_is_deterministic(argv, capsys):
    reports = []
    for _ in range(2):
        run(argv + ["--json"])
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1]
    results = reports[0]["results"]
    keys, truncation = _REPORT_KEYS[argv[0]]
    assert sorted(results) == keys.split()
    if truncation is None:
        assert "truncation" not in results
    else:
        assert sorted(results["truncation"]) == truncation.split()


@pytest.mark.parametrize("argv", _BINOMIAL_COMMANDS)
def test_deglex_reaches_the_same_answers(argv, capsys):
    reports = []
    for order in ("degrevlex", "deglex"):
        code, _ = run(argv + ["--order", order, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        reports.append((report["inputs"], report["results"]))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# exit-code contract


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["classify", "QQ[x,y]/(x*y)"], 0),
        (["classify", "QQ[x,y]/(x*y"], 1),  # syntax error
        (["classify", "F4[x]/(x^2)"], 1),  # non-prime modulus
        (["classify", "QQ[x]/(x+x^2)"], 1),  # inhomogeneous generator
        (["nonsense"], 1),  # unknown subcommand
        (["aq", "QQ[x,y]/(x^2,x*y,y^2)"], 2),  # non-CI rejection
        (["ghost", "QQ[x,y]/(x*y)", "--map", "{x->x,y->x}"], 2),  # ill-defined
        (["kunz", "QQ[x]"], 2),  # characteristic zero
        (["ghost-trivial", "QQ[x,y]/(x*y)"], 2),
        (["koszul", "QQ[x,y]/(x*y)", "--degree-bound", "1"], 3),  # strand cut
        (["betti", "QQ[x,y]/(x*y)", "--degree-bound", "4", "--homological-bound", "8"], 3),
        # bounds are validated before anything is computed
        (["betti", "QQ[x,y]/(x*y)", "--homological-bound", "-1"], 1),
        (["tor", "QQ[x,y]/(x*y)", "--homological-bound", "-1"], 1),
        (["kunz", "F3[x,y]/(x*y)", "--homological-bound", "-1"], 1),
        (["ghost-trivial", "F2[x]/(x^2)", "--homological-bound", "-1"], 1),
        (["betti", "QQ[x,y]/(x*y)", "--degree-bound", "-1"], 1),
        (["koszul", "QQ[x,y]/(x*y)", "--degree-bound", "-2"], 1),
        (["koszul", "QQ[x,y]/(x*y)", "--degree-bound", "two"], 1),
        (["aq", "F2[x]/(x^2)", "--levels", "1"], 1),
        (["aq", "F2[x]/(x^2)", "--levels", "2"], 0),
        (["betti", "QQ[x,y]/(x*y)", "--homological-bound", "0"], 0),
        # a degree bound below the largest generator degree cuts AQ classes
        (["aq", "QQ[x,y]/(x^3,y^2)", "--levels", "4", "--degree-bound", "2"], 3),
        (["aq", "F2[x]/(x^2)", "--levels", "3", "--degree-bound", "1"], 3),
        (["aq", "QQ[x,y]/(x^3,y^2)", "--levels", "4", "--degree-bound", "3"], 0),
        (["tor", "F3[x,y]/(x^2-x*y)", "--with", "frobenius", "--homological-bound", "3"], 0),
        # Frobenius powers and the contracting search start at 1
        (["tor", "F3[x,y]/(x*y)", "--power", "-2"], 1),
        (["kunz", "F3[x,y]/(x*y)", "--power", "0"], 1),
        (["ghost", "QQ[x,y]/(x*y)", "--map", "{x->x^2,y->y^2}", "--jmax", "0"], 1),
        # Tor classes at the top of a user window
        (["tor", "QQ[x,y]/(x*y)", "--degree-bound", "4", "--homological-bound", "8"], 3),
        # a complete intersection with a redundant generator, as classify says
        (["aq", "QQ[x,y]/(x^2,2*x^2)"], 0),
        (["aq", "QQ[x,y]/(x^2,y^2,x^2+y^2)"], 0),
        # a window below the top degree of the Taylor support of in(I):
        # H_2 of (x^3,y^3) sits in degree 6
        (["koszul", "QQ[x,y]/(x^3,y^3)", "--degree-bound", "3"], 3),
        (["koszul", "QQ[x,y]/(x^3,y^3)", "--degree-bound", "6"], 0),
        # complete through 4, but Taylor's support reaches degree 5
        (["koszul", "QQ[x,y,z]/(x*y,y*z,x^3)", "--degree-bound", "4"], 3),
        # totals [1,1,0,0,0] below Tate's bound [1,1,1,1,1]: the window
        # cut the syzygies of degree 5 and up
        (["betti", "QQ[x]/(x^5)", "--degree-bound", "3", "--homological-bound", "4"], 3),
        (["tor", "QQ[x]/(x^5)", "--degree-bound", "3", "--homological-bound", "4"], 3),
    ],
)
def test_exit_code_contract(argv, expected, capsys):
    code, _ = run(argv)
    capsys.readouterr()
    assert code == expected
    if expected in (0, 3):
        # exit 3 exactly when the printed report lists a truncation flag
        code, _ = run(argv + ["--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == expected
        assert (code == 3) == bool(_report_flags(report))


def _report_flags(report):
    results = report["results"]
    if report["command"] == "koszul":
        return results["warnings"]
    if report["command"] == "kunz":
        return results["tor"]["truncation"]["flags"]
    if report["command"] == "ghost-trivial":
        return results["flags"]
    return results.get("truncation", {}).get("flags", [])


@pytest.mark.parametrize(
    "argv,path,expected",
    [
        (["betti", "QQ[x]/(x^5)", "--homological-bound", "4"], ["truncation", "D"], 22),
        (
            ["betti", "QQ[x,y,z,w]/(x^2,y^2,z^2,w^2,x*y)", "--homological-bound", "5"],
            ["truncation", "D"],
            12,
        ),
        (["tor", "QQ[x,y,z]/(x*y,y*z,x^3)", "--homological-bound", "4"], ["truncation", "D"], 12),
        (["tor", "F3[x,y]/(x*y)", "--with", "frobenius"], ["truncation", "N"], 8),
        (["tor", "F3[x,y]/(x*y)", "--with", "frobenius"], ["truncation", "D"], 43),
        (["koszul", "QQ[x,y,z,w]/(x*y,z*w)"], ["degree_bound"], 22),
        (["aq", "QQ[x,y,z,w]/(x^2,y^2,z^2,w^2)", "--levels", "5"], ["truncation", "D"], 10),
        (["kunz", "F2[x,y]/(x^2,y^3)"], ["tor", "truncation", "N"], 6),
        (["kunz", "F2[x,y]/(x^2,y^3)"], ["tor", "truncation", "D"], 32),
    ],
)
def test_default_windows_are_pinned(argv, path, expected):
    # the windows a report is read through when no bound is given; a
    # certified bound may skip work inside them but must not shrink them
    code, report = run(argv)
    assert code == 0
    value = report["results"]
    for key in path:
        value = value[key]
    assert value == expected


# ---------------------------------------------------------------------------
# corpus verification


def test_bundled_corpus_passes():
    code, report = run(["corpus"])
    assert code == 0
    assert report["results"]["failures"] == 0
    assert report["results"]["entries"] == 8


def test_corpus_detects_wrong_expectation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "name: wrong\n"
        "ring: QQ[x,y]/(x*y)\n"
        "expect.betti_k: 1,2,3 [ORACLE: deliberately wrong]\n"
    )
    code, report = run(["corpus", str(bad)])
    assert code != 0
    assert report["results"]["failures"] == 1


def test_corpus_empty_file_passes(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, report = run(["corpus", str(empty)])
    assert code == 0
    assert report["results"]["entries"] == 0


def test_corpus_requires_provenance_tags(tmp_path):
    bad = tmp_path / "untagged.txt"
    bad.write_text(
        "name: untagged\nring: QQ[x]\nexpect.classify: regular\n"
    )
    code, _ = run(["corpus", str(bad)])
    assert code == 1


def test_corpus_roundtrip_rings():
    from ringkit.corpus import bundled_corpus_text, parse_corpus
    from ringkit import parse_ring

    for entry in parse_corpus(bundled_corpus_text()):
        R = parse_ring(entry.ring_text)
        assert parse_ring(R.to_dsl()) == R
        assert all(tag in ("LIT", "ORACLE", "DIRECT") for _, _, tag, _ in entry.expectations)


# ---------------------------------------------------------------------------
# one parser per process


def test_run_builds_no_parser_after_the_first(monkeypatch, capsys):
    run(["koszul", "QQ[x,y]/(x*y)"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["koszul", "QQ[x,y]/(x*y)"])[0] == 0
    assert run(["betti", "QQ[x,y]/(x*y)", "--homological-bound", "2"])[0] == 0
    assert run(["betti", "QQ[x,y]/(x*y)", "--homological-bound", "two"])[0] == 1
    capsys.readouterr()
    assert built == []


def test_runs_share_no_state(capsys):
    ring = "QQ[x,y]/(x*y)"
    _, report = run(["betti", ring, "--homological-bound", "2"])
    assert report["inputs"]["N"] == 2
    _, report = run(["betti", ring])
    assert report["inputs"]["N"] == HOMOLOGICAL == 8
    assert run(["betti", ring, "--homological-bound", "-1"]) == (1, None)
    assert run(["betti", ring])[0] == 0
    assert run(["--version"]) == (0, None)
    assert run(["--version"]) == (0, None)
    assert capsys.readouterr().out.count("ringkit ") == 2
