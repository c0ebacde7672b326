import json

import pytest

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


def test_betti_command():
    code, report = run(["betti", "QQ[x,y]/(x*y)", "--homological-bound", "4"])
    assert code == 0
    assert report["results"]["totals"] == [1, 2, 2, 2, 2]


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


def test_json_output_is_deterministic(capsys):
    argv = ["classify", "QQ[x,y]/(x*y)", "--json"]
    run(argv)
    first = json.loads(capsys.readouterr().out)
    run(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


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
    ],
)
def test_exit_code_contract(argv, expected, capsys):
    code, _ = run(argv)
    capsys.readouterr()
    assert code == expected


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
