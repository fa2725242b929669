"""Input-file grammar, report rendering, exit codes, determinism."""

import os

import pytest

from jetspace.cli import main, parse_input
from jetspace.corpus import CORPUS
from jetspace.errors import ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_corpus_listing(capsys):
    code, out = run_cli(capsys, "corpus")
    assert code == 0
    assert out.splitlines() == sorted(CORPUS)


def test_corpus_unknown_name(capsys):
    code, out = run_cli(capsys, "corpus", "nope")
    assert code == 2
    assert "status: parse-error" in out


def test_frozen_jets_report(capsys):
    code, out = run_cli(capsys, "corpus", "cusp-jets")
    assert code == 0
    assert out == (
        "== jetspace report ==\n"
        "command: jets\n"
        "inputs:\n"
        "  ring: x, y\n"
        "  ideal X = -y^3 + x^2\n"
        "  params: m=2\n"
        "  budget: max_pairs=200000 max_degree=64\n"
        "result:\n"
        "  jet ring: x__0, y__0, x__1, y__1, x__2, y__2\n"
        "  generator 1: -y__0^3 + x__0^2\n"
        "  generator 2: -3*y__0^2*y__1 + 2*x__0*x__1\n"
        "  generator 3: -3*y__0*y__1^2 - 3*y__0^2*y__2 + x__1^2 + 2*x__0*x__2\n"
        "data:\n"
        "  generators = 3\n"
        "  level = 2\n"
        "status: ok\n"
    )


def test_frozen_tangent_cone_report(capsys):
    code, out = run_cli(capsys, "corpus", "cusp-tangent-cone")
    assert code == 0
    assert out == (
        "== jetspace report ==\n"
        "command: tangent-cone\n"
        "inputs:\n"
        "  ring: x, y\n"
        "  ideal X = -y^3 + x^2\n"
        "  budget: max_pairs=200000 max_degree=64\n"
        "result:\n"
        "  principal: yes\n"
        "  generator 1: x^2\n"
        "data:\n"
        "  generators = 1\n"
        "  principal = true\n"
        "status: ok\n"
    )


def test_run_file(tmp_path, capsys):
    src = tmp_path / "node.jsp"
    src.write_text("ring x, y\nideal X = x*y\npoint 0, 0\ncommand lambda m_max=1 e_max=1\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "row m=1: value=0 converged=true cells=0:-1,1:1" in out
    assert "status: ok" in out


def test_run_missing_file(capsys):
    code, out = run_cli(capsys, "run", "/no/such/file.jsp")
    assert code == 2
    assert "cannot read input file" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run_cli(capsys, "corpus", "cusp-tangent-cone", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "status: ok" in target.read_text()


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "corpus", "cusp")
    second = run_cli(capsys, "corpus", "cusp")
    assert first == second


def test_jobs_do_not_change_output(capsys):
    serial = run_cli(capsys, "corpus", "cusp", "--jobs", "1")
    threaded = run_cli(capsys, "corpus", "cusp", "--jobs", "4")
    assert serial == threaded


def test_point_off_variety_is_exit_3(tmp_path, capsys):
    src = tmp_path / "off.jsp"
    src.write_text("ring x, y\nideal X = x*y\npoint 1, 1\ncommand check-main\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 3
    assert "status: precondition-error" in out
    assert "does not lie on the variety" in out


def test_budget_flag_partial_lambda_report(tmp_path, capsys):
    src = tmp_path / "tight.jsp"
    src.write_text("ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=1\n")
    code, out = run_cli(capsys, "run", str(src), "--max-pairs", "1")
    assert code == 4
    assert "status: budget-exhausted" in out
    assert "row m=1" in out  # partial report still printed
    assert "budget_hit = true" in out


def test_budget_line_in_file(tmp_path, capsys):
    src = tmp_path / "tight2.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\n"
        "budget max_pairs=1 max_degree=4\ncommand lambda m_max=1\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 4
    assert "budget: max_pairs=1 max_degree=4" in out


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JETSPACE_MAX_PAIRS", "1")
    src = tmp_path / "env.jsp"
    src.write_text("ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=1\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 4
    # the command-line flag wins over the environment
    code2, out2 = run_cli(capsys, "run", str(src), "--max-pairs", "200000")
    assert code2 == 0


def test_jobs_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JETSPACE_JOBS", "3")
    code, out = run_cli(capsys, "corpus", "node")
    assert code == 0


def test_hard_budget_error_is_exit_4(tmp_path, capsys):
    src = tmp_path / "deg.jsp"
    src.write_text("ring x, y\nideal X = x^9 + y\ncommand dim\n")
    code, out = run_cli(capsys, "run", str(src), "--max-degree", "8")
    assert code == 4
    assert "status: budget-exhausted" in out


def test_agreement_error_is_exit_5(tmp_path, capsys):
    # cone x^2 has no reduced component, yet every 1-jet on x = 0 lifts:
    # the two routes disagree on a surface, which the CLI must report
    src = tmp_path / "disagree.jsp"
    src.write_text(
        "ring x, y, z\nideal X = x^2 + y^4 + z^4\npoint 0, 0, 0\ncommand check-main\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 5
    lines = out.splitlines()
    assert lines[:2] == ["== jetspace report ==", "status: agreement-error"]
    assert lines[2].startswith("error: tangent-cone route says False but jet route says True")


@pytest.mark.parametrize(
    "text",
    [
        "command dim\n",  # no ring
        "ring x, y\n",  # no command
        "ring x, y\nring x\ncommand dim\n",  # duplicate ring
        "ideal X = x\nring x\ncommand dim\n",  # ideal before ring
        "ring x, y\nideal X == x\ncommand dim\n",  # bad ideal name
        "ring x, y\nideal X = x +\ncommand dim\n",  # bad expression
        "ring x, y\nideal X = x\nideal X = y\ncommand dim\n",  # duplicate ideal
        "ring x, y\npoint 1\ncommand dim\n",  # wrong point arity
        "ring x, y\npoint a, b\ncommand dim\n",  # non-rational point
        "ring x, y\nwhatever\ncommand dim\n",  # unknown directive
        "ring x, y\ncommand frobnicate\n",  # unknown command
        "ring x, y\nideal X = x\ncommand dim bogus=1\n",  # unknown parameter
        "ring x, y\nideal X = x\ncommand jets\n",  # missing required m=
        "ring x, y\nideal X = x\ncommand jets m=two\n",  # non-integer m
        "ring x, y\nideal X = x\nideal Y = y\ncommand dim\n",  # ambiguous ideal
        "ring x, y\nideal X = x\ncommand check-main\n",  # missing point
        "ring x, y\nideal X = x\nbudget max_pairs\ncommand dim\n",  # bad budget
        "ring x, x\nideal X = x\ncommand dim\n",  # duplicate variable
    ],
)
def test_malformed_inputs_exit_2(tmp_path, capsys, text):
    src = tmp_path / "bad.jsp"
    src.write_text(text)
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert "status: parse-error" in out


def test_parse_input_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_input("ring x, y\nideal X = x &\ncommand dim\n")
    assert "line 2" in str(info.value)


def test_mld_bound_cli(tmp_path, capsys):
    src = tmp_path / "mld.jsp"
    src.write_text(
        "ring x, y\nideal A = x, y\nideal W = x, y\n"
        "command mld-bound clauses=A^1 center=W M=2\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "row m=(1): codim=2 value=1" in out
    assert "bound: 1 at m=(1) (exact)" in out


def test_mld_bound_bad_clause(tmp_path, capsys):
    src = tmp_path / "mldbad.jsp"
    src.write_text(
        "ring x, y\nideal A = x, y\nideal W = x, y\n"
        "command mld-bound clauses=A center=W M=1\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert "NAME^WEIGHT" in out


def test_lct_on_requires_explicit_ideal(tmp_path, capsys):
    src = tmp_path / "lct.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\nideal A = x, y\n"
        "command lct-bound on=X M=1\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert "ideal=NAME" in out


def test_check_main_cross_check_off(tmp_path, capsys):
    src = tmp_path / "nocross.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\n"
        "command check-main cross_check=false\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "jet verdict: none" in out
    assert "overall verdict: false" in out
    assert "note: curve verdict rests on the cone test alone" in out


def test_comments_and_blank_lines(tmp_path, capsys):
    src = tmp_path / "comments.jsp"
    src.write_text(
        "# full-line comment\n\nring x, y\n\n# another\nideal X = y\n"
        "point 0, 0\ncommand check-main\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "overall verdict: true" in out


def test_every_corpus_entry_parses_and_runs(capsys):
    for name in sorted(CORPUS):
        code, out = run_cli(capsys, "corpus", name)
        assert code == 0, f"{name} exited {code}"
        assert out.startswith("== jetspace report ==")
        assert "status: ok" in out
