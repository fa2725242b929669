"""Input-file grammar, report rendering, exit codes, determinism."""

import ast
import os
import re
import subprocess
import sys

import pytest

from jetspace.cli import main, parse_input
from jetspace.corpus import CORPUS
from jetspace.errors import ParseError
from jetspace.jets import liftable_image_dim


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


TIGHT = "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{file}", "--max-pairs=1"),
        ("run", "{file}", "--max-p", "1"),
        ("run", "{file}", "--max-p=1"),
        ("run", "--max-pairs", "1", "{file}"),
        ("run", "--max-d", "64", "{file}", "--max-pairs", "1"),
        ("run", "--max-pairs", "1", "--", "{file}"),
        ("run", "{file}", "--max-pairs", "5", "--max-pairs", "1"),
    ],
)
def test_option_spellings_and_places(tmp_path, capsys, argv):
    """=VALUE, unique prefixes, options before or after FILE, -- and a
    repeated option (the last wins) all read as --max-pairs 1."""
    src = tmp_path / "tight.jsp"
    src.write_text(TIGHT)
    expected = run_cli(capsys, "run", str(src), "--max-pairs", "1")
    assert expected[0] == 4
    assert "budget: max_pairs=1 max_degree=64" in expected[1]
    assert run_cli(capsys, *(a.format(file=src) for a in argv)) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("corpus", "cusp-tangent-cone", "--out={out}"),
        ("corpus", "--o", "{out}", "cusp-tangent-cone"),
        ("corpus", "--ou={out}", "--", "cusp-tangent-cone"),
    ],
)
def test_out_spellings_write_the_report(tmp_path, capsys, argv):
    expected = run_cli(capsys, "corpus", "cusp-tangent-cone")[1]
    target = tmp_path / "report.txt"
    code, out = run_cli(capsys, *(a.format(out=target) for a in argv))
    assert (code, out) == (0, "")
    assert target.read_text() == expected


def test_empty_out_value_prints_to_stdout(capsys):
    expected = run_cli(capsys, "corpus", "cusp-tangent-cone")
    assert run_cli(capsys, "corpus", "cusp-tangent-cone", "--out=") == expected


def test_posixly_correct_does_not_change_the_reading(tmp_path, capsys, monkeypatch):
    """Options after FILE still count when POSIXLY_CORRECT is set, as they
    did under argparse (getopt.gnu_getopt would read them as positionals)."""
    src = tmp_path / "tight.jsp"
    src.write_text(TIGHT)
    expected = run_cli(capsys, "run", str(src), "--max-pairs", "1")
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert run_cli(capsys, "run", str(src), "--max-pairs", "1") == expected


@pytest.mark.parametrize(
    "argv",
    [("-h",), ("--help",), ("--he",), ("corpus", "-h"), ("run", "--help"), ("corpus", "cusp", "-h")],
)
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 0
    assert captured.out.startswith("usage: jetspace")
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        (),  # no mode
        ("frobnicate",),  # unknown mode
        ("--out", "x", "corpus"),  # options before the mode
        ("corpus", "--bogus"),  # unknown option
        ("corpus", "-x"),  # unknown short option
        ("corpus", "cusp", "--max-pairs", "x"),  # non-integer value
        ("corpus", "cusp", "--max-pairs=1.5"),
        ("corpus", "--max", "1"),  # ambiguous prefix
        ("corpus", "cusp", "--out"),  # missing value
        ("corpus", "--out", "--max-pairs", "1"),  # an option is no value
        ("corpus", "--help=x"),  # --help takes no value
        ("run",),  # no FILE
        ("corpus", "cusp", "extra"),  # extra positional
        ("run", "a.jsp", "--", "b.jsp"),
    ],
)
def test_malformed_command_lines_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: jetspace")
    assert "error: " in captured.err


@pytest.mark.parametrize(
    "args, name",
    [(("-3",), "-3"), (("-.5",), "-.5"), (("-x y",), "-x y"), (("-",), "-"), (("--", "--out"), "--out")],
)
def test_dash_tokens_that_are_no_options(capsys, args, name):
    """As under argparse, negative numbers, tokens holding a space, a lone
    - and anything after -- are arguments: here they reach the corpus
    lookup."""
    code, out = run_cli(capsys, "corpus", *args)
    assert code == 2
    assert out == f"== jetspace report ==\nstatus: parse-error\nerror: unknown corpus entry {name!r}\n"


def test_budget_flag_takes_a_negative_value(capsys):
    code, out = run_cli(capsys, "corpus", "cusp-jets", "--max-degree", "-3")
    assert code == 2
    assert out.endswith("error: budget values must be positive\n")


def test_cold_call_loads_no_argparse_or_locale():
    """A cold `corpus NAME` call pays for neither argparse's import nor the
    locale lookups its gettext calls make, and importing the CLI loads
    neither dataclasses nor the inspect module it pulls in."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    script = (
        "import contextlib, io, sys\n"
        "start = set(sys.modules)\n"
        "import jetspace.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = jetspace.cli.main(['corpus', 'cone-dim'])\n"
        "print(code, 'argparse' in sys.modules, 'locale' in set(sys.modules) - before)\n"
        "print(sorted({'dataclasses', 'inspect'} & (before - start)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.splitlines() == ["0 False False", "[]"], proc.stderr


# Every module the package imports outside itself.  A new one adds its
# import time to every cold command: widen this only with a measurement
# of the set-up time it costs.
STDLIB_ALLOWED = {
    "collections", "fractions", "functools", "heapq", "itertools", "math", "operator", "re",
    "sys", "time",
}


def test_package_imports_only_pinned_stdlib_modules():
    """Every import and from-import under src/jetspace, read with ast,
    names the package itself or a module of STDLIB_ALLOWED."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    root = os.path.join(root, "jetspace")
    seen = {}
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                seen.setdefault(module.partition(".")[0], []).append(f"{name}:{node.lineno}")
    outside = {top: where for top, where in seen.items() if top != "jetspace"}
    assert set(outside) <= STDLIB_ALLOWED, {
        top: where for top, where in outside.items() if top not in STDLIB_ALLOWED
    }
    assert set(outside) == STDLIB_ALLOWED, "drop modules no longer imported from the list"


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


def test_run_non_utf8_file(tmp_path, capsys):
    src = tmp_path / "latin1.jsp"
    src.write_bytes(b"ring x\xff\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert "status: parse-error" in out
    assert "cannot read input file" in out


def test_out_flag_unwritable_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.txt"
    code, out = run_cli(capsys, "corpus", "cusp-tangent-cone", "--out", str(target))
    assert code == 2
    assert out.startswith("== jetspace report ==\nstatus: parse-error\n")
    assert "cannot write output file" in out
    assert not target.parent.exists()


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


def test_point_off_variety_is_exit_3(tmp_path, capsys):
    src = tmp_path / "off.jsp"
    src.write_text("ring x, y\nideal X = x*y\npoint 1, 1\ncommand check-main\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 3
    assert "status: precondition-error" in out
    assert "does not lie on the variety" in out


@pytest.mark.parametrize(
    "command, error",
    [
        ("check-main", "the mld-hat check needs a nonzero ideal, not the zero ideal"),
        ("lambda m_max=2", "lambda rows need a nonzero ideal, not the zero ideal"),
    ],
)
def test_zero_ideal_is_rejected_by_name(tmp_path, capsys, command, error):
    """X = 0 is refused before any Jacobian is built, with a message that
    names the zero ideal, as lct-bound and ord-blowup do."""
    src = tmp_path / "zero.jsp"
    src.write_text(f"ring x, y\nideal X = 0\npoint 0, 0\ncommand {command}\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 3
    assert "status: precondition-error" in out
    assert f"error: {error}\n" in out
    assert "minors" not in out


def test_budget_flag_partial_lambda_report(tmp_path, capsys):
    src = tmp_path / "tight.jsp"
    src.write_text("ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=2\n")
    code, out = run_cli(capsys, "run", str(src), "--max-pairs", "1")
    assert code == 4
    assert "status: budget-exhausted" in out
    assert "row m=1" in out  # partial report still printed
    assert "budget_hit = true" in out


def test_budget_line_in_file(tmp_path, capsys):
    src = tmp_path / "tight2.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\n"
        "budget max_pairs=1 max_degree=4\ncommand lambda m_max=2\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 4
    assert "budget: max_pairs=1 max_degree=4" in out


def test_budget_ignores_environment(tmp_path, capsys, monkeypatch):
    """Only the file's budget line and the flags change the caps."""
    monkeypatch.setenv("JETSPACE_MAX_PAIRS", "1")
    src = tmp_path / "env.jsp"
    src.write_text("ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=1\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "budget: max_pairs=200000 max_degree=64" in out


def test_hypersurface_lct_rows_fit_a_small_budget(tmp_path, capsys):
    """Smooth lct rows of a hypersurface measure only the jets over its
    singular locus, which fit where the whole jet scheme would not."""
    src = tmp_path / "lct.jsp"
    src.write_text(
        "ring x, y\nideal A = x^2*y^2 + x^5 + y^5\nbudget max_pairs=300\n"
        "command lct-bound M=4\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert out.split("result:\n")[1].split("data:\n")[0] == (
        "  row m=1: codim=1 ratio=1\n"
        "  row m=2: codim=2 ratio=1\n"
        "  row m=3: codim=2 ratio=2/3\n"
        "  row m=4: codim=2 ratio=1/2\n"
        "  bound: 1/2 at m=4 (window edge)\n"
    )
    assert out.endswith("status: ok\n")


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


ONE_IDEAL = "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\n"
SEVERAL_IDEALS = "ring x, y\nideal X = x^2 - y^3\nideal A = x, y\nideal W = x, y\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (SEVERAL_IDEALS + "command lct-bound on=Q\n", "unknown ideal 'Q'"),
        (
            SEVERAL_IDEALS + "command lct-bound on=X\n",
            "with on=, pass ideal=NAME for the measured ideal",
        ),
        (
            SEVERAL_IDEALS + "command mld-bound clauses=A center=W\n",
            "clause 'A' needs the form NAME^WEIGHT",
        ),
        (SEVERAL_IDEALS + "command mld-bound clauses=A^1\n", "missing required parameter center="),
        (ONE_IDEAL + "command lambda point=1\n", "command lambda does not take parameter 'point'"),
        (ONE_IDEAL + "command jets m=-1\n", "parameter m must be at least 0"),
        (ONE_IDEAL + "command jets m=x\n", "parameter m must be an integer"),
        (
            ONE_IDEAL + "command check-main cross_check=false\n",
            "command check-main does not take parameter 'cross_check'",
        ),
        (SEVERAL_IDEALS + "command dim\n", "several ideals are declared; pass ideal=NAME"),
        (
            "ring x, y\npoint 0.5, 0\ncommand dim\n",
            "point coordinates must be rational numbers (line 2)",
        ),
        (SEVERAL_IDEALS + "command mld-bound clauses=A^1.5 center=W\n", "bad weight '1.5'"),
    ],
)
def test_parameter_error_messages(tmp_path, capsys, text, error):
    """The first failing check, in the command's reader order, names the error."""
    src = tmp_path / "bad.jsp"
    src.write_text(text)
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert out == f"== jetspace report ==\nstatus: parse-error\nerror: {error}\n"


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


def test_lct_on_interior_minimum_is_not_proven(tmp_path, capsys):
    # contact orders beyond e_max are never scanned, so the interior
    # minimum at m=2 is no proof; only a minimum at m=M reads "window edge"
    src = tmp_path / "lct.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\nideal A = x, y\n"
        "command lct-bound ideal=A on=X M=4 e_max=3\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "  bound: 1 at m=2 (not proven)\n" in out
    assert "  exact = false\n" in out
    code, out = run_cli(capsys, "corpus", "cusp-lct")
    assert "  bound: 1 at m=2 (window edge)\n" in out


def test_lct_on_rows_beyond_e_max_are_skipped_not_empty(tmp_path, capsys):
    # on the cusp, an arc through the origin has Jacobian contact at least 3
    src = tmp_path / "lct.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\nideal A = x, y\n"
        "command lct-bound ideal=A on=X M=2 e_max=1\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "  row m=1: skipped (liftable contact lies beyond e_max=1)\n" in out
    assert "  bound: none (every row was skipped)\n" in out


def test_lct_on_requires_explicit_ideal(tmp_path, capsys):
    src = tmp_path / "lct.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^3\nideal A = x, y\n"
        "command lct-bound on=X M=1\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 2
    assert "ideal=NAME" in out


def test_ord_blowup_at_the_point(tmp_path, capsys):
    src = tmp_path / "ord.jsp"
    src.write_text("ring x, y\nideal X = (x - 1)^2 - y^3\npoint 1, 0\ncommand ord-blowup\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert "  vanishing order: 2\n  exceptional multiplicity: 1\n  log discrepancy: 0\n" in out


def test_check_main_curve_without_jet_verdict_stays_open(tmp_path, capsys):
    """On a curve the cone test proves nothing: when the budget stops the
    jet row, the tacnode's verdict is none (it is true), not the cone's."""
    src = tmp_path / "tacnode.jsp"
    src.write_text(
        "ring x, y\nideal X = x^2 - y^4\npoint 0, 0\nbudget max_degree=4\n"
        "command check-main\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 4
    assert "cone verdict: false" in out
    assert "converged=false" in out
    assert "jet verdict: none" in out
    assert "overall verdict: none" in out
    assert "status: budget-exhausted" in out


def test_check_main_skips_the_singular_locus_basis(tmp_path, capsys):
    """On this space curve (n = 1, so jac is the three 2 x 2 minors) the
    basis of I + jac, the singular locus, runs past 20 s and is not
    stopped by max_pairs=100.  No check-main report prints that
    dimension, so check-main never computes it and ends at once; its row
    cells equal direct liftable_image_dim calls."""
    src = tmp_path / "curve.jsp"
    src.write_text(
        "ring x, y, z\n"
        "ideal X = -2*x*y^2 + x^2 - y^2 - y^2*z^2, -2*x*z + 2*x*y^2*z^3 + 2*x^3*y*z^3\n"
        "point 0, 0, 0\nbudget max_pairs=100\ncommand check-main\n"
    )
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0 and out.endswith("status: ok\n")
    assert "  verdict = true\n" in out and "  lambda_1 = 0\n" in out
    cells = re.search(r"jet row m=1: value=0 converged=true cells=(\S+)\n", out).group(1)
    doc = parse_input(src.read_text())
    X = doc.ideals["X"]
    for cell in cells.split(","):
        e, d = map(int, cell.split(":"))
        assert liftable_image_dim(X, doc.point, 1, e) == d, e


def test_point_on_a_lower_dimensional_component(tmp_path, capsys):
    """X = (x*z, y*z) is a plane and a line; at (0, 0, 1) it is locally
    the line, so the jet route stops instead of measuring against n = 2.
    X = (x^2*z, y*z) is there locally the doubled line x^2 = y = 0, which
    only the tangent-cone check catches: every 2 x 2 Jacobian minor
    saturates X to the unit ideal."""
    for X in ("x*z, y*z", "x^2*z, y*z"):
        for command in ("check-main", "lambda m_max=2"):
            src = tmp_path / "line.jsp"
            src.write_text(f"ring x, y, z\nideal X = {X}\npoint 0, 0, 1\ncommand {command}\n")
            code, out = run_cli(capsys, "run", str(src))
            assert code == 3
            assert "status: precondition-error" in out
            assert "local dimension 1 at the point" in out and "n = 2" in out


def test_point_where_the_line_meets_the_plane(tmp_path, capsys):
    """At the origin X = (x*z, y*z) has local dimension 2 = n, but the
    line through it has codimension 2: the 2 x 2 Jacobian minor z^2
    vanishes on the plane, not on the line X : z^inf = (x, y), so both
    jet commands stop instead of measuring the line against n = 2."""
    for command in ("check-main", "lambda m_max=2"):
        src = tmp_path / "origin.jsp"
        src.write_text(f"ring x, y, z\nideal X = x*z, y*z\npoint 0, 0, 0\ncommand {command}\n")
        code, out = run_cli(capsys, "run", str(src))
        assert code == 3
        assert "status: precondition-error" in out
        assert "not pure of dimension n = 2" in out
        assert "minor z^2 is not zero on X : (z^2)^inf = Ideal(x, y)" in out


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


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m jetspace` prints what `main` prints and exits with its code."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv, expected_code in ((("corpus", "cusp"), 0), (("corpus", "nope"), 2)):
        code, out = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "jetspace", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == code == expected_code
        assert proc.stdout == out


def test_deep_e6_lambda_table_is_pinned(tmp_path, capsys):
    """The deepest lambda table the tests run: E6 x^3 - y^4 at m_max=3,
    e_max=8, whose cells reach jet level 16 and whose probes reach 18,
    all in one table's packing (about 0.45 s).  CI runs it alone under a
    60 s cap, so a packing that slows the deepest cells fails fast."""
    src = tmp_path / "e6.jsp"
    src.write_text("ring x, y\nideal X = x^3 - y^4\npoint 0, 0\ncommand lambda m_max=3 e_max=8\n")
    code, out = run_cli(capsys, "run", str(src))
    assert code == 0
    assert out == (
        "== jetspace report ==\n"
        "command: lambda\n"
        "inputs:\n"
        "  ring: x, y\n"
        "  ideal X = -y^4 + x^3\n"
        "  point: 0, 0\n"
        "  params: e_max=8 m_max=3\n"
        "  budget: max_pairs=200000 max_degree=64\n"
        "result:\n"
        "  variety dimension n: 1\n"
        "  singular locus dimension: 0\n"
        "  row m=1: value=1 converged=true cells=0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:0,9:-1\n"
        "  row m=2: value=2 converged=true cells=0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:0,9:-1\n"
        "  row m=3: value=2 converged=true cells=0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:1,9:-1\n"
        "  stabilized lambda: 2\n"
        "  mld-hat: 3\n"
        "  note: singular locus is empty or zero-dimensional: the liftable rows equal the full"
        " defect (isolated-singularity identification)\n"
        "data:\n"
        "  budget_hit = false\n"
        "  e_max = 8\n"
        "  lambda = 2\n"
        "  m_max = 3\n"
        "  mld_hat = 3\n"
        "  n = 1\n"
        "  row.1.cells = 0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:0,9:-1\n"
        "  row.1.converged = true\n"
        "  row.1.value = 1\n"
        "  row.2.cells = 0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:0,9:-1\n"
        "  row.2.converged = true\n"
        "  row.2.value = 2\n"
        "  row.3.cells = 0:-1,1:-1,2:-1,3:-1,4:-1,5:-1,6:-1,7:-1,8:1,9:-1\n"
        "  row.3.converged = true\n"
        "  row.3.value = 2\n"
        "  singular_dim = 0\n"
        "status: ok\n"
    )
