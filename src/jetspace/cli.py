"""Command-line runner for jet-space computations.

Input files are line-oriented:

    # comments and blank lines are ignored
    ring x, y
    ideal X = x^2 - y^3
    point 0, 0
    budget max_pairs=200000 max_degree=64
    command lambda m_max=3 e_max=3

Exactly one `ring` and one `command` line are required.  Commands:
jets, dim, tangent-cone, check-main, lambda, lct-bound, mld-bound,
ord-blowup.  Reports are byte-deterministic; timing goes to stderr.
Exit codes: 0 ok, 2 parse error, 4 budget exhausted (a partial report
is still printed when one exists), 3 any other precondition failure,
5 the two routes of check-main disagreed where a theorem says they
must agree (an internal error, reported rather than raised).

`--jobs` / JETSPACE_JOBS are accepted and validated for compatibility;
rows always run serially, so the value never changes the work done.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .corpus import CORPUS
from .errors import AgreementError, BudgetExhausted, ParseError, PreconditionError
from .groebner import Budget, DEFAULT_BUDGET, Ideal
from .invariants import (
    check_mld_hat_equals_n,
    lct_hat_bound,
    mld_hat_bound,
    ord_blowup_origin,
    tangent_cone,
)
from .jets import jet_ideal, lambda_sequence
from .parser import parse_polynomial
from .poly import Ring

COMMANDS = (
    "jets",
    "dim",
    "tangent-cone",
    "check-main",
    "lambda",
    "lct-bound",
    "mld-bound",
    "ord-blowup",
)


class Document:
    """Parsed input file: ring, named ideals, optional point, command."""

    def __init__(self, ring, ideals, point, budget_overrides, command, params):
        self.ring = ring
        self.ideals = ideals
        self.point = point
        self.budget_overrides = budget_overrides
        self.command = command
        self.params = params


def parse_input(text):
    ring = None
    ideals = {}
    point = None
    budget_overrides = {}
    command = None
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if head == "ring":
            if ring is not None:
                raise ParseError("duplicate ring line", line=lineno)
            names = tuple(n.strip() for n in rest.split(","))
            try:
                ring = Ring(names)
            except PreconditionError as exc:
                raise ParseError(str(exc), line=lineno)
        elif head == "ideal":
            if ring is None:
                raise ParseError("ideal line before ring line", line=lineno)
            name_part, sep, expr_part = rest.partition("=")
            if not sep:
                raise ParseError("ideal line needs '='", line=lineno)
            name = name_part.strip()
            if not name.isidentifier():
                raise ParseError(f"bad ideal name {name!r}", line=lineno)
            if name in ideals:
                raise ParseError(f"duplicate ideal {name!r}", line=lineno)
            gens = tuple(
                parse_polynomial(t.strip(), ring, line=lineno)
                for t in expr_part.split(",")
            )
            ideals[name] = Ideal(ring, gens)
        elif head == "point":
            if ring is None:
                raise ParseError("point line before ring line", line=lineno)
            if point is not None:
                raise ParseError("duplicate point line", line=lineno)
            try:
                point = tuple(Fraction(t.strip()) for t in rest.split(","))
            except (ValueError, ZeroDivisionError):
                raise ParseError("point coordinates must be rational numbers", line=lineno)
            if len(point) != ring.ngens:
                raise ParseError(
                    f"point has {len(point)} coordinates for a {ring.ngens}-variable ring",
                    line=lineno,
                )
        elif head == "budget":
            for token in rest.split():
                key, sep, value = token.partition("=")
                if not sep or key not in ("max_pairs", "max_degree"):
                    raise ParseError(f"bad budget setting {token!r}", line=lineno)
                try:
                    budget_overrides[key] = int(value)
                except ValueError:
                    raise ParseError(f"bad budget value {value!r}", line=lineno)
        elif head == "command":
            if command is not None:
                raise ParseError("duplicate command line", line=lineno)
            tokens = rest.split()
            if not tokens:
                raise ParseError("command line needs a command name", line=lineno)
            command = tokens[0]
            if command not in COMMANDS:
                raise ParseError(f"unknown command {command!r}", line=lineno)
            for token in tokens[1:]:
                key, sep, value = token.partition("=")
                if not sep or not key:
                    raise ParseError(f"bad parameter {token!r}", line=lineno)
                if key in params:
                    raise ParseError(f"duplicate parameter {key!r}", line=lineno)
                params[key] = value
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    if ring is None:
        raise ParseError("missing ring line")
    if command is None:
        raise ParseError("missing command line")
    return Document(ring, ideals, point, budget_overrides, command, params)


def _check_params(params, allowed, command):
    for key in params:
        if key not in allowed:
            raise ParseError(f"command {command} does not take parameter {key!r}")


def _int_param(params, key, default=None, minimum=None):
    if key not in params:
        if default is None:
            raise ParseError(f"missing required parameter {key}=")
        return default
    try:
        value = int(params[key])
    except ValueError:
        raise ParseError(f"parameter {key} must be an integer")
    if minimum is not None and value < minimum:
        raise ParseError(f"parameter {key} must be at least {minimum}")
    return value


def _bool_param(params, key, default):
    if key not in params:
        return default
    if params[key] not in ("true", "false"):
        raise ParseError(f"parameter {key} must be true or false")
    return params[key] == "true"


def _ideal_param(doc, params, key="ideal", required=True):
    name = params.get(key)
    if name is None:
        if key != "ideal":
            if required:
                raise ParseError(f"missing required parameter {key}=")
            return None
        if len(doc.ideals) == 1:
            return next(iter(doc.ideals.values()))
        if not doc.ideals:
            raise ParseError("no ideal declared")
        raise ParseError("several ideals are declared; pass ideal=NAME")
    if name not in doc.ideals:
        raise ParseError(f"unknown ideal {name!r}")
    return doc.ideals[name]


def _point_required(doc):
    if doc.point is None:
        raise ParseError(f"command {doc.command} requires a point line")
    return doc.point


def _fmt(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _fmt_cells(cells):
    return ",".join(f"{e}:{d}" for e, d in cells)


def _fmt_point(point):
    return ", ".join(str(c) for c in point)


def _fmt_indices(indices):
    return "(" + ",".join(str(m) for m in indices) + ")"


def _cmd_jets(doc, budget):
    _check_params(doc.params, {"ideal", "m"}, doc.command)
    I = _ideal_param(doc, doc.params)
    m = _int_param(doc.params, "m", minimum=0)
    J = jet_ideal(I, m)
    human = [f"jet ring: {', '.join(J.jet_ring.ring.names)}"]
    for i, g in enumerate(J.ideal.gens, start=1):
        human.append(f"generator {i}: {g}")
    data = {"level": m, "generators": len(J.ideal.gens)}
    return human, data, "ok", 0


def _cmd_dim(doc, budget):
    _check_params(doc.params, {"ideal"}, doc.command)
    I = _ideal_param(doc, doc.params)
    res = I.krull_dimension(budget)
    witness = ", ".join(res.independent_set) if res.independent_set else "(none)"
    human = [f"dimension: {res.dimension}", f"independent variables: {witness}"]
    data = {
        "dimension": res.dimension,
        "independent": ",".join(res.independent_set),
    }
    return human, data, "ok", 0


def _cmd_tangent_cone(doc, budget):
    _check_params(doc.params, {"ideal"}, doc.command)
    I = _ideal_param(doc, doc.params)
    cone = tangent_cone(I, doc.point, budget)
    human = [f"principal: {'yes' if cone.principal else 'no'}"]
    for i, g in enumerate(cone.ideal.gens, start=1):
        human.append(f"generator {i}: {g}")
    data = {"principal": _fmt(cone.principal), "generators": len(cone.ideal.gens)}
    return human, data, "ok", 0


def _cmd_check_main(doc, budget):
    _check_params(doc.params, {"ideal", "e_max", "cross_check"}, doc.command)
    I = _ideal_param(doc, doc.params)
    point = _point_required(doc)
    e_max = _int_param(doc.params, "e_max", default=3, minimum=0)
    cross = _bool_param(doc.params, "cross_check", True)
    report = check_mld_hat_equals_n(I, point, cross_check=cross, e_max=e_max, budget=budget)
    human = [f"variety dimension n: {report.n}"]
    for i, g in enumerate(report.cone.ideal.gens, start=1):
        human.append(f"tangent cone generator {i}: {g}")
    human.append(f"cone status: {report.cone_status}")
    human.append(f"cone verdict: {_fmt(report.cone_verdict)}")
    if report.cone_certificate is not None:
        human.append(f"cone certificate: {report.cone_certificate}")
    lambda_value = None
    if report.lambda_report is not None:
        row = report.lambda_report.rows[0]
        lambda_value = row.value
        human.append(
            f"jet row m=1: value={_fmt(row.value)} converged={_fmt(row.converged)} "
            f"cells={_fmt_cells(row.cells)}"
        )
    human.append(f"jet verdict: {_fmt(report.lambda_verdict)}")
    human.append(f"overall verdict: {_fmt(report.verdict)}")
    human.append(f"agreement: {_fmt(report.agreement)}")
    for note in report.notes:
        human.append(f"note: {note}")
    data = {
        "n": report.n,
        "cone_status": report.cone_status,
        "cone_verdict": _fmt(report.cone_verdict),
        "lambda_1": _fmt(lambda_value),
        "lambda_verdict": _fmt(report.lambda_verdict),
        "verdict": _fmt(report.verdict),
        "agreement": _fmt(report.agreement),
    }
    if report.lambda_report is not None and report.lambda_report.budget_hit and report.verdict is None:
        return human, data, "budget-exhausted", 4
    return human, data, "ok", 0


def _cmd_lambda(doc, budget):
    _check_params(doc.params, {"ideal", "m_max", "e_max"}, doc.command)
    I = _ideal_param(doc, doc.params)
    point = _point_required(doc)
    m_max = _int_param(doc.params, "m_max", minimum=1)
    e_max = _int_param(doc.params, "e_max", default=3, minimum=0)
    report = lambda_sequence(I, point, m_max, e_max=e_max, budget=budget)
    human = [
        f"variety dimension n: {report.n}",
        f"singular locus dimension: {report.singular_dim}",
    ]
    data = {
        "n": report.n,
        "m_max": report.m_max,
        "e_max": report.e_max,
        "singular_dim": report.singular_dim,
        "lambda": _fmt(report.stabilized),
        "mld_hat": _fmt(report.mld_hat),
        "budget_hit": _fmt(report.budget_hit),
    }
    for row in report.rows:
        line = (
            f"row m={row.m}: value={_fmt(row.value)} converged={_fmt(row.converged)} "
            f"cells={_fmt_cells(row.cells)}"
        )
        if row.note:
            line += f" note: {row.note}"
        human.append(line)
        data[f"row.{row.m}.value"] = _fmt(row.value)
        data[f"row.{row.m}.converged"] = _fmt(row.converged)
        data[f"row.{row.m}.cells"] = _fmt_cells(row.cells)
    human.append(f"stabilized lambda: {_fmt(report.stabilized)}")
    human.append(f"mld-hat: {_fmt(report.mld_hat)}")
    for note in report.notes:
        human.append(f"note: {note}")
    if report.budget_hit:
        return human, data, "budget-exhausted", 4
    return human, data, "ok", 0


def _cmd_lct_bound(doc, budget):
    _check_params(doc.params, {"ideal", "M", "e_max", "on"}, doc.command)
    on_name = doc.params.get("on")
    if on_name is not None and on_name not in doc.ideals:
        raise ParseError(f"unknown ideal {on_name!r}")
    if on_name is not None and "ideal" not in doc.params:
        raise ParseError("with on=, pass ideal=NAME for the measured ideal")
    a = _ideal_param(doc, doc.params)
    X = doc.ideals[on_name] if on_name is not None else None
    M = _int_param(doc.params, "M", default=4, minimum=1)
    e_max = _int_param(doc.params, "e_max", default=3, minimum=0)
    table = lct_hat_bound(a, M, on=X, e_max=e_max, budget=budget)
    human = []
    data = {"M": M, "bound": _fmt(table.bound), "argmin": _fmt(table.argmin),
            "exact": _fmt(table.exact)}
    for row in table.rows:
        if row.codim is None:
            human.append(f"row m={row.m}: skipped ({row.note})")
            data[f"row.{row.m}.codim"] = "none"
            continue
        line = f"row m={row.m}: codim={row.codim} ratio={row.ratio}"
        if row.cells:
            line += f" cells={_fmt_cells(row.cells)}"
            data[f"row.{row.m}.cells"] = _fmt_cells(row.cells)
        human.append(line)
        data[f"row.{row.m}.codim"] = str(row.codim)
        data[f"row.{row.m}.ratio"] = str(row.ratio)
    if table.bound is None:
        human.append("bound: none (every row was empty)")
    else:
        edge = "exact" if table.exact else "window edge"
        human.append(f"bound: {table.bound} at m={table.argmin} ({edge})")
    for note in table.notes:
        human.append(f"note: {note}")
    return human, data, "ok", 0


def _parse_weighted_clauses(doc, text):
    clauses = []
    if not text:
        return tuple(clauses)
    for chunk in text.split(","):
        name, sep, weight = chunk.partition("^")
        if not sep:
            raise ParseError(f"clause {chunk!r} needs the form NAME^WEIGHT")
        if name not in doc.ideals:
            raise ParseError(f"unknown ideal {name!r}")
        try:
            w = Fraction(weight)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight {weight!r}")
        clauses.append((doc.ideals[name], w))
    return tuple(clauses)


def _cmd_mld_bound(doc, budget):
    _check_params(doc.params, {"clauses", "center", "M"}, doc.command)
    clauses = _parse_weighted_clauses(doc, doc.params.get("clauses", ""))
    center_name = doc.params.get("center")
    if center_name is None:
        raise ParseError("missing required parameter center=")
    if center_name not in doc.ideals:
        raise ParseError(f"unknown ideal {center_name!r}")
    M = _int_param(doc.params, "M", default=4, minimum=0)
    table = mld_hat_bound(doc.ring, clauses, doc.ideals[center_name], M, budget)
    human = []
    data = {"M": M, "bound": _fmt(table.bound), "exact": _fmt(table.exact)}
    data["argmin"] = _fmt_indices(table.argmin) if table.argmin is not None else "none"
    for i, row in enumerate(table.rows):
        data[f"row.{i}.indices"] = _fmt_indices(row.indices)
        if row.codim is None:
            human.append(f"row m={_fmt_indices(row.indices)}: skipped ({row.note})")
            data[f"row.{i}.value"] = "none"
            continue
        human.append(
            f"row m={_fmt_indices(row.indices)}: codim={row.codim} value={row.value}"
        )
        data[f"row.{i}.codim"] = str(row.codim)
        data[f"row.{i}.value"] = str(row.value)
    if table.bound is None:
        human.append("bound: none (every row was empty)")
    else:
        edge = "exact" if table.exact else "window edge"
        human.append(f"bound: {table.bound} at m={_fmt_indices(table.argmin)} ({edge})")
    for note in table.notes:
        human.append(f"note: {note}")
    return human, data, "ok", 0


def _cmd_ord_blowup(doc, budget):
    _check_params(doc.params, {"ideal"}, doc.command)
    I = _ideal_param(doc, doc.params)
    res = ord_blowup_origin(I)
    human = [
        f"vanishing order: {res.vanishing_order}",
        f"exceptional multiplicity: {res.k_exceptional}",
        f"log discrepancy: {res.log_discrepancy}",
    ]
    data = {
        "vanishing_order": res.vanishing_order,
        "k_exceptional": res.k_exceptional,
        "log_discrepancy": res.log_discrepancy,
    }
    return human, data, "ok", 0


_DISPATCH = {
    "jets": _cmd_jets,
    "dim": _cmd_dim,
    "tangent-cone": _cmd_tangent_cone,
    "check-main": _cmd_check_main,
    "lambda": _cmd_lambda,
    "lct-bound": _cmd_lct_bound,
    "mld-bound": _cmd_mld_bound,
    "ord-blowup": _cmd_ord_blowup,
}


def execute(doc, budget):
    human, data, status, code = _DISPATCH[doc.command](doc, budget)
    lines = ["== jetspace report =="]
    lines.append(f"command: {doc.command}")
    lines.append("inputs:")
    lines.append(f"  ring: {', '.join(doc.ring.names)}")
    for name, ideal in doc.ideals.items():
        gens = ", ".join(str(g) for g in ideal.gens)
        lines.append(f"  ideal {name} = {gens}")
    if doc.point is not None:
        lines.append(f"  point: {_fmt_point(doc.point)}")
    if doc.params:
        plist = " ".join(f"{k}={v}" for k, v in sorted(doc.params.items()))
        lines.append(f"  params: {plist}")
    lines.append(f"  budget: max_pairs={budget.max_pairs} max_degree={budget.max_degree}")
    lines.append("result:")
    lines.extend("  " + h for h in human)
    lines.append("data:")
    for key in sorted(data):
        lines.append(f"  {key} = {data[key]}")
    lines.append(f"status: {status}")
    return lines, code


def _error_report(status, message):
    return f"== jetspace report ==\nstatus: {status}\nerror: {message}\n"


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"environment variable {name} must be an integer")


def _resolve_budget(doc, args):
    pairs = DEFAULT_BUDGET.max_pairs
    degree = DEFAULT_BUDGET.max_degree
    if "max_pairs" in doc.budget_overrides:
        pairs = doc.budget_overrides["max_pairs"]
    if "max_degree" in doc.budget_overrides:
        degree = doc.budget_overrides["max_degree"]
    env_pairs = _env_int("JETSPACE_MAX_PAIRS")
    env_degree = _env_int("JETSPACE_MAX_DEGREE")
    if env_pairs is not None:
        pairs = env_pairs
    if env_degree is not None:
        degree = env_degree
    if args.max_pairs is not None:
        pairs = args.max_pairs
    if args.max_degree is not None:
        degree = args.max_degree
    if pairs < 1 or degree < 1:
        raise ParseError("budget values must be positive")
    return Budget(max_pairs=pairs, max_degree=degree)


def _check_jobs(args):
    jobs = args.jobs if args.jobs is not None else _env_int("JETSPACE_JOBS")
    if jobs is not None and jobs < 1:
        raise ParseError("jobs must be at least 1")


def build_argparser():
    parser = argparse.ArgumentParser(
        prog="jetspace",
        description="exact jet-scheme and discrepancy computations over the rationals",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write the report to this file instead of stdout")
        sp.add_argument("--max-pairs", type=int, help="pair budget for basis computations")
        sp.add_argument("--max-degree", type=int, help="degree budget for basis computations")
        sp.add_argument(
            "--jobs", type=int, help="accepted for compatibility; rows always run serially"
        )

    run = sub.add_parser("run", help="execute an input file")
    run.add_argument("file", help="path to the input file")
    add_common(run)
    corpus = sub.add_parser("corpus", help="list built-in examples, or run one by name")
    corpus.add_argument("name", nargs="?", help="corpus entry to run (omit to list)")
    add_common(corpus)
    return parser


def main(argv=None):
    args = build_argparser().parse_args(argv)
    started = time.perf_counter()
    code = 0
    out_text = ""
    try:
        if args.mode == "corpus" and args.name is None:
            out_text = "\n".join(sorted(CORPUS)) + "\n"
        else:
            if args.mode == "corpus":
                if args.name not in CORPUS:
                    raise ParseError(f"unknown corpus entry {args.name!r}")
                text = CORPUS[args.name]
            else:
                try:
                    with open(args.file, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise ParseError(f"cannot read input file: {exc}")
            doc = parse_input(text)
            budget = _resolve_budget(doc, args)
            _check_jobs(args)
            lines, code = execute(doc, budget)
            out_text = "\n".join(lines) + "\n"
    except ParseError as exc:
        out_text = _error_report("parse-error", str(exc))
        code = 2
    except PreconditionError as exc:
        out_text = _error_report("precondition-error", str(exc))
        code = 3
    except BudgetExhausted as exc:
        out_text = _error_report("budget-exhausted", str(exc))
        code = 4
    except AgreementError as exc:
        out_text = _error_report("agreement-error", str(exc))
        code = 5
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out_text)
            return code
        except OSError as exc:
            out_text = _error_report("parse-error", f"cannot write output file: {exc}")
            code = 2
    sys.stdout.write(out_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
