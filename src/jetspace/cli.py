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
ord-blowup.  Each is one entry of COMMANDS: a run function and the
readers that check its parameters and turn them into typed values.
Reports are byte-deterministic; timing goes to stderr.
Exit code 0 is ok; an error ends with the `status` and `exit_code` of
its class in errors.py, and a budget stop that still has a partial
report prints it with BudgetExhausted's.

Command line: `run FILE` or `corpus [NAME]`, then --out, --max-pairs and
--max-degree in any order around the argument (see USAGE).  -h/--help
prints the usage to stdout and exits 0.  A malformed command line prints
the usage and `jetspace: error: ...` to stderr, nothing to stdout, and
exits 2 (SystemExit from `main`, before any report is built).
"""

import re
import sys
import time

from .corpus import CORPUS
from .errors import BudgetExhausted, JetspaceError, ParseError, PreconditionError
from .groebner import Budget, DEFAULT_BUDGET, Ideal
from .invariants import (
    check_mld_hat_equals_n,
    lct_hat_bound,
    mld_hat_bound,
    ord_blowup_origin,
    tangent_cone,
)
from .jets import jet_ideal, lambda_sequence
from .parser import parse_polynomial, parse_rational
from .poly import Ring


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
            point = tuple(parse_rational(t) for t in rest.split(","))
            if None in point:
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


# -- readers: each turns the command-table entry `key` into a typed value


def _int(minimum, default=None):
    """An integer of at least `minimum`; required when there is no default."""
    def read(doc, key):
        if key not in doc.params:
            if default is None:
                raise ParseError(f"missing required parameter {key}=")
            return default
        try:
            value = int(doc.params[key])
        except ValueError:
            raise ParseError(f"parameter {key} must be an integer")
        if value < minimum:
            raise ParseError(f"parameter {key} must be at least {minimum}")
        return value
    return read


def _lookup(doc, name):
    if name not in doc.ideals:
        raise ParseError(f"unknown ideal {name!r}")
    return doc.ideals[name]


def _ideal(doc, key):
    """The ideal the parameter names, or the only ideal declared."""
    if key in doc.params:
        return _lookup(doc, doc.params[key])
    if len(doc.ideals) == 1:
        return next(iter(doc.ideals.values()))
    if not doc.ideals:
        raise ParseError("no ideal declared")
    raise ParseError("several ideals are declared; pass ideal=NAME")


def _named(doc, key):
    """The ideal a required parameter names."""
    if key not in doc.params:
        raise ParseError(f"missing required parameter {key}=")
    return _lookup(doc, doc.params[key])


def _on(doc, key):
    """The optional ambient variety; naming one requires ideal= as well."""
    if key not in doc.params:
        return None
    X = _lookup(doc, doc.params[key])
    if "ideal" not in doc.params:
        raise ParseError("with on=, pass ideal=NAME for the measured ideal")
    return X


def _point(doc, key):
    if doc.point is None:
        raise ParseError(f"command {doc.command} requires a point line")
    return doc.point


def _point_or_origin(doc, key):
    return doc.point


def _clauses(doc, key):
    """NAME^WEIGHT,... as a tuple of (ideal, Fraction weight) pairs."""
    text = doc.params.get(key, "")
    clauses = []
    for chunk in text.split(",") if text else ():
        name, sep, weight = chunk.partition("^")
        if not sep:
            raise ParseError(f"clause {chunk!r} needs the form NAME^WEIGHT")
        ideal = _lookup(doc, name)
        value = parse_rational(weight)
        if value is None:
            raise ParseError(f"bad weight {weight!r}")
        clauses.append((ideal, value))
    return tuple(clauses)


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


def _fmt_indices(indices):
    return "(" + ",".join(str(m) for m in indices) + ")"


def _numbered(label, gens):
    return [f"{label} {i}: {g}" for i, g in enumerate(gens, start=1)]


def _lambda_row(label, row):
    return (
        f"{label}: value={_fmt(row.value)} converged={_fmt(row.converged)} "
        f"cells={_fmt_cells(row.cells)}"
    )


def _bound_summary(table, fmt_argmin, on_edge):
    """The bound line and notes closing an lct or mld table, and its data;
    a bound not exact reads "window edge" if on_edge(argmin), else "not proven"."""
    argmin = "none" if table.argmin is None else fmt_argmin(table.argmin)
    data = {"M": table.M, "bound": _fmt(table.bound), "argmin": argmin,
            "exact": _fmt(table.exact)}
    if table.bound is None:
        line = "bound: none (every row was skipped)"
    else:
        label = "exact" if table.exact else "window edge" if on_edge(table.argmin) else "not proven"
        line = f"bound: {table.bound} at m={argmin} ({label})"
    return [line] + _notes(table.notes), data


def _notes(notes):
    return [f"note: {note}" for note in notes]


def _jets(budget, ideal, m):
    J = jet_ideal(ideal, m)
    human = [f"jet ring: {', '.join(J.jet_ring.ring.names)}"]
    human += _numbered("generator", J.ideal.gens)
    return human, {"level": m, "generators": len(J.ideal.gens)}, False


def _dim(budget, ideal):
    res = ideal.krull_dimension(budget)
    witness = ", ".join(res.independent_set) if res.independent_set else "(none)"
    human = [f"dimension: {res.dimension}", f"independent variables: {witness}"]
    data = {"dimension": res.dimension, "independent": ",".join(res.independent_set)}
    return human, data, False


def _tangent_cone(budget, ideal, point):
    cone = tangent_cone(ideal, point, budget)
    human = [f"principal: {'yes' if cone.principal else 'no'}"]
    human += _numbered("generator", cone.ideal.gens)
    data = {"principal": _fmt(cone.principal), "generators": len(cone.ideal.gens)}
    return human, data, False


def _check_main(budget, ideal, point, e_max):
    report = check_mld_hat_equals_n(ideal, point, e_max, budget)
    jet = report.lambda_report
    human = [f"variety dimension n: {report.n}"]
    human += _numbered("tangent cone generator", report.cone.ideal.gens)
    human.append(f"cone status: {report.cone_status}")
    human.append(f"cone verdict: {_fmt(report.cone_verdict)}")
    if report.cone_certificate is not None:
        human.append(f"cone certificate: {report.cone_certificate}")
    human.append(_lambda_row("jet row m=1", jet.rows[0]))
    human.append(f"jet verdict: {_fmt(report.lambda_verdict)}")
    human.append(f"overall verdict: {_fmt(report.verdict)}")
    human.append(f"agreement: {_fmt(report.agreement)}")
    human += _notes(report.notes)
    data = {
        "n": report.n,
        "cone_status": report.cone_status,
        "cone_verdict": _fmt(report.cone_verdict),
        "lambda_1": _fmt(jet.rows[0].value),
        "lambda_verdict": _fmt(report.lambda_verdict),
        "verdict": _fmt(report.verdict),
        "agreement": _fmt(report.agreement),
    }
    return human, data, jet.budget_hit and report.verdict is None


def _lambda(budget, ideal, point, m_max, e_max):
    report = lambda_sequence(ideal, point, m_max, e_max=e_max, budget=budget)
    human = [f"variety dimension n: {report.n}", f"singular locus dimension: {report.singular_dim}"]
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
        line = _lambda_row(f"row m={row.m}", row)
        if row.note:
            line += f" note: {row.note}"
        human.append(line)
        data[f"row.{row.m}.value"] = _fmt(row.value)
        data[f"row.{row.m}.converged"] = _fmt(row.converged)
        data[f"row.{row.m}.cells"] = _fmt_cells(row.cells)
    human.append(f"stabilized lambda: {_fmt(report.stabilized)}")
    human.append(f"mld-hat: {_fmt(report.mld_hat)}")
    human += _notes(report.notes)
    return human, data, report.budget_hit


def _lct_bound(budget, on, ideal, M, e_max):
    table = lct_hat_bound(ideal, M, on=on, e_max=e_max, budget=budget)
    tail, data = _bound_summary(table, str, lambda m: m == M)
    human = []
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
    return human + tail, data, False


def _mld_bound(budget, clauses, center, M):
    # every declared ideal lives in the document's ring
    table = mld_hat_bound(center.ring, clauses, center, M, budget)
    tail, data = _bound_summary(table, _fmt_indices, lambda indices: M in indices)
    human = []
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
    return human + tail, data, False


def _ord_blowup(budget, ideal, point):
    res = ord_blowup_origin(ideal.translate(point) if point is not None else ideal)
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
    return human, data, False


# command -> (run, {input: reader}).  Readers run in table order, so the
# first failing check decides which error a malformed input reports; run
# takes the values by name and returns (human lines, data, budget_hit).
COMMANDS = {
    "jets": (_jets, {"ideal": _ideal, "m": _int(0)}),
    "dim": (_dim, {"ideal": _ideal}),
    "tangent-cone": (_tangent_cone, {"ideal": _ideal, "point": _point_or_origin}),
    "check-main": (_check_main, {"ideal": _ideal, "point": _point, "e_max": _int(0, 3)}),
    "lambda": (
        _lambda,
        {"ideal": _ideal, "point": _point, "m_max": _int(1), "e_max": _int(0, 3)},
    ),
    "lct-bound": (
        _lct_bound,
        {"on": _on, "ideal": _ideal, "M": _int(1, 4), "e_max": _int(0, 3)},
    ),
    "mld-bound": (_mld_bound, {"clauses": _clauses, "center": _named, "M": _int(0, 4)}),
    "ord-blowup": (_ord_blowup, {"ideal": _ideal, "point": _point_or_origin}),
}


def execute(doc, budget):
    run, readers = COMMANDS[doc.command]
    for key in doc.params:
        # the point comes from the point line, never from a parameter
        if key not in readers or key == "point":
            raise ParseError(f"command {doc.command} does not take parameter {key!r}")
    values = {key: read(doc, key) for key, read in readers.items()}
    human, data, budget_hit = run(budget, **values)
    lines = ["== jetspace report ==", f"command: {doc.command}", "inputs:"]
    lines.append(f"  ring: {', '.join(doc.ring.names)}")
    for name, ideal in doc.ideals.items():
        gens = ", ".join(str(g) for g in ideal.gens)
        lines.append(f"  ideal {name} = {gens}")
    if doc.point is not None:
        lines.append(f"  point: {', '.join(str(c) for c in doc.point)}")
    if doc.params:
        plist = " ".join(f"{k}={v}" for k, v in sorted(doc.params.items()))
        lines.append(f"  params: {plist}")
    lines.append(f"  budget: max_pairs={budget.max_pairs} max_degree={budget.max_degree}")
    lines.append("result:")
    lines.extend("  " + h for h in human)
    lines.append("data:")
    for key in sorted(data):
        lines.append(f"  {key} = {data[key]}")
    if budget_hit:
        lines.append(f"status: {BudgetExhausted.status}")
        return lines, BudgetExhausted.exit_code
    lines.append("status: ok")
    return lines, 0


def _error_report(exc):
    """The report text and exit code for a JetspaceError."""
    return f"== jetspace report ==\nstatus: {exc.status}\nerror: {exc}\n", exc.exit_code


def _resolve_budget(doc, flags):
    """Defaults, then the file's budget line, then the command-line flags."""
    caps = {}
    for key in ("max_pairs", "max_degree"):
        caps[key] = doc.budget_overrides.get(key, getattr(DEFAULT_BUDGET, key))
        if key in flags:
            caps[key] = flags[key]
    if min(caps.values()) < 1:
        raise ParseError("budget values must be positive")
    return Budget(**caps)


_SYNOPSIS = """\
usage: jetspace run FILE [--out PATH] [--max-pairs N] [--max-degree N]
       jetspace corpus [NAME] [--out PATH] [--max-pairs N] [--max-degree N]
"""
USAGE = _SYNOPSIS + """
exact jet-scheme and discrepancy computations over the rationals

  run FILE         execute an input file
  corpus           list the built-in examples
  corpus NAME      run one by name
  --out PATH       write the report to PATH instead of stdout
  --max-pairs N    pair budget for basis computations
  --max-degree N   degree budget for basis computations
  -h, --help       show this text and exit

Options follow the mode, may come before or after its argument, may be
shortened to a unique prefix, and take their value as --opt VALUE or
--opt=VALUE; a -- ends the options.
"""

# long option -> type of its value (--help takes none)
_OPTIONS = {"--help": None, "--out": str, "--max-pairs": int, "--max-degree": int}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _usage_error(message):
    sys.stderr.write(f"{_SYNOPSIS}jetspace: error: {message}\n")
    sys.exit(2)


def _option(token):
    """(option, value attached with '=' or None) for an option token,
    ("--", None) for the end of the options and (None, None) for a
    positional.  Tokens are read as argparse reads them: '', '-',
    negative numbers and tokens holding a space are positional, and an
    unknown option is an error."""
    if token == "--":
        return "--", None
    if token[:2] == "--":
        name, eq, value = token.partition("=")
        matches = [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] == "-h":
        return "--help", token[2:] or None
    if token[:1] != "-" or token == "-" or _NEGATIVE_NUMBER.match(token) or " " in token:
        return None, None
    _usage_error(f"unrecognized arguments: {token}")


def _read_argv(argv):
    """(mode, its FILE or NAME or None, {dest: value}) of a command line.

    The mode comes first.  -h/--help prints the usage to stdout and exits
    0; a malformed command line prints its first lines with the error to
    stderr and exits 2.
    """
    mode = argv[0] if argv else ""
    if mode not in ("run", "corpus"):
        if _option(mode) == ("--help", None):
            sys.stdout.write(USAGE)
            sys.exit(0)
        _usage_error("the first argument must be the mode, run or corpus")
    positionals, flags = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        option, value = _option(token)
        if option is None:
            positionals.append(token)
            continue
        if option == "--":
            positionals.extend(tokens)
            break
        if option == "--help":
            if value is not None:
                _usage_error(f"{option} takes no value")
            sys.stdout.write(USAGE)
            sys.exit(0)
        if value is None:
            value = next(tokens, None)
            if value is None or _option(value)[0] is not None:
                _usage_error(f"{option} needs a value")
        try:
            flags[option[2:].replace("-", "_")] = _OPTIONS[option](value)
        except ValueError:
            _usage_error(f"{option} needs an integer, not {value!r}")
    if len(positionals) > 1:
        _usage_error(f"unrecognized arguments: {' '.join(positionals[1:])}")
    if mode == "run" and not positionals:
        _usage_error("run needs an input FILE")
    return mode, positionals[0] if positionals else None, flags


def main(argv=None):
    mode, target, flags = _read_argv(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    code = 0
    out_text = ""
    try:
        if mode == "corpus" and target is None:
            out_text = "\n".join(sorted(CORPUS)) + "\n"
        else:
            if mode == "corpus":
                if target not in CORPUS:
                    raise ParseError(f"unknown corpus entry {target!r}")
                text = CORPUS[target]
            else:
                try:
                    with open(target, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise ParseError(f"cannot read input file: {exc}")
            doc = parse_input(text)
            budget = _resolve_budget(doc, flags)
            lines, code = execute(doc, budget)
            out_text = "\n".join(lines) + "\n"
    except JetspaceError as exc:
        out_text, code = _error_report(exc)
    except ValueError as exc:  # str() of an int past the interpreter's digit limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        error = f"a number in the report passes the interpreter's {limit}-digit print limit"
        out_text, code = _error_report(PreconditionError(error))
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    if flags.get("out"):
        try:
            with open(flags["out"], "w", encoding="utf-8") as fh:
                fh.write(out_text)
            return code
        except OSError as exc:
            out_text, code = _error_report(ParseError(f"cannot write output file: {exc}"))
    sys.stdout.write(out_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
