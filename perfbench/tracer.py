"""Spans around the public functions of each jetspace module, installed
from outside the program.

`install()` replaces every traced function by a wrapper under each name
a module binds it to (`invariants` imports `reduced_groebner` from
`groebner`, so both bindings are replaced), and methods on their class.
A span is [name, parent index, start, end, info]; spans stay in memory
and are summarized and written out after the traced call returns.

The layers are the modules.  `orders` is not wrapped: `key` runs
hundreds of thousands of times per heavy input and a wrapper would
distort it, so it stays inside `groebner` self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _order_kind(args, kwargs):
    order = kwargs.get("order", args[1] if len(args) > 1 else None)
    return type(order).__name__.lower() if order is not None else "grevlex"


# span name -> function returning what post-processing needs from the
# call's arguments and result; it runs after the span's end is taken and
# only stores references
_CAPTURE = {
    "groebner.reduced_groebner": lambda a, k, r: (
        len(a[0]), a[0][0].ring.ngens if len(a[0]) else 0, _order_kind(a, k), r),
    "jets.t_expand": lambda a, k, r: (a[0], a[1]),
    "jets.contact_ideal": lambda a, k, r: r[0].jet_ring.ring.ngens,
    "jets.jet_ideal": lambda a, k, r: r.jet_ring.ring.ngens,
    "jets.image_dimension": lambda a, k, r: (a[1].level, a[2], r),
    "jets.liftable_image_dim": lambda a, k, r: (a[2], a[3], k.get("extra_levels", 0)),
}

# (module, owner class or None, attribute, span name)
TARGETS = (
    ("jetspace.cli", None, "main", "cli.main"),
    ("jetspace.cli", None, "parse_input", "cli.parse_input"),
    ("jetspace.cli", None, "execute", "cli.execute"),
    ("jetspace.parser", None, "parse_polynomial", "parser.parse_polynomial"),
    ("jetspace.poly", "Polynomial", "__mul__", "poly.mul"),
    ("jetspace.poly", "Polynomial", "translate", "poly.translate"),
    ("jetspace.poly", None, "map_variables", "poly.map_variables"),
    ("jetspace.groebner", None, "reduced_groebner", "groebner.reduced_groebner"),
    ("jetspace.groebner", "Ideal", "groebner_basis", "groebner.groebner_basis"),
    ("jetspace.groebner", "Ideal", "krull_dimension", "groebner.krull_dimension"),
    ("jetspace.groebner", "Ideal", "eliminate", "groebner.eliminate"),
    ("jetspace.groebner", "Ideal", "saturate", "groebner.saturate"),
    ("jetspace.groebner", None, "gcd_poly", "groebner.gcd_poly"),
    ("jetspace.jets", None, "t_expand", "jets.t_expand"),
    ("jetspace.jets", None, "jet_ideal", "jets.jet_ideal"),
    ("jetspace.jets", None, "contact_ideal", "jets.contact_ideal"),
    ("jetspace.jets", None, "image_dimension", "jets.image_dimension"),
    ("jetspace.jets", None, "liftable_image_dim", "jets.liftable_image_dim"),
    ("jetspace.jets", None, "lambda_sequence", "jets.lambda_sequence"),
    ("jetspace.invariants", None, "check_mld_hat_equals_n", "invariants.check_mld_hat_equals_n"),
    ("jetspace.invariants", None, "tangent_cone", "invariants.tangent_cone"),
    ("jetspace.invariants", None, "has_multiplicity_one_factor",
     "invariants.has_multiplicity_one_factor"),
    ("jetspace.invariants", None, "lct_hat_bound", "invariants.lct_hat_bound"),
    ("jetspace.invariants", None, "mld_hat_bound", "invariants.mld_hat_bound"),
)

LAYERS = ("cli", "parser", "poly", "groebner", "jets", "invariants")


class Raised:
    """Span info for a call that ended in an exception."""

    def __init__(self, kind):
        self.kind = kind


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name):
        spans = self.spans
        stack = self.stack
        capture = _CAPTURE.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = perf_counter()
                stack.pop()
                rec[4] = Raised(type(exc).__name__)
                raise
            rec[3] = perf_counter()
            stack.pop()
            if capture is not None:
                rec[4] = capture(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target under every name jetspace binds it to."""
        modules = [m for n, m in sys.modules.items() if n == "jetspace" or n.startswith("jetspace.")]
        for module_name, owner, attr, name in TARGETS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    # -- after the run ---------------------------------------------------

    def write(self, path, label):
        """One JSON line per span, with its parent's index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, info) in enumerate(self.spans):
                rec = {"input": label, "id": i, "parent": parent, "name": name,
                       "start": start, "end": end}
                attrs = describe(name, info)
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")

    def summarize(self):
        """Per-input counters and the costliest cell, row and basis run.

        Counter keys ending in `.max` combine by max, keys holding
        `#num`/`#den` are ratio parts, all others add up.  A span's self
        time is its duration minus the durations of its child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_rg_child = set()
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "groebner.reduced_groebner":
                    has_rg_child.add(parent)

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        seen_expand = set()
        rows = {}
        costliest = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        def bump(key, value):
            out[key] = max(out.get(key, 0), value)

        def rank(kind, label, secs):
            if kind not in costliest or secs > costliest[kind][1]:
                costliest[kind] = (label, secs)

        for i, (name, parent, start, end, info) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            add(name.split(".", 1)[0] + ".self_s", own)
            add(name + ".calls", 1)
            add(name + ".s", dur)
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name == "invariants.check_mld_hat_equals_n":
                if name in ("invariants.tangent_cone", "invariants.has_multiplicity_one_factor"):
                    add("invariants.cone_route.s", dur)
                elif name == "jets.lambda_sequence":
                    add("invariants.jet_route.s", dur)
            if isinstance(info, Raised):
                if name == "groebner.reduced_groebner":
                    add("groebner.budget_exhausted", info.kind == "BudgetExhausted")
                continue
            attrs = describe(name, info)
            if name == "groebner.reduced_groebner":
                add(f"groebner.reduced_groebner.s.{attrs['order']}", dur)
                bump("groebner.reduced_groebner.gens_in.max", attrs["gens"])
                bump("groebner.reduced_groebner.vars.max", attrs["vars"])
                bump("groebner.reduced_groebner.basis_out.max", attrs["basis"])
                for g in info[3]:
                    bump("groebner.reduced_groebner.degree_out.max", g.degree())
                    for c in g.terms.values():
                        bump("groebner.reduced_groebner.coeff_bits.max",
                             max(c.numerator.bit_length(), c.denominator.bit_length()))
                rank("basis run", "{order} order, {gens} generators in {vars} variables, "
                     "{basis} out".format(**attrs), dur)
            elif name == "groebner.groebner_basis":
                add("groebner.groebner_basis.hit_ratio#num", i not in has_rg_child)
                add("groebner.groebner_basis.hit_ratio#den", 1)
            elif name == "groebner.krull_dimension":
                add("groebner.krull_dimension.self_s", own)
            elif name == "cli.execute":
                add("cli.report.self_s", own)
            elif name == "jets.t_expand":
                add("jets.t_expand.repeat_ratio#num", info in seen_expand)
                add("jets.t_expand.repeat_ratio#den", 1)
                seen_expand.add(info)
            elif name in ("jets.contact_ideal", "jets.jet_ideal"):
                bump("jets.jet_vars.max", info)
            elif name == "jets.image_dimension":
                add("jets.image_dimension.empty_ratio#num", attrs["dim"] < 0)
                add("jets.image_dimension.empty_ratio#den", 1)
                if parent_name == "invariants.lct_hat_bound":
                    bump("jets.cell_level.max", attrs["level"])
                    rank("cell", "lct cell at level {level}, image level {image_level}"
                         .format(**attrs), dur)
            elif name == "jets.liftable_image_dim":
                bump("jets.cell_level.max", attrs["level"])
                rank("cell", "m={m} e={e} at level {level}".format(**attrs), dur)
                rows[attrs["m"]] = rows.get(attrs["m"], 0.0) + dur
        for m, secs in rows.items():
            rank("row", f"m={m}", secs)
        out["trace.spans"] = len(spans)
        return out, {kind: list(v) for kind, v in costliest.items()}


def describe(name, info):
    """Span attributes worth writing out, from its captured info."""
    if info is None or isinstance(info, Raised):
        return None
    if name == "groebner.reduced_groebner":
        n_in, n_vars, kind, basis = info
        return {"order": kind, "gens": n_in, "vars": n_vars, "basis": len(basis)}
    if name == "jets.liftable_image_dim":
        m, e, extra = info
        return {"m": m, "e": e, "level": max(m, e) + e + extra}
    if name == "jets.image_dimension":
        level, image_level, dim = info
        return {"level": level, "image_level": image_level, "dim": dim}
    return None
