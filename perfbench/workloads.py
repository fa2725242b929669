"""Workload inputs and their oracles.

A workload is a list of `Input`s.  Each input is one CLI invocation of
`jetspace` (its argv, plus the text of an input file when it needs one)
and an oracle that judges the child's exit code and stdout.  An oracle
returns None when the output is right and a one-line reason when it is
not.  A workload's inputs for pass k depend only on the seed and k.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# The lct-bound rung prints `bound: 2/3 at m=3 (exact)` for x^3 - y^4,
# whose threshold is 1/3 + 1/4 = 7/12: the exactness rule in
# lct_hat_bound is wrong.  The check stays on and the input counts as
# failed; a run whose only failures carry this reason is still reported
# as correct, so that fixing the defect reads as a gain, not a change of
# baseline.
KNOWN_DEFECTS = {
    "ladder/lct-x3-y4": "bound 2/3 is marked exact but the threshold is 7/12",
}


@dataclass(frozen=True)
class Input:
    name: str  # "<workload>/<label>", unique within a workload
    argv: tuple  # arguments to jetspace.cli.main; "{file}" marks the input file
    text: str  # input file contents, or "" for corpus entries
    oracle: object  # callable(code, stdout) -> None | str


def _load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _data_section(stdout):
    """The key-sorted `data:` block of a report, as a dict of strings."""
    data = {}
    inside = False
    for line in stdout.splitlines():
        if line == "data:":
            inside = True
        elif inside and line.startswith("  ") and " = " in line:
            key, _, value = line.strip().partition(" = ")
            data[key] = value
        elif inside:
            break
    return data


def _golden_oracle(expected_code, expected_hash):
    def check(code, stdout):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        if sha256(stdout) != expected_hash:
            return "report bytes differ from the baseline commit's"
        return None

    return check


# ---------------------------------------------------------------------
# corpus: the 18 built-in entries, checked byte for byte
# ---------------------------------------------------------------------


def corpus_inputs(seed, k):
    golden = _load_golden()["corpus"]
    out = []
    for name in sorted(golden):
        g = golden[name]
        out.append(
            Input(f"corpus/{name}", ("corpus", name), "", _golden_oracle(g["exit"], g["sha256"]))
        )
    return out


# ---------------------------------------------------------------------
# ladder: three heavy rungs, each stressing the basis engine differently
# ---------------------------------------------------------------------

CUSP_M5 = """\
ring x, y
ideal X = x^2 - y^3
point 0, 0
command lambda m_max=5 e_max=3
"""

LCT_X3_Y4 = """\
ring x, y
ideal A = x^3 - y^4
command lct-bound M=5
"""

E6_LAMBDA = """\
ring x, y
ideal X = x^3 - y^4
point 0, 0
command lambda m_max=3 e_max=4
"""


def _cusp_oracle(code, stdout):
    """Cusp: lambda is 1 on every row, so mld-hat is n + 1 = 2."""
    if code != 0:
        return f"exit {code}, expected 0"
    data = _data_section(stdout)
    for m in range(1, 6):
        if data.get(f"row.{m}.value") != "1" or data.get(f"row.{m}.converged") != "true":
            return f"row m={m} is not a converged value 1"
    if data.get("lambda") != "1" or data.get("mld_hat") != "2":
        return "stabilized lambda/mld-hat is not 1/2"
    return None


def _lct_oracle(a, b, M):
    """lct(x^a - y^b) = 1/a + 1/b (a, b coprime, at most 1).  Every row
    ratio codim/m bounds it from above (Mustata), and a table marked
    exact must print the threshold itself."""
    lct = min(Fraction(1), Fraction(1, a) + Fraction(1, b))

    def check(code, stdout):
        if code != 0:
            return f"exit {code}, expected 0"
        data = _data_section(stdout)
        for m in range(1, M + 1):
            ratio = data.get(f"row.{m}.ratio")
            if ratio is None:
                return f"row m={m} has no ratio"
            if Fraction(ratio) < lct:
                return f"row m={m} ratio {ratio} is below the threshold {lct}"
        if data.get("exact") == "true" and data.get("bound") != str(lct):
            return f"bound {data.get('bound')} is marked exact but the threshold is {lct}"
        return None

    return check


def ladder_inputs(seed, k):
    e6 = _load_golden()["ladder-e6"]
    return [
        Input("ladder/cusp-m5", ("run", "{file}"), CUSP_M5, _cusp_oracle),
        Input("ladder/lct-x3-y4", ("run", "{file}"), LCT_X3_Y4, _lct_oracle(3, 4, 5)),
        Input("ladder/e6-lambda", ("run", "{file}"), E6_LAMBDA,
              _golden_oracle(e6["exit"], e6["sha256"])),
    ]


# ---------------------------------------------------------------------
# verdicts: generated check-main inputs on sparse surfaces in x, y, z
# ---------------------------------------------------------------------
#
# Each shape is f = (tangent-cone form) + (higher-order monomials).  Its
# letters X, Y, Z are a seed-chosen permutation of x, y, z, and each
# term gets a seed-chosen coefficient in {+-1, +-2, +-3}; the exponents
# are fixed, so every seed costs about the same.  A rendering's cost
# still moves by up to a third with the permutation, which is why each
# pass draws new renderings.
#
# True shapes have a cone with a factor of multiplicity one.
# False shapes have a cone L^a (one plane, a = 2 or 3) and higher-order
# terms whose lowest degree k on the plane L = 0 is not a multiple of a,
# so no 2-dimensional family of 1-jets lifts and the jet route agrees.
# When a divides k (x^2 + y^4 + z^4, or z^2 + x^2*y^2 + x^5 + y^5), the
# jet route says True against the cone route's False and check-main
# raises AgreementError; the generator stays outside that class.

TRUE_SHAPES = (
    ("X*Y", "Z^3"),  # two planes
    ("X^2", "Y^2", "Z^3"),  # a X^2 + b Y^2 is square-free
    ("X*Y*Z", "X^4", "Y^4"),  # three planes
    ("X^2*Y", "Z^4"),  # double plane times a reduced plane
    ("X^2", "Y*Z", "X^3"),  # an irreducible quadric cone
    ("X*Y*(X + Z)", "Z^4"),  # three planes, one skew
)

FALSE_SHAPES = (
    ("X^2", "Y^3", "Z^3"),  # D4, k = 3
    ("X^2", "Y^3", "Z^4"),  # E6, k = 3
    ("X^2", "Y^3", "Y*Z^3"),  # E7, k = 3
    ("X^2", "Y^2*Z", "Z^4"),  # D5, k = 3
    ("X^2", "Y^2*Z", "Z^3"),  # D4 again, another presentation
    ("X^3", "Y^4", "Z^4"),  # triple plane, k = 4
)


def _render(shape, rng):
    letters = rng.sample(("x", "y", "z"), 3)
    subst = dict(zip("XYZ", letters))
    parts = []
    for term in shape:
        body = "".join(subst.get(ch, ch) for ch in term)
        c = rng.choice((1, 2, 3))
        sign = rng.choice(("+", "-"))
        coeff = "" if c == 1 else f"{c}*"
        if not parts:
            parts.append(("-" if sign == "-" else "") + coeff + body)
        else:
            parts.append(f" {sign} {coeff}{body}")
    return "".join(parts)


def _verdict_oracle(expected):
    want = "true" if expected else "false"

    def check(code, stdout):
        if code != 0:
            return f"exit {code}, expected 0"
        data = _data_section(stdout)
        if data.get("agreement") == "false":
            return "routes disagree"
        if data.get("verdict") != want:
            return f"verdict {data.get('verdict')}, built to be {want}"
        return None

    return check


def verdict_inputs(seed, k):
    """Pass k renders every shape afresh, so a run's medians average
    over many renderings instead of resting on one draw per shape."""
    rng = random.Random(f"verdicts-{seed}-{k}")
    out = []
    for expected, shapes in ((True, TRUE_SHAPES), (False, FALSE_SHAPES)):
        for i, shape in enumerate(shapes):
            f = _render(shape, rng)
            text = f"ring x, y, z\nideal X = {f}\npoint 0, 0, 0\ncommand check-main\n"
            label = f"{'true' if expected else 'false'}{i}"
            out.append(Input(f"verdicts/{label}", ("run", "{file}"), text, _verdict_oracle(expected)))
    return out


WORKLOADS = {
    "corpus": corpus_inputs,
    "ladder": ladder_inputs,
    "verdicts": verdict_inputs,
}
