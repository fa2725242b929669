"""Acceptance gate: one test per headline requirement, each printing a
single "[acceptance] criterion-N: PASS/FAIL" line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines even
when everything passes.

Criterion 1 pins each route's own answer at the origin of 8 varieties.
On 7 of them the tangent-cone route and the jet route agree.  On the
tacnode x^2 - y^4 they split, as documented for curves: the cone x^2 has
no reduced component, so the cone route says False, while the arc
(a^2 t^2, a t) lifts every 1-jet (0, a), so the jet route says True and
is the reported verdict, with a note that the routes disagree.  The arc
is checked by direct substitution, independently of the jet code.  See
the README's "Two routes on curves".
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from jetspace.cli import main as cli_main
from jetspace.corpus import CORPUS
from jetspace.groebner import Ideal, gcd_poly, lcm_poly
from jetspace.invariants import (
    check_mld_hat_equals_n,
    lct_hat_bound,
    mld_hat_bound,
    mld_hat_from_lambda,
    ord_blowup_origin,
)
from jetspace.jets import JetRing, lambda_sequence, pad_to_jet_ring, t_expand
from jetspace.parser import parse_polynomial
from jetspace.poly import Ring


R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "z", "w"))


def mk(ring, text):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return Ideal(ring, tuple(mk(ring, t) for t in texts))


def origin(ring):
    return tuple(Fraction(0) for _ in range(ring.ngens))


def report_line(number, ok, detail):
    print(f"[acceptance] criterion-{number}: {'PASS' if ok else 'FAIL'} ({detail})")


# name -> (ring, generators, expected cone verdict, expected jet verdict)
# at the origin; only the tacnode, a curve, has routes that differ
VARIETIES = {
    "line": (R2, ("y",), True, True),
    "node": (R2, ("x*y",), True, True),
    "cusp": (R2, ("x^2 - y^3",), False, False),
    "tacnode": (R2, ("x^2 - y^4",), False, True),
    "cone": (R4, ("x*y - z*w",), True, True),
    "sphere": (R3, ("x^2 + y^2 + z^2",), True, True),
    "umbrella": (R3, ("x^2 - y^2*z",), False, False),
    "tripleline": (R2, ("x^3 + x^2*y - x*y^2 - y^3",), True, True),
}

SMOOTH_POINTS = {
    "line": (0, 0),
    "node": (1, 0),
    "cusp": (1, 1),
    "tacnode": (1, 1),
    "cone": (1, 1, 1, 1),
    "umbrella": (1, 1, 1),
    "tripleline": (1, 1),
}


def test_criterion_1_two_route_agreement():
    failures = []
    for name, (ring, gens, cone_expected, jet_expected) in sorted(VARIETIES.items()):
        result = check_mld_hat_equals_n(ideal(ring, *gens), origin(ring))
        if result.cone_verdict is not cone_expected:
            failures.append(f"{name} cone route: expected {cone_expected}, got {result.cone_verdict}")
        if result.lambda_verdict is not jet_expected:
            failures.append(f"{name} jet route: expected {jet_expected}, got {result.lambda_verdict}")
        if cone_expected == jet_expected:
            if result.agreement is not True or result.verdict is not jet_expected:
                failures.append(
                    f"{name}: expected agreement on {jet_expected}, got agreement "
                    f"{result.agreement}, verdict {result.verdict}"
                )
        elif not (
            result.n == 1
            and result.agreement is False
            and result.verdict is jet_expected
            and any("disagree" in note for note in result.notes)
        ):
            failures.append(
                f"{name}: expected a noted curve split with jet verdict {jet_expected}, got "
                f"n {result.n}, agreement {result.agreement}, verdict {result.verdict}"
            )
        if name == "tacnode" and result.cone.generator != mk(ring, "x^2"):
            failures.append(f"tacnode cone: expected x^2, got {result.cone.generator}")

    # independent witness for the tacnode's jet answer: every 1-jet (0, a)
    # lifts to the arc x = a^2 t^2, y = a t, which lies on x^2 - y^4
    arcs = Ring(("a", "t"))
    a, t = arcs.gens()
    on_arc = mk(R2, "x^2 - y^4").substitute({0: a * a * t * t, 1: a * t})
    if not on_arc.is_zero():
        failures.append(f"tacnode arc (a^2 t^2, a t) leaves x^2 - y^4: {on_arc}")

    detail = "; ".join(failures) if failures else (
        "routes agree on 7 varieties; tacnode split noted (cone x^2 False, "
        "jet True via arc (a^2 t^2, a t))"
    )
    report_line(1, not failures, detail)
    assert not failures, "two-route mismatches: " + "; ".join(failures)


def test_criterion_2_plane_beats_blowup_discrepancy():
    plane = ideal(R4, "x", "z")
    rep = lambda_sequence(plane, origin(R4), 2, e_max=2)
    mld = mld_hat_from_lambda(rep)
    blow = ord_blowup_origin(ideal(R4, "x*(x*y - z*w)", "z*(x*y - z*w)"))
    ok = (
        mld == 2
        and blow.vanishing_order == 3
        and blow.k_exceptional == 3
        and blow.log_discrepancy == 1
        and mld > blow.log_discrepancy
    )
    report_line(
        2,
        ok,
        f"mld-hat {mld} vs blowup log discrepancy {blow.log_discrepancy} "
        f"(order {blow.vanishing_order})",
    )
    assert ok


def test_criterion_3_defect_rows_node_and_cusp():
    node = lambda_sequence(ideal(R2, "x*y"), origin(R2), 3, e_max=3)
    cusp = lambda_sequence(ideal(R2, "x^2 - y^3"), origin(R2), 3, e_max=3)
    node_vals = [r.value for r in node.rows]
    cusp_vals = [r.value for r in cusp.rows]
    ok = (
        node_vals == [0, 0, 0]
        and cusp_vals == [1, 1, 1]
        and all(r.converged for r in node.rows)
        and all(r.converged for r in cusp.rows)
    )
    report_line(3, ok, f"node rows {node_vals}, cusp rows {cusp_vals}")
    assert ok


def test_criterion_4_discrepancy_tables_detect_singularities():
    failures = []
    for name, (ring, gens, _, _) in sorted(VARIETIES.items()):
        I = ideal(ring, *gens)
        n = I.krull_dimension().dimension
        c = ring.ngens - n
        W = Ideal(ring, ring.gens())
        if name != "line":
            table = mld_hat_bound(ring, ((I, Fraction(c)),), W, 2)
            witness = min(r.value for r in table.rows if r.value is not None)
            if not witness < n:
                failures.append(f"{name}: no table row below n={n} (min {witness})")
        point = SMOOTH_POINTS.get(name)
        if point is None:
            continue
        point = tuple(Fraction(c0) for c0 in point)
        rep = lambda_sequence(I, point, 2, e_max=3)
        if mld_hat_from_lambda(rep) != n:
            failures.append(f"{name} smooth point: mld-hat != n")
        W_pt = Ideal(
            ring,
            tuple(ring.var(i) - ring.constant(point[i]) for i in range(ring.ngens)),
        )
        table = mld_hat_bound(ring, ((I, Fraction(c)),), W_pt, 2)
        low = min(r.value for r in table.rows if r.value is not None)
        if low < n:
            failures.append(f"{name} smooth point: table row {low} below n={n}")
    detail = "; ".join(failures) if failures else (
        "singular witnesses found and smooth points stay at n on all varieties"
    )
    report_line(4, not failures, detail)
    assert not failures


def test_criterion_5_threshold_values():
    # diagonal oracle for monomial ideals (x^a, y^b): 1/a + 1/b, capped
    # by nothing here since all values are <= 2
    cases = [
        (ideal(R2, "x", "y"), 3, Fraction(1, 1) + Fraction(1, 1)),
        (ideal(R2, "x^2"), 4, Fraction(1, 2)),
        (ideal(R2, "x^2", "y^3"), 6, Fraction(1, 2) + Fraction(1, 3)),
    ]
    got = [lct_hat_bound(a, M).bound for a, M, _ in cases]
    want = [expected for _, _, expected in cases]
    ok = got == want
    report_line(5, ok, f"thresholds {[str(g) for g in got]} vs {[str(w) for w in want]}")
    assert ok


def test_criterion_6_groebner_engine_oracles():
    # dimensions of all monomial ideals with <= 2 generators of degree
    # <= 2 per variable in 3 variables, against subset enumeration
    nvars = 3
    ring = R3
    monomials = list(product(range(3), repeat=nvars))

    def oracle(supports):
        from itertools import combinations

        best = -1
        for size in range(nvars + 1):
            for subset in combinations(range(nvars), size):
                s = set(subset)
                if all(not set(sup) <= s for sup in supports):
                    best = max(best, size)
        return best

    checked = 0
    for pair in combinations_with_replacement(monomials, 2):
        gens = tuple(ring.monomial(e, Fraction(1)) for e in pair)
        supports = [tuple(i for i, e in enumerate(exps) if e) for exps in pair]
        expected = oracle(supports)
        got = Ideal(ring, gens).krull_dimension().dimension
        assert got == expected, f"dim mismatch on {pair}: {got} != {expected}"
        checked += 1

    rng = random.Random(20240817)

    def rand_poly(zero_constant):
        p = ring.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            if zero_constant and not any(exps):
                exps = (1, 0, 0)
            p = p + ring.monomial(exps, Fraction(rng.randint(-3, 3)))
        return p

    memberships = 0
    while memberships < 100:
        gens = tuple(rand_poly(True) for _ in range(rng.randint(1, 3)))
        if all(g.is_zero() for g in gens):
            continue
        I = Ideal(ring, gens)
        f = ring.zero()
        for g in gens:
            f = f + g * rand_poly(False)
        assert I.contains(f)
        assert not I.contains(f + ring.one())
        memberships += 1

    pairs = 0
    while pairs < 50:
        f, g = rand_poly(False), rand_poly(False)
        if f.is_zero() or g.is_zero():
            continue
        d = gcd_poly(f, g)
        l = lcm_poly(f, g)
        assert d * l == (f * g).monic()
        assert divmod_exact_ok(f, d) and divmod_exact_ok(g, d)
        pairs += 1

    report_line(
        6,
        True,
        f"{checked} dimension oracles, {memberships} membership round trips, "
        f"{pairs} gcd/lcm identities",
    )


def divmod_exact_ok(f, d):
    from jetspace.poly import divide_exact

    try:
        divide_exact(f, d)
        return True
    except Exception:
        return False


def test_criterion_7_arc_expansion_identities():
    rng = random.Random(60647)

    def rand_poly():
        p = R2.zero()
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            p = p + R2.monomial(exps, Fraction(rng.randint(-3, 3)))
        return p

    for _ in range(100):
        m = rng.randint(0, 4)
        jr = JetRing(R2, m)
        f, g = rand_poly(), rand_poly()
        cf, cg, cfg = t_expand(f, m), t_expand(g, m), t_expand(f * g, m)
        for k in range(m + 1):
            conv = jr.ring.zero()
            for i in range(k + 1):
                conv = conv + cf[i] * cg[k - i]
            assert conv == cfg[k], "product expansion is not the convolution"
        lo = rng.randint(0, m)
        shallow = t_expand(f, lo)
        deep = t_expand(f, m)
        for k in range(lo + 1):
            assert pad_to_jet_ring(shallow[k], jr) == deep[k], (
                "truncation does not restrict the deeper expansion"
            )
    report_line(7, True, "100 product convolutions and truncation restrictions")


def test_criterion_8_cli_reports_are_deterministic(tmp_path):
    unstable = []
    for name in sorted(CORPUS):
        outputs = []
        for tag in ("a", "b"):
            target = tmp_path / f"{name}-{tag}.txt"
            code = cli_main(["corpus", name, "--out", str(target)])
            if code != 0:
                unstable.append(f"{name}: exit {code}")
                break
            outputs.append(target.read_bytes())
        else:
            if outputs[0] != outputs[1]:
                unstable.append(f"{name}: outputs differ")
    detail = "; ".join(unstable) if unstable else (
        f"{len(CORPUS)} entries byte-identical across reruns"
    )
    report_line(8, not unstable, detail)
    assert not unstable
