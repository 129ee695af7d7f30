"""``surfres polyhedron`` ends on a documented exit code, and the sigma
search does bounded work.

* On every chart of the four named traces, in the chart's own frame and in
  its directrix-adapted frame, at budget 8, ``polyhedron`` exits 0, 2 or 3.
  Among them is the two-divisor chart ``root/u1`` in its adapted frame,
  where sigma's re-preparation on side 2 ends ``budget_exhausted``: the
  polyhedron it compares is not final, so the sigma found so far (64, the
  slope read before that straightening; the exhausted polyhedron's is 1)
  is reported, marked uncertified.
* A straightening that leaves the first face's inverse slope unchanged
  after a complete re-preparation is a scope error naming the side; after
  an exhausted one, sigma is returned uncertified, and it is the slope read
  before that straightening, also when the exhausted polyhedron's slope is
  lower.
* A linear gcd of the face constraints has its root read off directly,
  also when its constant has 18 digits, and over Q it is the root sympy
  finds, also when it is 0.
* Over F_p(t) a constraint that is a p-th power, repeated, of a linear
  polynomial has its root found and certified; any other constraint of
  degree at least 2 is marked uncertified, with no root claimed.
* The roots of a constraint of degree at least 2 are all the roots in the
  field: over F_p and F_p[s]/(m) against evaluation at every element by
  integer arithmetic.
* The search stops without a root over F_2(t), where s^2 + t has none
  (uncertified, and ``invariant`` exits 3 on that chart), and when its
  budget of substitutions runs out: the slope reached so far, uncertified,
  after exactly the substitutions that straighten the faces.
* Over F_2(t) a face whose slide coefficients double in degree at each
  straightening stops, uncertified, at the first coefficient of degree over
  ``MAX_SLIDE_DEGREE``, and ``polyhedron`` of it ends at once with exit 0.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from surfres import char_polyhedron as cp
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import (
    INF,
    PRIME_FIELD,
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    to_string,
    translate,
)
from surfres.invariant import adapt_frame_to_forms
from surfres.local_frame import Frame, compute_directrix, initial_form
from surfres.resolution_driver import FRESH_LABELS, initial_chart, resolve

from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")
U1U2Y = ("u1", "u2", "y")
FRAME_U12_Y = Frame(("u1", "u2"), ("y",))
RATIONALS = {"kind": "rationals"}
EXHAUSTED_SIDE_2 = "two-divisor-chart:root/u1:adapted"


def polyhedron_report(monkeypatch, capsys, job: dict) -> tuple[int, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(["polyhedron", "-"])
    return code, capsys.readouterr().out


def chart_jobs(traces: dict, field: dict) -> dict[str, dict]:
    """The polyhedron job at budget 8 of every chart of the traces, in its
    own frame and in the directrix-adapted frame, over the field of the
    job document ``field``, keyed by trace name and chart id."""
    jobs = {}
    for name, trace in traces.items():
        for chart in trace.charts.values():
            frames = {"": (chart.generators, chart.frame)}
            initials = [initial_form(g, g.variables) for g in chart.generators]
            try:
                _r, forms = compute_directrix(initials, chart.frame)
                frames[":adapted"] = adapt_frame_to_forms(
                    list(chart.generators), chart.frame, forms)
            except (InputError, ScopeError):
                pass
            for suffix, (gens, frame) in frames.items():
                jobs[f"{name}:{chart.chart_id}{suffix}"] = {
                    "field": field, "variables": list(chart.variables),
                    "generators": [to_string(g) for g in gens],
                    "frame": {"u": list(frame.u_block), "y": list(frame.y_block)},
                    "options": {"budget": 8}}
    return jobs


def named_chart_jobs() -> dict[str, dict]:
    """The ``chart_jobs`` of the named traces."""
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    return chart_jobs({
        "surface-default": resolve(surface()),
        "surface-fresh": resolve(surface(), label_mode=FRESH_LABELS),
        "crossing-lines-cubic":
            resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")),
        "two-divisor-chart": resolve(whirl_chart()),
    }, RATIONALS)


def test_polyhedron_exits_with_a_documented_code_on_every_named_chart(
        monkeypatch, capsys):
    jobs = named_chart_jobs()
    assert len(jobs) > 600
    codes = {}
    for key, job in jobs.items():
        codes[key] = polyhedron_report(monkeypatch, capsys, job)[0]
    assert {key: code for key, code in codes.items()
            if code not in (EXIT_OK, EXIT_INPUT, EXIT_SCOPE)} == {}
    assert jobs[EXHAUSTED_SIDE_2]["generators"] == [
        "u1 + 3*u1*u2 + y^2 + 3*u1*u2^2 + u1*u2^3 + u1^5"]
    assert codes[EXHAUSTED_SIDE_2] == EXIT_OK
    report = json.loads(polyhedron_report(monkeypatch, capsys,
                                          jobs[EXHAUSTED_SIDE_2])[1])
    assert report["sigma"] == {"side1": 1, "side2": 64}


SLIDE_JOB = "y^2 + u1^2*(u2 - {c}*u1^2)^2"


def test_an_unchanged_slope_after_a_complete_preparation_is_a_scope_error(
        monkeypatch):
    gens = [parse_polynomial(SLIDE_JOB.format(c=3), QQ, U1U2Y)]
    # the first face runs from (1, 1) to (3, 0): inverse slope 2
    prepared = cp.prepare(gens, FRAME_U12_Y)
    real_prepare = cp.prepare

    def undo_the_straightening(current, frame, budget=64):
        return real_prepare(gens, frame, budget)

    assert cp.sigma_search(prepared, FRAME_U12_Y, 1).value == cp.INF
    monkeypatch.setattr(cp, "prepare", undo_the_straightening)
    with pytest.raises(ScopeError, match="sigma on side 1"):
        cp.sigma_search(prepared, FRAME_U12_Y, 1)

    def exhausted(text):
        def prepare(current, frame, budget=64):
            return replace(real_prepare([parse_polynomial(text, QQ, U1U2Y)],
                                        frame, budget),
                           status=cp.BUDGET_EXHAUSTED)
        return prepare

    # an exhausted re-preparation at the same slope 2, and at the lower
    # slope 1 (first face from (1, 1) to (2, 0)): the slope read before
    for text in (SLIDE_JOB.format(c=3), "y^2 + u1^2*u2^2 + u1^4"):
        monkeypatch.setattr(cp, "prepare", exhausted(text))
        result = cp.sigma_search(prepared, FRAME_U12_Y, 1)
        assert (result.value, result.certified) == (2, False), text
        assert len(result.substitutions) == 1


@pytest.mark.parametrize("constant", ["1000000000039", "999999999999999989"])
def test_a_large_slide_constant_is_read_off_the_linear_gcd(
        monkeypatch, capsys, constant):
    job = {"field": RATIONALS, "variables": list(U1U2Y),
           "generators": [SLIDE_JOB.format(c=constant)],
           "frame": {"u": ["u1", "u2"], "y": ["y"]}}
    code, out = polyhedron_report(monkeypatch, capsys, job)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "minimal"
    assert report["sigma"] == {"side1": "inf", "side2": 1}


def test_uni_roots_reads_a_linear_root_off_directly():
    # 3 X - c: the root c/3
    c = 999999999999999989
    assert cp._uni_roots([Fraction(-c), Fraction(3)], QQ) == ([Fraction(c, 3)], True)


@pytest.mark.parametrize("seed", range(3))
def test_uni_roots_over_q_match_sympy(seed):
    # over Q sigma hands _uni_roots only polynomials of degree 1
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    rng = random.Random(seed)
    roots = [Fraction(0)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(40)]
    for root in roots:
        lead = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 3]))
        coeffs = [-lead * root, lead]
        [expected] = [Fraction(int(r.p), int(r.q)) for r in sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator)
             for c in reversed(coeffs)], X, domain="QQ").ground_roots()]
        assert cp._uni_roots(coeffs, QQ) == ([expected], True)


@pytest.mark.parametrize("p, power", [(2, 2), (2, 4), (3, 3)])
def test_uni_roots_over_rational_functions_strip_p_th_powers(p, power):
    field = FieldDescriptor.rational_functions(p, "t")
    t, zero, one = field.transcendental(), field.zero(), field.one()
    # (X - t)^power = X^power - t^power, power a power of p
    coeffs = [-(t ** power)] + [zero] * (power - 1) + [one]
    assert cp._uni_roots(coeffs, field) == ([t], True)


def test_uni_roots_over_rational_functions_without_a_p_th_power_are_uncertified():
    field = FieldDescriptor.rational_functions(2, "t")
    t, zero, one = field.transcendental(), field.zero(), field.one()
    # X^2 + t: t is not a square; X^4 + t^2 strips to it
    assert cp._uni_roots([t, zero, one], field) == ([], False)
    assert cp._uni_roots([t ** 2, zero, zero, zero, one], field) == ([], False)
    # X^2 + X + t has no root, and (X + t)(X + t + 1) = X^2 + X + t^2 + t
    # has the roots t and t + 1, which the search does not look for
    assert cp._uni_roots([t, one, one], field) == ([], False)
    assert cp._uni_roots([t ** 2 + t, one, one], field) == ([], False)


# F_p and F_p[s]/(m), the modulus listed low to high
FINITE_FIELDS = {
    "F2": FieldDescriptor.prime_field(2),
    "F5": FieldDescriptor.prime_field(5),
    "F7": FieldDescriptor.prime_field(7),
    "F4": FieldDescriptor.finite_extension(2, (1, 1, 1)),
    "F8": FieldDescriptor.finite_extension(2, (1, 1, 0, 1)),
    "F9": FieldDescriptor.finite_extension(3, (1, 0, 1)),
}


def coefficient_tuple(x, field) -> tuple[int, ...]:
    """An element of F_p or F_p[s]/(m) as its coefficients in 1, s, s^2..."""
    if field.kind == PRIME_FIELD:
        return (x.value,)
    d = len(field.modulus) - 1
    return tuple(x.coeffs) + (0,) * (d - len(x.coeffs))


def brute_force_roots(coeffs, field) -> list[tuple[int, ...]]:
    """Every element where the polynomial (coefficients low to high)
    vanishes, by integer arithmetic modulo p and m."""
    p = field.characteristic
    m = list(field.modulus) if field.modulus else [0, 1]
    d = len(m) - 1

    def times(a, b):
        out = [0] * (2 * d)
        for i, j in product(range(d), repeat=2):
            out[i + j] += a[i] * b[j]
        for k in range(2 * d - 1, d - 1, -1):  # s^k -> s^k - out[k] * m
            for j in range(d + 1):
                out[k - d + j] -= out[k] * m[j]
        return [c % p for c in out[:d]]

    coeffs = [coefficient_tuple(c, field) for c in coeffs]
    roots = []
    for x in product(range(p), repeat=d):
        total, power = [0] * d, [1] + [0] * (d - 1)
        for c in coeffs:
            total = [(a + b) % p for a, b in zip(total, times(list(c), power))]
            power = times(power, list(x))
        if not any(total):
            roots.append(x)
    return roots


@pytest.mark.parametrize("name", sorted(FINITE_FIELDS))
def test_uni_roots_over_a_finite_field_are_every_root(name):
    field = FINITE_FIELDS[name]
    elements = field.elements()
    rng = random.Random(name)
    seen_roots = 0
    for _ in range(60):
        # a random polynomial times a product of linear factors
        coeffs = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
        coeffs.append(field.one())
        for _ in range(rng.randint(0, 2)):
            r = rng.choice(elements)
            coeffs = [(coeffs[i - 1] if i else field.zero())
                      - (r * coeffs[i] if i < len(coeffs) else field.zero())
                      for i in range(len(coeffs) + 1)]
        if len(coeffs) < 3:
            continue
        roots, certified = cp._uni_roots(coeffs, field)
        assert certified
        expected = brute_force_roots(coeffs, field)
        assert sorted(coefficient_tuple(r, field) for r in roots) == expected
        seen_roots += len(expected)
    assert seen_roots


def test_sigma_search_with_no_root_of_the_constraint_is_uncertified():
    field = FieldDescriptor.rational_functions(2, "t")
    # prepared: its two vertices (1/2, 1) and (3/2, 0) are not integral
    gens = [parse_polynomial("y^2 + u1*u2^2 + t*u1^3", field, U1U2Y)]
    prepared = cp.prepare(gens, FRAME_U12_Y)
    assert prepared.generators == tuple(gens)
    # u2 <- u2 + c*u1 leaves (c^2 + t)*u1^3 on the first face, and
    # c^2 = t has no solution: the degree of a square is even
    result = cp.sigma_search(prepared, FRAME_U12_Y, 1)
    assert (result.value, result.certified, result.substitutions) == (
        1, False, ())


def test_invariant_with_an_uncertified_sigma_exits_3(monkeypatch, capsys):
    """The chart above on the CLI: the stratum has moved on and V(u1) is a
    new boundary component, so iota_poly reads sigma on side 1, where it
    stays uncertified."""
    job = {"field": {"kind": "rational_functions", "characteristic": 2},
           "variables": list(U1U2Y), "generators": ["y^2 + u1*u2^2 + t*u1^3"],
           "frame": {"u": ["u1", "u2"], "y": ["y"]},
           "boundary": [{"generator": "u1", "status": "new"}],
           "stratum": [{"variables": list(U1U2Y), "label": 0,
                        "original": False}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(["invariant", "-"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_SCOPE, "")
    assert "sigma could not be certified within the budget" in captured.err


@pytest.mark.parametrize("seed", range(3))
def test_sigma_search_out_of_budget_is_uncertified(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    exponents = sorted(rng.sample(range(2, 9), 3))
    constants = [Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                 for _ in exponents]

    def slide(terms):
        return " + ".join(f"({c})*u1^{e}" for c, e in terms) or "0"

    terms = list(zip(constants, exponents))
    text = f"y^2 + u1^2*(u2 - ({slide(terms)}))^2"
    gens = [parse_polynomial(text, QQ, U1U2Y)]
    prepared = cp.prepare(gens, FRAME_U12_Y)
    full = cp.sigma_search(prepared, FRAME_U12_Y, 1)
    assert full.value == INF and full.certified
    for budget in (1, 2, 3):
        result = cp.sigma_search(prepared, FRAME_U12_Y, 1, budget=budget)
        assert not result.certified
        assert [(s["coefficient"], s["exponent"])
                for s in result.substitutions] == terms[:budget]
        assert result.value == (exponents[budget] if budget < 3 else INF)
        # the substitutions leave the slide's remaining terms
        moved = gens[0]
        for s in result.substitutions:
            moved = translate(moved, s["variable"], s["coefficient"],
                              {"u1": s["exponent"]})
        left = f"y^2 + u1^2*(u2 - ({slide(terms[budget:])}))^2"
        got = sympy.sympify(to_string(moved).replace("^", "**"))
        assert sympy.expand(got - sympy.sympify(left.replace("^", "**"))) == 0


# F_2(t): on side 1 the k-th slide coefficient has degrees (2^k, 2^(k+1) - 1)
DOUBLING_SLIDE = "y^2 + (t+1)*u1*u2*y + u1*u2^2*y + (t^2)/(t^2+1)*u1^5*y"


def test_a_slide_coefficient_over_the_degree_cap_stops_sigma_uncertified(
        monkeypatch, capsys):
    job = {"field": {"kind": "rational_functions", "characteristic": 2,
                     "parameter": "t"},
           "variables": list(U1U2Y), "generators": [DOUBLING_SLIDE],
           "frame": {"u": ["u1", "u2"], "y": ["y"]}}
    start = time.perf_counter()
    code, out = polyhedron_report(monkeypatch, capsys, job)
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    field = FieldDescriptor.rational_functions(2, "t")
    gens = [parse_polynomial(DOUBLING_SLIDE, field, U1U2Y)]
    result = cp.sigma_search(cp.prepare(gens, FRAME_U12_Y), FRAME_U12_Y, 1)
    assert not result.certified
    degrees = [s["coefficient"].degree for s in result.substitutions]
    assert degrees == [2 ** (k + 1) - 1 for k in range(1, len(degrees) + 1)]
    assert degrees[-1] <= cp.MAX_SLIDE_DEGREE < 2 * degrees[-1] + 1
    assert json.loads(out)["sigma"]["side1"] == result.value
