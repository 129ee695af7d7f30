"""Eight end-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion:

1. exact invariant values at a chart origin and at a located point above
   it, with a strict lexicographic decrease between them;
2. exact directrix dimensions, polyhedron vertex and face values over
   imperfect rational-function fields for p in {2, 3};
3. the chart chains and component labels of the running surface example
   in both labelling modes, by exact generator strings;
4. three pinned strict-transform fixtures, by exact generator strings;
5. detection of an endless vertex-solving chain: budget exhaustion, the
   solving log, the escape annotation, and the stable vertex;
6. six randomized property suites (at least 200 instances each) against
   independent brute-force oracles, with zero failures;
7. strict decrease of the full invariant at every tracked point of every
   corpus resolution trace, all terminating within 64 steps;
8. every finite delta/alpha/beta/gamma value produced across the corpus
   lies on the (1/N!)-grid for the chart's multiplicity N.

All comparisons are exact (integers and fractions); there are no floating
point tolerances anywhere.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    VERY_NEAR,
    VERY_O_NEAR,
    Center,
    StratumComponent,
    blow_up_chart,
    classify_point,
    locate_point,
    make_chart,
)
from surfres.char_polyhedron import (
    BUDGET_EXHAUSTED,
    EMPTY,
    ESCAPE_ANNOTATION,
    MINIMAL,
    delta,
    face_numbers,
    polyhedron_of,
    prepare,
    sigma_search,
)
from surfres.exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    to_string,
)
from surfres.invariant import (
    LESS,
    adapt_frame_to_forms,
    compare_iota,
    compute_iota,
    iota0,
    iota_poly,
)
from surfres.local_frame import (
    Frame,
    NuStar,
    compute_directrix,
    initial_form,
    nu_star,
)
from surfres.resolution_driver import (
    FRESH_LABELS,
    RESOLVED,
    check_monotone,
    initial_chart,
    resolve,
)

from oracles import Monomial, contains, make, transform_polyhedron_expected
from test_char_polyhedron import (
    FRAME_U12_Y,
    oracle_vertices,
    random_instance,
    raw_points,
)
from test_exact_algebra import stored_form_problems, taylor_expansion_matches
from test_invariant import origin_component, whirl_chart
from test_local_frame import brute_force_directrix_dim, random_homogeneous

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)
F = Fraction
XYZ = ("x", "y", "z")


def poly(text, field=QQ, variables=XYZ):
    return parse_polynomial(text, field, variables)


def labels_of(chart):
    return {c.variables: c.label for c in chart.stratum}


# ---------------------------------------------------------------------------
# shared random generators
# ---------------------------------------------------------------------------


def random_vertical_chart(rng, field, u_vars, min_value):
    """A chart y^nu + (terms of polyhedron value >= min_value)."""
    nu = rng.choice((2, 3))
    vs = tuple(u_vars) + ("y",)
    terms = {Monomial.from_dict({"y": nu}): field.one()}
    for _ in range(rng.randint(1, 4)):
        b = rng.randint(0, nu - 1)
        exps = {v: rng.randint(0, 6) for v in u_vars}
        exps = {v: e for v, e in exps.items() if e}
        total = sum(exps.values())
        if not total or Fraction(total, nu - b) < min_value:
            continue
        if b:
            exps["y"] = b
        c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))
             if field.kind == "rationals"
             else field.from_int(rng.randint(1, field.characteristic - 1)))
        m = Monomial.from_dict(exps)
        terms[m] = terms.get(m, field.zero()) + c
    return make_chart(field, vs, (make(field, vs, terms),),
                      tuple(u_vars), ("y",))


RANDOM_SURFACE_FIELDS = (("Q", QQ), ("F2", F2), ("F3", F3), ("F5", F5))


def random_surface(rng):
    """A random binomial or trinomial surface x^a + y^b z^c (+ x^d y^e z^g)."""
    name, field = RANDOM_SURFACE_FIELDS[rng.randrange(4)]
    a = rng.randint(2, 3)
    terms = [f"x^{a}"]
    while True:
        b, c = rng.randint(0, 4), rng.randint(0, 4)
        if b + c >= 2:
            break
    terms.append(f"y^{b}*z^{c}" if b and c else (f"y^{b}" if b else f"z^{c}"))
    if rng.random() < 0.5:
        d = rng.randint(1, a - 1) if a > 2 else 1
        e, g = rng.randint(0, 3), rng.randint(0, 3)
        if d + e + g >= 2:
            mon = [f"x^{d}"]
            if e:
                mon.append(f"y^{e}")
            if g:
                mon.append(f"z^{g}")
            terms.append("*".join(mon))
    return name, field, " + ".join(terms)


# ---------------------------------------------------------------------------
# criterion 1: exact invariant pair at a located point, strict decrease
# ---------------------------------------------------------------------------


def test_criterion_1_strict_decrease_at_a_located_point():
    parent = whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 1)])
    at_origin = compute_iota(parent)
    assert at_origin.iota_poly == (F(3, 2), F(3, 2), F(7, 3), 0)

    blown = blow_up_chart(whirl_chart(),
                          Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    located = locate_point(blown, {"u2": QQ.from_int(-1)})
    located = replace(
        located, stratum=(origin_component(("u1", "u2", "y"), 1),))
    at_point = compute_iota(located)
    assert at_point.iota_poly == (F(3, 2), F(3, 2), F(4, 3), F(1, 2))

    assert compare_iota(at_point, at_origin) == LESS
    print("criterion 1: PASS — (3/2, 3/2, 7/3, 0) > (3/2, 3/2, 4/3, 1/2)")


# ---------------------------------------------------------------------------
# criterion 2: imperfect residue fields F_p(t), p in {2, 3}
# ---------------------------------------------------------------------------


def test_criterion_2_imperfect_residue_fields():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        vs = ("u1", "u2", "y")
        # t is not a p-th power: the directrix needs the inseparable form
        chart = make_chart(K, vs, (poly(f"y^{p} + t*u1^{p}", K, vs),),
                           ("u1", "u2"), ("y",))
        assert iota0(chart) == (NuStar((p,)), 0, 1, 1)  # e = e^O = 1

        with_stratum = replace(
            chart, stratum=(origin_component(vs, 1),))
        assert iota_poly(with_stratum) == (0, 0, 0, INF)

        # at the special point the frame uses phi = lambda - u2^p
        ws = ("u1", "phi", "z")
        g = poly(f"z^{p} + phi*u1^{p}", K, ws)
        fr = Frame(("u1", "phi"), ("z",))
        ppoly = polyhedron_of([g], fr)
        assert ppoly.vertices == ((F(1), F(1, p)),)
        alpha, beta, _gamma, _s = face_numbers(ppoly, 1)
        assert (alpha, beta) == (F(1), F(1, p))
        assert sigma_search(prepare([g], fr), fr, side=1).value == F(1)
    print("criterion 2: PASS — e = e^O = 1, vertex (1, 1/p), "
          "(alpha, beta, sigma) = (1, 1/p, 1) for p in {2, 3}")


# ---------------------------------------------------------------------------
# criterion 3: label chains of the surface example, both modes
# ---------------------------------------------------------------------------


def test_criterion_3_label_chains_in_both_modes():
    default = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"))
    first = default.charts["root/z"]
    assert to_string(first.generators[0]) == "x^2 + y^9*z^17"
    assert labels_of(first) == {("x", "y"): 0, ("x", "z"): 1}
    second = default.charts["root/z/y"]
    assert to_string(second.generators[0]) == "x^2 + y^7*z^17"
    assert labels_of(second) == {("x", "y"): 0, ("x", "z"): 1}

    fresh = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                    label_mode=FRESH_LABELS)
    generators = {to_string(ch.generators[0])
                  for ch in fresh.charts.values()
                  if len(ch.generators) == 1}
    assert "x^2 + y^7*z^15" in generators
    assert "x^2 + y^5*z^15" in generators
    print("criterion 3: PASS — default chain (0,1)/(0,1), "
          "no-inheritance chain reaches y^7*z^15 and y^5*z^15")


# ---------------------------------------------------------------------------
# criterion 4: strict-transform fixtures, exact strings
# ---------------------------------------------------------------------------


def test_criterion_4_strict_transform_fixtures():
    # two crossing lines in a cubic: the x-chart transform is self-similar
    cubic = make_chart(QQ, XYZ, (poly("z^3 + x^2*y^2*z + x^3*y^3"),),
                       ("x", "y"), ("z",))
    child = blow_up_chart(cubic, Center(XYZ, CLOSED_POINT), "x")
    assert to_string(child.generators[0]) == "z^3 + x^2*y^2*z + x^3*y^3"

    # threefold point blow-up over F_2
    vs4 = ("t", "x", "y", "z")
    threefold = make_chart(F2, vs4,
                           (poly("t^2 + x*y^2 + z^3 + x^5*y", F2, vs4),),
                           ("x", "y", "z"), ("t",))
    child = blow_up_chart(threefold, Center(vs4, CLOSED_POINT), "x")
    assert to_string(child.generators[0]) == "t^2 + x*y^2 + x*z^3 + x^4*y"

    # threefold curve blow-up in characteristic zero
    curve_case = make_chart(
        QQ, vs4,
        (poly("t^2 + x^4 + y^2*z^5 + x^2*z^3 + y^7*z", QQ, vs4),),
        ("x", "y", "z"), ("t",))
    child = blow_up_chart(curve_case,
                          Center(("t", "x", "y"), COORDINATE_CURVE), "y")
    assert to_string(child.generators[0]) == \
        "t^2 + x^2*z^3 + z^5 + x^4*y^2 + y^5*z"
    print("criterion 4: PASS — three strict transforms match exactly")


# ---------------------------------------------------------------------------
# criterion 5: endless vertex solving is detected and annotated
# ---------------------------------------------------------------------------


def test_criterion_5_unresolvable_vertex_budget_trace():
    f = poly("y^4 + y^2 + u1^6 + u2^5", F2, ("u1", "u2", "y"))
    result = prepare([f], FRAME_U12_Y, budget=5)
    assert result.status == BUDGET_EXHAUSTED
    logged = set(result.solved_vertices)
    assert {(F(3), F(0)), (F(6), F(0)), (F(12), F(0))} <= logged
    assert result.escape_annotation == ESCAPE_ANNOTATION
    assert result.escape_annotation
    assert result.stable_polyhedron is not None
    assert (F(0), F(5, 2)) in result.stable_polyhedron.vertices
    print("criterion 5: PASS — budget exhausted, solving log "
          "(3,0),(6,0),(12,0), escape annotated, stable vertex (0, 5/2)")


# ---------------------------------------------------------------------------
# criterion 6: randomized property suites against independent oracles
# ---------------------------------------------------------------------------


def _check_hull_matches_oracle(count):
    rng = random.Random(6001)
    checked = 0
    while checked < count:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y)
        try:
            ppoly = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        assert ppoly.vertices == oracle_vertices(
            raw_points(f, FRAME_U12_Y)), to_string(f)
        checked += 1
    return checked


def _check_transform_matches_recomputed(count):
    rng = random.Random(6002)
    checked = 0
    while checked < count:
        field = [QQ, F2, F3][checked % 3]
        u_vars = ("u1",) if rng.random() < 0.4 else ("u1", "u2")
        chart = random_vertical_chart(rng, field, u_vars, rng.choice((1, 2)))
        before = prepare(list(chart.generators), chart.frame, budget=16)
        if before.status != MINIMAL or before.polyhedron.is_empty:
            continue
        center = Center(chart.variables, CLOSED_POINT)
        for w in u_vars:
            child = blow_up_chart(chart, center, w)
            if classify_point(chart, child) not in (VERY_NEAR, VERY_O_NEAR):
                continue
            after = prepare(list(child.generators), child.frame, budget=16)
            if after.status != MINIMAL:
                continue
            predicted = transform_polyhedron_expected(
                before.polyhedron, center, w, chart.frame)
            assert predicted.polyhedron == after.polyhedron, (
                to_string(chart.generators[0]), w)
            checked += 1
    return checked


def _check_delta_drops_by_one(count):
    rng = random.Random(6003)
    checked = 0
    while checked < count:
        field = [QQ, F2, F3][checked % 3]
        chart = random_vertical_chart(rng, field, ("u1",), 2)
        if iota0(chart)[2] != 1:
            continue
        before = prepare(list(chart.generators), chart.frame, budget=16)
        if before.status != MINIMAL or before.polyhedron.is_empty:
            continue
        center = Center(chart.variables, CLOSED_POINT)
        child = blow_up_chart(chart, center, "u1")
        if classify_point(chart, child) not in (VERY_NEAR, VERY_O_NEAR):
            continue
        after = prepare(list(child.generators), child.frame, budget=16)
        if after.status != MINIMAL:
            continue
        assert delta(after.polyhedron) == delta(before.polyhedron) - 1, (
            to_string(chart.generators[0]))
        checked += 1
    return checked


def _check_preparation_monotonicity(count):
    rng = random.Random(6004)
    checked = 0
    while checked < count:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=8)
        try:
            before = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        result = prepare([f], FRAME_U12_Y, budget=16)
        if result.status not in (MINIMAL, EMPTY):
            continue
        assert contains(before, result.polyhedron), to_string(f)
        solved = set(result.solved_vertices)
        for v in before.vertices:
            if v not in solved:
                assert v in result.polyhedron.vertices, (to_string(f), v)
        checked += 1
    return checked


def _check_directrix_against_translation_oracle(count):
    rng = random.Random(6005)
    checked = 0
    while checked < count:
        field = [F2, F3][checked % 2]
        nvars = rng.randint(2, 4)
        vs = ("x", "y", "z", "w")[:nvars]
        fr = Frame(vs[:-1], vs[-1:])
        initials = [random_homogeneous(rng, field, vs, rng.randint(1, 5))
                    for _ in range(rng.randint(1, 2))]
        initials = [g for g in initials if not g.is_zero]
        if not initials:
            continue
        r, _forms = compute_directrix(initials, fr)
        assert len(vs) - r == brute_force_directrix_dim(
            initials, field, vs), [to_string(g) for g in initials]
        checked += 1
    return checked


def _check_taylor_identity(count):
    rng = random.Random(6006)
    checked = 0
    while checked < count:
        field = [QQ, F2, F3][checked % 3]
        nvars = rng.randint(1, 4)
        vs = ("x", "y", "z", "w")[:nvars]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = {v: rng.randint(0, 3) for v in vs}
            exps = {v: e for v, e in exps.items() if e}
            if sum(exps.values()) > 6:
                continue
            c = (Fraction(rng.randint(-4, 4)) if field.kind == "rationals"
                 else field.from_int(rng.randint(0, field.characteristic - 1)))
            m = Monomial.from_dict(exps)
            terms[m] = terms.get(m, field.zero()) + c
        f = make(field, vs, terms)
        if f.is_zero:
            continue
        assert taylor_expansion_matches(f), to_string(f)
        checked += 1
    return checked


def test_criterion_6_property_suite():
    counts = {
        "hull-vs-oracle": _check_hull_matches_oracle(200),
        "transform-vs-recomputed": _check_transform_matches_recomputed(200),
        "delta-drop-by-one": _check_delta_drops_by_one(200),
        "preparation-monotonicity": _check_preparation_monotonicity(200),
        "directrix-vs-oracle": _check_directrix_against_translation_oracle(200),
        "taylor-identity": _check_taylor_identity(200),
    }
    assert all(n >= 200 for n in counts.values()), counts
    print("criterion 6: PASS — " + ", ".join(
        f"{name} x{n}" for name, n in counts.items()))


# ---------------------------------------------------------------------------
# criterion 7: strict decrease across the whole corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_traces():
    def surface_root():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    traces = [
        ("surface-default", resolve(surface_root())),
        ("surface-fresh", resolve(surface_root(), label_mode=FRESH_LABELS)),
        ("crossing-lines-cubic",
         resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"))),
        ("two-divisor-chart", resolve(whirl_chart())),
    ]

    rng = random.Random(20260823)
    seen = set()
    while len(traces) < 4 + 50:
        name, field, text = random_surface(rng)
        key = (name, text)
        if key in seen:
            continue
        seen.add(key)
        trace = resolve(initial_chart(field, XYZ, text))
        if trace.status != RESOLVED:
            continue  # out of the supported scope (or over budget)
        traces.append((f"random-{name}-{text}", trace))
    return traces


def test_criterion_7_strict_decrease_across_the_corpus(corpus_traces):
    assert len(corpus_traces) == 54
    total_pairs = 0
    for name, trace in corpus_traces:
        assert trace.status == RESOLVED, name
        assert len(trace.events) <= 64, (name, len(trace.events))
        report = check_monotone(trace)
        assert report.ok, (name, report.violations[0])
        assert report.checked == sum(
            len(ev.records) for ev in trace.events), name
        total_pairs += report.checked
    assert total_pairs > 300
    print(f"criterion 7: PASS — {len(corpus_traces)} traces, "
          f"{total_pairs} strictly decreasing point pairs, all <= 64 steps")


def test_every_stored_coefficient_of_the_corpus_is_field_native(corpus_traces):
    """Each generator, boundary generator and stratum condition of every
    chart of the corpus stores an int or a Fraction with a denominator over
    Q, and a residue in [0, p) over F_p: no float and no integral Fraction
    survives a resolution."""
    checked = 0
    for name, trace in corpus_traces:
        for chart in trace.charts.values():
            polys = list(chart.generators)
            polys.extend(comp.generator for comp in chart.frame.boundary)
            for comp in chart.stratum or ():
                polys.extend(comp.conditions)
            for f in polys:
                assert stored_form_problems(f) == [], (name, chart.chart_id)
                checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# criterion 8: (1/N!)-grid discreteness of all produced face values
# ---------------------------------------------------------------------------


def _face_values(chart):
    """Finite delta/alpha/beta/gamma values of the chart's prepared
    polyhedron in a directrix-adapted frame (empty when out of scope)."""
    try:
        ini = [initial_form(g, g.variables) for g in chart.generators]
        _r, forms = compute_directrix(ini, chart.frame)
        gens, frame = adapt_frame_to_forms(
            list(chart.generators), chart.frame, forms)
        if frame.e not in (1, 2):
            return []
        result = prepare(gens, frame, budget=24)
        if result.status not in (MINIMAL, EMPTY):
            return []
        ppoly = result.polyhedron
        values = []
        d = delta(ppoly)
        if d != INF:
            values.append(d)
        if frame.e == 2 and not ppoly.is_empty:
            for side in (1, 2):
                alpha, beta, gamma, _s = face_numbers(ppoly, side)
                values.extend(v for v in (alpha, beta, gamma) if v != INF)
        return values
    except (InputError, ScopeError):
        return []


def test_criterion_8_grid_discreteness(corpus_traces):
    charts = [("two-divisor-chart-origin", whirl_chart())]
    for name, trace in corpus_traces:
        charts.extend((name, chart) for chart in trace.charts.values())

    collected = 0
    for name, chart in charts:
        order = int(nu_star(chart.generators).orders[0])
        if order < 1:
            continue
        grid = factorial(order)
        for value in _face_values(chart):
            assert (value * grid).denominator == 1, (
                name, chart.chart_id, value, order)
            collected += 1
    assert collected >= 200
    print(f"criterion 8: PASS — {collected} face values, every one on "
          "the (1/N!)-grid of its chart")
