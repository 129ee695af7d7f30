"""The rules the driver and the invariant share, against their earlier
bodies.

``select_center`` and ``invariant.classify_case`` read a set's own center
through ``blowup_engine.own_center``; ``select_center`` and
``permissible_check`` test for a whole component of the variety through
``blowup_engine.is_variety_component``; and the driver's ``_plain_delta``
reads delta through ``invariant.chart_delta``.  ``iota_c`` reads
nu*(I_C), e_C and e_C^O off the chart state of the ideal of C and its
deltas through ``chart_delta``, as ``iota_poly`` reads delta^O at e^O = 1.
The bodies each had before (``iota_c`` and ``iota_poly`` with their
``delta_in``, which took the generators, the frame and the forms of a
(log-)directrix) are kept below as oracles, and both sides must give the
same answer, or raise the same error, on every chart of the four named
traces (in both labelling modes) and of seeded surface traces over Q, F_2,
F_3 and F_5.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    Center,
    ChartState,
    StratumComponent,
    iota0,
    is_permissible_curve,
    is_variety_component,
    make_chart,
    own_center,
    permissible_check,
)
from surfres.char_polyhedron import delta
from surfres.exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    restrict_to_zero,
    to_string,
)
from surfres.invariant import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    FORMAL_ZERO,
    CaseInfo,
    _ideal_of_c,
    adapt_frame_to_forms,
    chart_is_regular,
    classify_case,
    iota_c,
    iota_poly,
    prepare_adapted,
)
from surfres.local_frame import (
    OLD,
    BoundaryComponent,
    add_old_boundary,
    compute_directrix,
    initial_form,
)
from surfres.resolution_driver import (
    DEFAULT_LABELS,
    FRESH_LABELS,
    CenterChoice,
    _plain_delta,
    initial_chart,
    resolve,
    select_center,
)

from oracles import nu_of
from test_acceptance import random_surface
from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")
SEEDED_SURFACES = 10
CASE_III_CHARTS = 43


# -- the earlier bodies, kept as oracles -------------------------------------

def vanishes_on(g, variables) -> bool:
    return restrict_to_zero(g, variables).is_zero


def old_select_center(chart: ChartState) -> CenterChoice:
    comps = chart.stratum
    if comps is None:
        raise InputError("the stratum of this chart has not been computed")
    if not comps:
        raise InputError("the stratum is empty; there is nothing to blow up")
    min_label = min(c.label for c in comps)
    pool = sorted((c for c in comps if c.label == min_label),
                  key=lambda c: c.cid)
    for c in pool:
        if not c.is_coordinate:
            raise ScopeError(
                "the minimal-label stratum component is cut by the "
                f"non-coordinate condition {to_string(c.conditions[0])}; "
                "blowing it up is out of scope")
    if chart.nu.orders[-1] >= 2:
        for c in pool:
            if len(c.variables) <= len(chart.generators) and all(
                    vanishes_on(g, c.variables) for g in chart.generators):
                raise ScopeError(
                    f"stratum component V({', '.join(c.variables)}) is a "
                    "component of the variety of order at least 2; the input "
                    "is not reduced")
    n = len(chart.variables)
    if len(pool) == 1:
        comp = pool[0]
        if len(comp.variables) == n:
            return CenterChoice(Center(comp.variables, CLOSED_POINT),
                                comp.label)
        if len(comp.variables) == n - 1:
            if is_permissible_curve(chart, comp.variables):
                return CenterChoice(Center(comp.variables, COORDINATE_CURVE),
                                    comp.label)
            return CenterChoice(Center(chart.variables, CLOSED_POINT), None)
        raise ScopeError(
            f"stratum component V({', '.join(comp.variables)}) has "
            "codimension below a curve; the input is not reduced of "
            "dimension at most two")
    return CenterChoice(Center(chart.variables, CLOSED_POINT), None)


def old_classify_case(chart: ChartState) -> CaseInfo:
    if chart.nu.orders[0] == 0:
        return CaseInfo(CASE_V)
    if chart_is_regular(chart) and not chart.frame.old_components():
        return CaseInfo(CASE_V)
    if chart.stratum is None:
        raise InputError(
            "the maximal stratum of this chart has not been computed")
    comps = tuple(c for c in chart.stratum if c.original)
    if not comps:
        return CaseInfo(CASE_IV)
    n = len(chart.variables)
    if len(comps) == 1:
        comp = comps[0]
        if comp.is_coordinate and len(comp.variables) == n:
            return CaseInfo(CASE_I, comps)
        if (comp.is_coordinate and len(comp.variables) == n - 1
                and is_permissible_curve(chart, comp.variables)):
            return CaseInfo(CASE_II, comps)
    return CaseInfo(CASE_III, comps)


def old_plain_delta(chart: ChartState):
    try:
        gens, frame = adapt_frame_to_forms(
            list(chart.generators), chart.frame, chart.directrix[1])
        if frame.e == 0 or frame.e > 2:
            return None
        return delta(prepare_adapted(gens, frame, False, "delta").polyhedron)
    except (InputError, ScopeError):
        return None


def old_delta_in(gens, frame, forms, with_old_boundary):
    adapted = adapt_frame_to_forms(gens, frame, forms)
    return delta(prepare_adapted(*adapted, with_old_boundary,
                                 "delta").polyhedron)


def old_iota_c(chart: ChartState, case: CaseInfo) -> tuple:
    if case.tag in (CASE_IV, CASE_V):
        return (FORMAL_ZERO, 0, 0, 0, 0, 0)
    if case.tag in (CASE_I, CASE_II):
        return (FORMAL_ZERO, 0, 0, 0, 0, 1)

    gens = _ideal_of_c(case.components, chart.field, chart.variables)
    if not gens or any(g.is_zero for g in gens):
        raise InputError("the ideal of C needs nonzero generators")

    nu_c = nu_of(gens)
    n_old = len(chart.frame.old_components())

    initials = [initial_form(g, g.variables) for g in gens]
    r_c, forms_c = compute_directrix(initials, chart.frame)
    e_c = len(chart.variables) - r_c
    e_c_old, forms_c_old = add_old_boundary(r_c, forms_c, chart.frame,
                                            chart.variables)

    return (nu_c, n_old, e_c, e_c_old,
            old_delta_in(gens, chart.frame, forms_c, False) if e_c else INF,
            old_delta_in(gens, chart.frame, forms_c_old, True)
            if e_c_old else INF)


def old_iota_poly_at_e_o_1(chart: ChartState, case: CaseInfo) -> tuple:
    if case.tag == CASE_V:
        return (0, 0, 0, 0)
    forms = chart.log_directrix[1]
    return (0, 0, 0, old_delta_in(chart.generators, chart.frame, forms, True))


def outcome(rule, chart):
    """The rule's value on the chart, or the type and text of its error."""
    try:
        return rule(chart)
    except (InputError, ScopeError) as err:
        return type(err).__name__, str(err)


# -- the charts --------------------------------------------------------------

def traces():
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    roots = {
        "surface": surface,
        "crossing-lines-cubic":
            lambda: initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"),
        "two-divisor-chart": whirl_chart,
    }
    out = {f"{name}:{mode}": resolve(root(), label_mode=mode)
           for name, root in roots.items()
           for mode in (DEFAULT_LABELS, FRESH_LABELS)}
    rng = random.Random(20261019)
    drawn = {}
    while len(drawn) < SEEDED_SURFACES:
        name, field, text = random_surface(rng)
        drawn.setdefault(f"{name}: {text}", field)
    for key, field in drawn.items():
        out[key] = resolve(initial_chart(field, XYZ, key.split(": ")[1]))
    return out


@pytest.fixture(scope="module")
def charts() -> dict[str, ChartState]:
    return {f"{name}:{chart.chart_id}": chart
            for name, trace in traces().items()
            for chart in trace.charts.values()}


def test_the_charts_cover_every_case_and_both_center_kinds(charts):
    assert len(charts) > 300
    cases = {case.tag for c in charts.values()
             if isinstance(case := outcome(old_classify_case, c), CaseInfo)}
    assert {CASE_I, CASE_II, CASE_III, CASE_IV, CASE_V} <= cases
    kinds = {choice.center.kind for c in charts.values()
             if isinstance(choice := outcome(old_select_center, c),
                           CenterChoice)}
    assert kinds == {CLOSED_POINT, COORDINATE_CURVE}


def test_select_center_matches_its_earlier_body(charts):
    for key, chart in charts.items():
        assert outcome(select_center, chart) == outcome(
            old_select_center, chart), key


def test_classify_case_matches_its_earlier_body(charts):
    for key, chart in charts.items():
        assert outcome(classify_case, chart) == outcome(
            old_classify_case, chart), key


def test_plain_delta_matches_its_earlier_body(charts):
    computed = 0
    for key, chart in charts.items():
        value = _plain_delta(chart)
        assert value == old_plain_delta(chart), key
        computed += value is not None
    assert computed > 50


def case_of(chart: ChartState) -> CaseInfo | None:
    case = outcome(classify_case, chart)
    return case if isinstance(case, CaseInfo) else None


def test_iota_c_matches_its_earlier_body(charts):
    case_iii = 0
    for key, chart in charts.items():
        case = case_of(chart)
        if case is None or case.tag != CASE_III:
            continue
        case_iii += 1
        assert outcome(lambda c: iota_c(c, case), chart) == outcome(
            lambda c: old_iota_c(c, case), chart), key
    assert case_iii == CASE_III_CHARTS


# a cusp as the one original component: finite delta_C, and delta_C^O
# finite where the old boundary leaves e_C^O = 1, infinite where it leaves 0
@pytest.mark.parametrize("cusp, boundary, deltas", [
    ("y^2 - z^3", (), (Fraction(3, 2), Fraction(3, 2))),
    ("y^2 - z^3", ("y",), (Fraction(3, 2), Fraction(3, 2))),
    ("y^2 - z^5", ("z",), (Fraction(5, 2), INF)),
    ("y^3 - z^4", ("z",), (Fraction(4, 3), INF)),
])
def test_iota_c_matches_its_earlier_body_on_a_cusp(cusp, boundary, deltas):
    f = parse_polynomial(f"x^2 + ({cusp})^3", QQ, XYZ)
    old = tuple(BoundaryComponent(parse_polynomial(v, QQ, XYZ), OLD, 0, i)
                for i, v in enumerate(boundary))
    chart = replace(make_chart((f,), ("y", "z"), ("x",), old),
                    stratum=(StratumComponent(0, ("x",), 0, (
                        parse_polynomial(cusp, QQ, XYZ),)),))
    case = classify_case(chart)
    assert case.tag == CASE_III
    assert iota_c(chart, case) == old_iota_c(chart, case)
    assert iota_c(chart, case)[4:] == deltas


def test_iota_c_of_a_component_that_misses_the_point_reads_iota0():
    # a job may give a condition that is a unit at the origin, so C misses
    # the point: iota0 of C reads dimensions 0 off the variety, where the
    # earlier body took the directrix of a constant initial form
    f = parse_polynomial("x^2 + y^3*z^4", QQ, XYZ)
    chart = replace(make_chart((f,), ("y", "z"), ("x",)),
                    stratum=(StratumComponent(0, ("x",), 0, (
                        parse_polynomial("1 + y", QQ, XYZ),)),))
    case = classify_case(chart)
    assert case.tag == CASE_III
    assert iota_c(chart, case)[1:] == (0, 0, 0, INF, INF)
    assert old_iota_c(chart, case)[1:] == (0, 2, 2, INF, INF)
    assert iota_c(chart, case)[0] == old_iota_c(chart, case)[0]


def test_iota_poly_at_log_directrix_dimension_one_matches_its_earlier_body(
        charts):
    compared = 0
    for key, chart in charts.items():
        case = case_of(chart)
        if case is None or outcome(iota0, chart)[3:] != (1,):
            continue
        compared += 1
        assert outcome(lambda c: iota_poly(c, case), chart) == outcome(
            lambda c: old_iota_poly_at_e_o_1(c, case), chart), key
    assert compared > 50


# -- the shared rules on charts built to need them ----------------------------

def curve_chart(text: str, boundary=()) -> ChartState:
    f = parse_polynomial(text, QQ, XYZ)
    return make_chart((f,), ("z",), ("x", "y"), boundary)


def with_stratum(chart: ChartState, variables) -> ChartState:
    return replace(chart, stratum=(StratumComponent(
        cid=0, variables=variables, label=0),))


@pytest.mark.parametrize("text, permissible", [
    ("x^2 + y^3", True),        # equimultiple along V(x, y)
    ("x^2 + y^3 + z", False),   # regular at the origin, off the curve
    ("x^2 + y^2*z + z^3", False),  # order 3 at the origin, 2 along the curve
])
def test_a_curve_is_its_own_center_exactly_when_permissible(text,
                                                            permissible):
    chart = with_stratum(curve_chart(text), ("x", "y"))
    assert is_permissible_curve(chart, ("x", "y")) is permissible
    expected = Center(("x", "y"), COORDINATE_CURVE) if permissible else None
    assert own_center(chart, chart.stratum) == expected
    assert outcome(select_center, chart) == outcome(old_select_center, chart)
    assert outcome(classify_case, chart) == outcome(old_classify_case, chart)


def test_the_not_reduced_refusal_and_permissibility_share_one_test():
    # x^2 vanishes on V(x), of codimension 1: select_center refuses it
    chart = with_stratum(curve_chart("x^2"), ("x",))
    assert is_variety_component(chart, ("x",))
    with pytest.raises(ScopeError, match="not reduced"):
        select_center(chart)
    assert outcome(select_center, chart) == outcome(old_select_center, chart)
    # both generators vanish on V(x, y), of codimension 2: not permissible
    gens = tuple(parse_polynomial(t, QQ, XYZ) for t in ("x^2", "y^2"))
    pair = make_chart(gens, ("z",), ("x", "y"))
    assert is_variety_component(pair, ("x", "y"))
    assert not is_variety_component(pair, ("x", "y", "z"))
    assert "the center contains an irreducible component of the variety" in (
        permissible_check(pair, Center(("x", "y"), COORDINATE_CURVE))
        .violations)
