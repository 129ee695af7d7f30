"""Tests for the resolution loop: strata, labels, centers, traces."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    StratumComponent,
    make_chart,
    permissible_check,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    to_string,
)
from surfres.invariant import (
    CASE_II,
    CASE_III,
    CASE_IV,
    EQUAL,
    LESS,
    classify_case,
)
from surfres.local_frame import NEW, OLD, BoundaryComponent
from surfres.resolution_driver import (
    DEFAULT_LABELS,
    FRESH_LABELS,
    RESOLVED,
    SCOPE_ERROR,
    STEP_LIMIT,
    _solve_components,
    check_monotone,
    initial_chart,
    max_stratum,
    resolve,
    select_center,
    trace_to_dot,
    trace_to_jsonable,
)

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
XYZ = ("x", "y", "z")


def poly(text, field=QQ, variables=XYZ):
    return parse_polynomial(text, field, variables)


def chart_with(text, field=QQ, variables=XYZ, u_block=("y", "z"),
               y_block=("x",), boundary=(), stratum=None):
    chart = make_chart((poly(text, field, variables),),
                       u_block, y_block, boundary)
    if stratum is None:
        return chart
    return replace(chart, stratum=tuple(stratum))


def old_divisor(name, field=QQ, variables=XYZ, cid=0):
    return BoundaryComponent(parse_polynomial(name, field, variables),
                             OLD, 0, cid)


def stratum_shape(chart):
    return [(c.variables, c.label, c.original) for c in chart.stratum]


def chart_by_generator(trace, text):
    for chart in trace.charts.values():
        if [to_string(g) for g in chart.generators] == [text]:
            return chart
    raise AssertionError(f"no chart with generator {text!r} in the trace")


# ---------------------------------------------------------------------------
# max_stratum
# ---------------------------------------------------------------------------


def test_max_stratum_of_the_surface_example():
    chart = initial_chart(QQ, XYZ, "x^2 + y^9*z^10")
    comps = max_stratum(chart)
    assert stratum_shape(replace(chart, stratum=comps)) == [
        (("x", "y"), 0, True), (("x", "z"), 0, True)]


def test_max_stratum_of_the_crossing_lines_cubic():
    chart = initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")
    comps = max_stratum(chart)
    assert [(c.variables, c.label) for c in comps] == [
        (("x", "z"), 0), (("y", "z"), 0)]


def test_max_stratum_of_an_isolated_singularity():
    chart = initial_chart(QQ, XYZ, "x^2 + y*z")
    comps = max_stratum(chart)
    assert [(c.variables, c.label) for c in comps] == [(("x", "y", "z"), 0)]


def test_max_stratum_finds_a_conditioned_curve():
    variables = ("t", "x", "y", "z")
    chart = make_chart((poly("t^2 + x*y^2 + x*z^3 + x^4*y", F2, variables),),
                       ("x", "y", "z"), ("t",))
    comps = max_stratum(chart)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.variables == ("t", "x")
    assert [to_string(q) for q in comp.conditions] == ["y^2 + z^3"]
    assert not comp.is_coordinate


def test_max_stratum_keeps_only_components_inside_old_divisors():
    # the curve V(x, z) leaves the old divisor V(y), so the number of old
    # components is not constant along it and only the origin remains
    chart = chart_with("z^3 + x^4", u_block=("x", "y"), y_block=("z",),
                       boundary=(old_divisor("y"),))
    comps = max_stratum(chart)
    assert [(c.variables, c.label) for c in comps] == [(("x", "y", "z"), 0)]


def test_max_stratum_empty_for_transverse_regular_chart():
    chart = chart_with("y", u_block=("x", "z"), y_block=("y",))
    assert max_stratum(chart) == ()


def test_max_stratum_tail_reports_tangency_with_a_divisor():
    chart = chart_with("x + z^3", u_block=("y", "z"), y_block=("x",),
                       boundary=(old_divisor("x"),))
    comps = max_stratum(chart)
    assert [(c.variables, c.label) for c in comps] == [(("x", "z"), 0)]


def test_max_stratum_tail_ignores_the_divisor_itself():
    chart = chart_with("x + x*y", u_block=("y", "z"), y_block=("x",),
                       boundary=(old_divisor("x"),))
    assert max_stratum(chart) == ()


def test_max_stratum_rejects_multi_generator_charts():
    variables = XYZ
    chart = make_chart((poly("x"), poly("y^2 + z^3")),
                       ("y", "z"), ("x",))
    with pytest.raises(ScopeError):
        max_stratum(chart)


# ---------------------------------------------------------------------------
# select_center
# ---------------------------------------------------------------------------


def test_two_crossing_label_zero_lines_select_the_origin():
    chart = initial_chart(QQ, XYZ, "x^2 + y^9*z^10")
    chart = replace(chart, stratum=max_stratum(chart))
    choice = select_center(chart)
    assert choice.center.variables == ("x", "y", "z")
    assert choice.center.kind == CLOSED_POINT
    assert choice.label is None


def test_single_permissible_curve_is_selected():
    chart = chart_with("x^2 + y^9*z^17",
                       stratum=[StratumComponent(0, ("x", "y"), 0)])
    choice = select_center(chart)
    assert choice.center.variables == ("x", "y")
    assert choice.center.kind == COORDINATE_CURVE
    assert choice.label == 0
    assert choice.label is not None


def test_smallest_label_wins_even_when_positive():
    chart = chart_with("x^2 + y*z^17",
                       stratum=[StratumComponent(1, ("x", "z"), 1)])
    choice = select_center(chart)
    assert choice.center.variables == ("x", "z")
    assert choice.label == 1


def test_conditioned_minimal_component_is_out_of_scope():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[StratumComponent(
                           0, ("x",), 0, conditions=(poly("y^2 + z^3"),))])
    with pytest.raises(ScopeError):
        select_center(chart)


def test_curve_leaving_an_old_divisor_falls_back_to_the_origin():
    # V(z) is old and does not contain V(x, y): blowing the curve up would
    # change the old-component count along it, so the point is chosen instead
    stratum = [StratumComponent(0, ("x", "y"), 0)]
    with_old = chart_with("y + x^2", u_block=("x", "z"), y_block=("y",),
                          boundary=(old_divisor("z"),
                                    old_divisor("y", cid=1)),
                          stratum=stratum)
    choice = select_center(with_old)
    assert choice.center.kind == CLOSED_POINT
    assert choice.center.variables == ("x", "y", "z")
    assert choice.label is None

    without = chart_with("y + x^2", u_block=("x", "z"), y_block=("y",),
                         boundary=(old_divisor("y"),), stratum=stratum)
    assert not permissible_check(with_old, select_center(without).center).ok
    assert select_center(without).center.kind == COORDINATE_CURVE


def test_selection_requires_a_nonempty_stratum():
    chart = chart_with("x^2 + y^9*z^10", stratum=[])
    with pytest.raises(InputError):
        select_center(chart)


# ---------------------------------------------------------------------------
# resolve: the surface example in both labelling modes
# ---------------------------------------------------------------------------


def test_regular_input_resolves_with_zero_blow_ups():
    trace = resolve(initial_chart(QQ, XYZ, "y"))
    assert trace.status == RESOLVED
    assert trace.events == ()
    assert list(trace.charts) == ["root"]


def test_surface_example_resolves_and_strictly_decreases():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"))
    assert trace.status == RESOLVED
    assert len(trace.events) <= 64
    report = check_monotone(trace)
    assert report.ok
    assert report.checked == sum(len(ev.records) for ev in trace.events)
    assert report.checked > 0


def test_surface_example_default_labels_reproduce_the_known_chain():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                    label_mode=DEFAULT_LABELS)

    first = trace.charts["root/z"]
    assert to_string(first.generators[0]) == "x^2 + y^9*z^17"
    assert stratum_shape(first) == [
        (("x", "y"), 0, True), (("x", "z"), 1, False)]
    assert classify_case(first).tag == CASE_II

    second = trace.charts["root/z/y"]
    assert to_string(second.generators[0]) == "x^2 + y^7*z^17"
    # the new curve over the center inherits label 0 but is not original
    assert stratum_shape(second) == [
        (("x", "y"), 0, False), (("x", "z"), 1, False)]
    assert classify_case(second).tag == CASE_IV

    # the label-0 chain keeps being blown up until it drops out
    third = trace.charts["root/z/y/y"]
    assert to_string(third.generators[0]) == "x^2 + y^5*z^17"
    assert stratum_shape(third) == [
        (("x", "y"), 0, False), (("x", "z"), 1, False)]


def test_surface_example_fresh_labels_switch_to_the_other_curve():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                    label_mode=FRESH_LABELS)

    second = trace.charts["root/z/y"]
    assert to_string(second.generators[0]) == "x^2 + y^7*z^17"
    assert stratum_shape(second) == [
        (("x", "y"), 2, False), (("x", "z"), 1, False)]

    third = chart_by_generator(trace, "x^2 + y^7*z^15")
    assert stratum_shape(third) == [
        (("x", "y"), 2, False), (("x", "z"), 3, False)]

    fourth = chart_by_generator(trace, "x^2 + y^5*z^15")
    assert stratum_shape(fourth) == [
        (("x", "y"), 4, False), (("x", "z"), 3, False)]

    assert check_monotone(trace).ok


def test_fresh_and_default_modes_disagree_on_the_third_center():
    default = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                      label_mode=DEFAULT_LABELS)
    fresh = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                    label_mode=FRESH_LABELS)
    default_centers = [(ev.chart_id, ev.center.variables)
                       for ev in default.events]
    fresh_centers = [(ev.chart_id, ev.center.variables)
                     for ev in fresh.events]
    assert default_centers[:2] == fresh_centers[:2]
    assert ("root/z/y", ("x", "y")) in default_centers
    assert ("root/z/y", ("x", "z")) in fresh_centers


def test_crossing_lines_cubic_resolves():
    trace = resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"))
    assert trace.status == RESOLVED
    assert check_monotone(trace).ok
    first = trace.events[0]
    assert first.center.variables == ("x", "y", "z")
    # the x-chart transform is the same polynomial again
    assert to_string(trace.charts["root/x"].generators[0]) == \
        "z^3 + x^2*y^2*z + x^3*y^3"


# ---------------------------------------------------------------------------
# resolve: history resets
# ---------------------------------------------------------------------------


def test_boundary_flips_old_when_the_multiplicity_drops():
    trace = resolve(initial_chart(F2, XYZ, "x^4 + y*z^3"), max_steps=8)
    chart = trace.charts["root/y"]
    assert to_string(chart.generators[0]) == "z^3 + x^4"
    assert [b.status for b in chart.frame.boundary] == [OLD]
    # the year-zero stratum respects the freshly-old divisor V(y): the
    # equimultiple curve V(x, z) leaves it, so only the origin remains
    assert stratum_shape(chart) == [(("x", "y", "z"), 0, True)]


def test_labels_reset_when_an_old_component_count_drops():
    trace = resolve(initial_chart(F2, XYZ, "x^4 + y*z^3"), max_steps=8)
    chart = trace.charts["root/y/y"]
    assert to_string(chart.generators[0]) == "z^3 + x^4*y"
    # the old divisor missed this chart: new era, but the exceptional
    # stays young because the multiplicity did not drop
    assert [b.status for b in chart.frame.boundary] == [NEW]
    assert stratum_shape(chart) == [(("x", "z"), 0, True)]


# ---------------------------------------------------------------------------
# resolve: statuses and scope
# ---------------------------------------------------------------------------


def test_step_limit_is_reported():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"), max_steps=3)
    assert trace.status == STEP_LIMIT
    assert len(trace.events) == 3


def test_threefold_with_singular_stratum_curve_is_out_of_scope():
    variables = ("t", "x", "y", "z")
    root = make_chart((poly("t^2 + x*y^2 + z^3 + x^5*y", F2, variables),),
                      ("x", "y", "z"), ("t",))
    trace = resolve(root)
    assert trace.status == SCOPE_ERROR
    assert trace.error


def test_declared_points_are_tracked():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"),
                    declared_points={"root/z": ({"y": QQ.from_int(1)},)})
    records = [rec for ev in trace.events for rec in ev.records
               if rec.point != "origin"]
    assert len(records) == 1
    rec = records[0]
    assert rec.chart_id == "root/z@y"
    assert rec.point == "y"
    assert rec.comparison == LESS
    assert check_monotone(trace).ok


# ---------------------------------------------------------------------------
# check_monotone
# ---------------------------------------------------------------------------


def test_corrupted_trace_fails_the_monotonicity_check():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"))
    event = trace.events[0]
    broken_record = replace(event.records[0],
                            iota_after=event.records[0].iota_before,
                            comparison=EQUAL)
    broken_event = replace(
        event, records=(broken_record,) + event.records[1:])
    broken = replace(trace, events=(broken_event,) + trace.events[1:])
    report = check_monotone(broken)
    assert not report.ok
    first = report.violations[0]
    assert first["step"] == event.step
    assert first["comparison"] == EQUAL
    assert first["iota_before"] == first["iota_after"]
    assert check_monotone(trace).ok  # the real trace still passes


# ---------------------------------------------------------------------------
# the original flag versus labels
# ---------------------------------------------------------------------------


def test_inherited_label_zero_does_not_make_a_component_original():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y^9*z^10"))
    chart = trace.charts["root/z/y"]
    labels = {c.variables: (c.label, c.original) for c in chart.stratum}
    assert labels[("x", "y")] == (0, False)
    assert classify_case(chart).tag == CASE_IV


def test_reducible_original_stratum_is_case_iii():
    chart = initial_chart(QQ, XYZ, "x^2 + y^9*z^10")
    chart = replace(chart, stratum=max_stratum(chart))
    assert classify_case(chart).tag == CASE_III


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_trace_serializes_to_json_and_back():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y*z"))
    data = trace_to_jsonable(trace)
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data
    assert data["status"] == RESOLVED
    assert data["charts"][0]["id"] == "root"
    assert data["steps"] == len(trace.events)
    recorded = data["events"][0]["records"][0]
    assert set(recorded) == {"chart", "parent", "point", "classification",
                             "iota_before", "iota_after", "comparison"}


def test_trace_export_is_deterministic():
    first = trace_to_jsonable(resolve(initial_chart(QQ, XYZ, "x^2 + y*z")))
    second = trace_to_jsonable(resolve(initial_chart(QQ, XYZ, "x^2 + y*z")))
    assert json.dumps(first) == json.dumps(second)


def test_trace_renders_to_dot():
    trace = resolve(initial_chart(QQ, XYZ, "x^2 + y*z"))
    dot = trace_to_dot(trace)
    assert dot.startswith("digraph")
    assert '"root"' in dot
    assert "->" in dot
    assert "V(x, y, z)" in dot


def test_component_order_follows_variable_names_in_an_unsorted_ring():
    # _solve_components branches on a monomial's variables in name order
    # (the order a Monomial lists them), not in the ring's order
    ring = ("z", "a", "y")

    def components(*texts):
        constraints = [parse_polynomial(t, QQ, ring) for t in texts]
        return [tuple(sorted(names)) for names, _cond
                in _solve_components(constraints, ring)]

    assert components("z*a") == [("z",), ("a",)]
    assert components("z*a*y") == [("z",), ("y",), ("a",)]
    assert components("z*a", "a*y") == [("y", "z"), ("a",)]
