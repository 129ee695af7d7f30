"""Tests for the affine-chart blow-up engine."""

from __future__ import annotations

from fractions import Fraction

import pytest

from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    DROPPED,
    NEAR,
    O_NEAR,
    VERY_NEAR,
    VERY_O_NEAR,
    Center,
    ChartState,
    StratumComponent,
    blow_up_chart,
    classify_point,
    iota0,
    locate_point,
    make_chart,
    permissible_check,
)
from surfres.char_polyhedron import FPolyhedron, delta, polyhedron_of
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    to_string,
)
from surfres.local_frame import NEW, OLD, BoundaryComponent

from oracles import Monomial, coefficient, transform_polyhedron_expected

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)


def poly(text, field, variables):
    return parse_polynomial(text, field, variables)


def surface_chart(text, field=QQ, variables=("x", "y", "z"),
                  u_block=("y", "z"), y_block=("x",), boundary=()):
    return make_chart((poly(text, field, variables),),
                      u_block, y_block, boundary)


def frac(a, b=1):
    return Fraction(a, b)


def boundary_summary(chart):
    return [(to_string(b.generator), b.status, b.birth_step, b.cid)
            for b in chart.frame.boundary]


# ---------------------------------------------------------------------------
# frozen blow-up charts
# ---------------------------------------------------------------------------


def test_blow_up_point_z_chart():
    chart = surface_chart("x^2 + y^9*z^10")
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "z")
    assert to_string(child.generators[0]) == "x^2 + y^9*z^17"
    assert child.step == 1
    assert child.chart_id == "root/z"
    assert boundary_summary(child) == [("z", NEW, 1, 0)]
    assert child.frame.u_block == ("y", "z")
    assert child.frame.y_block == ("x",)
    assert child.lineage.parent_id == "root"
    assert child.lineage.chart_var == "z"
    assert child.lineage.center.variables == ("x", "y", "z")


def test_blow_up_curve_y_chart():
    chart = surface_chart("x^2 + y^9*z^10")
    step1 = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "z")
    step2 = blow_up_chart(step1, Center(("x", "y"), COORDINATE_CURVE), "y")
    assert to_string(step2.generators[0]) == "x^2 + y^7*z^17"
    assert boundary_summary(step2) == [("z", NEW, 1, 0), ("y", NEW, 2, 1)]
    assert step2.step == 2
    assert step2.chart_id == "root/z/y"


def test_blow_up_cubic_is_self_similar():
    chart = make_chart((poly("z^3 + x^2*y^2*z + x^3*y^3", QQ, ("x", "y", "z")),),
                       ("x", "y"), ("z",))
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "x")
    assert to_string(child.generators[0]) == "z^3 + x^2*y^2*z + x^3*y^3"


def test_blow_up_char2_threefold_point():
    variables = ("t", "x", "y", "z")
    chart = make_chart((poly("t^2 + x*y^2 + z^3 + x^5*y", F2, variables),),
                       ("x", "y", "z"), ("t",))
    child = blow_up_chart(chart, Center(variables, CLOSED_POINT), "x")
    assert to_string(child.generators[0]) == "t^2 + x*y^2 + x*z^3 + x^4*y"


def test_blow_up_threefold_curve_center():
    variables = ("t", "x", "y", "z")
    chart = make_chart(
        (poly("t^2 + x^4 + y^2*z^5 + x^2*z^3 + y^7*z", QQ, variables),),
        ("x", "y", "z"), ("t",))
    center = Center(("t", "x", "y"), COORDINATE_CURVE)
    assert permissible_check(chart, center).ok
    child = blow_up_chart(chart, center, "y")
    assert to_string(child.generators[0]) == \
        "t^2 + x^2*z^3 + z^5 + x^4*y^2 + y^5*z"


def test_blow_up_moves_chart_variable_out_of_y_block():
    chart = make_chart((poly("y^2 + u1^3", QQ, ("u1", "y")),),
                       ("u1",), ("y",))
    child = blow_up_chart(chart, Center(("u1", "y"), CLOSED_POINT), "y")
    # unit: the chart no longer meets the hypersurface
    assert to_string(child.generators[0]) == "1 + u1^3*y"
    assert child.frame.u_block == ("y", "u1")
    assert child.frame.y_block == ()


def test_exceptional_bookkeeping():
    chart = surface_chart("x^2 + y^9*z^10")
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "z")
    grand = blow_up_chart(child, Center(("x", "y"), COORDINATE_CURVE), "y")
    for parent, kid in ((chart, child), (child, grand)):
        born = [b for b in kid.frame.boundary
                if b.status == NEW and b.birth_step == kid.step]
        assert len(born) == 1
        assert born[0].cid == max((b.cid for b in parent.frame.boundary),
                                  default=-1) + 1


# ---------------------------------------------------------------------------
# permissibility
# ---------------------------------------------------------------------------


def test_permissible_curve_center_ok():
    chart = surface_chart("x^2 + y^9*z^10")
    report = permissible_check(chart, Center(("x", "y"), COORDINATE_CURVE))
    assert report.ok and report.violations == ()


def test_permissible_rejects_non_equimultiple_center():
    chart = surface_chart("x^2 + y^9*z^10")
    report = permissible_check(chart, Center(("x",), COORDINATE_CURVE))
    assert not report.ok
    assert any("order 0" in v and "order 2" in v for v in report.violations)


def test_permissible_rejects_center_containing_a_component():
    chart = make_chart((poly("y", QQ, ("x", "y", "z")),),
                       ("x", "z"), ("y",))
    report = permissible_check(chart, Center(("y",), COORDINATE_CURVE))
    assert not report.ok
    assert any("component" in v for v in report.violations)


def test_permissible_rejects_non_coordinate_boundary():
    variables = ("x", "y", "z")
    boundary = (BoundaryComponent(poly("y + x^2", QQ, variables), OLD,
                                  0, 0),)
    chart = surface_chart("x^2 + y^9*z^10", boundary=boundary)
    report = permissible_check(chart, Center(variables, CLOSED_POINT))
    assert not report.ok
    assert any("normal crossings" in v for v in report.violations)


def test_center_validation_errors():
    chart = surface_chart("x^2 + y^9*z^10")
    with pytest.raises(InputError):
        permissible_check(chart, Center(("x", "w"), CLOSED_POINT))
    with pytest.raises(InputError):
        permissible_check(chart, Center(("x", "y"), CLOSED_POINT))
    with pytest.raises(InputError):
        # curve center must contain the whole y-block (here: x)
        permissible_check(chart, Center(("y", "z"), COORDINATE_CURVE))
    with pytest.raises(InputError):
        permissible_check(chart, Center(("x", "y", "z"), COORDINATE_CURVE))
    with pytest.raises(InputError):
        blow_up_chart(chart, Center(("x",), COORDINATE_CURVE), "x")


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------


def whirl_chart(statuses=(NEW, NEW)):
    variables = ("u1", "u2", "y")
    gens = (poly("y^2 + (u2 + u1)^3 + u1^7", QQ, variables),)
    boundary = (
        BoundaryComponent(poly("u1", QQ, variables), statuses[0], 0, 0),
        BoundaryComponent(poly("u2", QQ, variables), statuses[1], 0, 1),
    )
    return make_chart(gens, ("u1", "u2"), ("y",), boundary)


def test_locate_point_translation_after_blow_up():
    chart = whirl_chart()
    child = blow_up_chart(chart, Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    assert child.generators[0] == poly("y^2 + u1*(u2 + 1)^3 + u1^5",
                                       QQ, ("u1", "u2", "y"))
    assert boundary_summary(child) == [("u2", NEW, 0, 1), ("u1", NEW, 1, 2)]

    located = locate_point(child, {"u2": QQ.from_int(-1)})
    assert to_string(located.generators[0]) == "y^2 + u1*u2^3 + u1^5"
    assert boundary_summary(located) == [("u1", NEW, 1, 2)]
    assert located.residue_degree == 1
    assert located.step == child.step


def test_locate_point_identity_is_a_no_op():
    chart = whirl_chart()
    child = blow_up_chart(chart, Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    assert locate_point(child, {"u2": QQ.zero()}) is child
    assert locate_point(child, {}) is child


def test_locate_point_must_stay_on_the_exceptional_divisor():
    chart = whirl_chart()
    child = blow_up_chart(chart, Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    with pytest.raises(InputError):
        locate_point(child, {"u1": QQ.one()})
    # zero assignment for the chart variable is allowed
    assert locate_point(child, {"u1": QQ.zero()}) is child


def test_locate_point_quadratic_residue_extension():
    variables = ("u1", "u2", "y")
    chart = make_chart((poly("y^2 + u1*u2^3 + u1^15", F2, variables),),
                       ("u1", "u2"), ("y",))
    cond = poly("u2^2 + u2 + 1", F2, variables)
    located = locate_point(chart, {"u2": cond})
    assert located.field.kind == "finite_field_extension"
    assert located.field.characteristic == 2
    assert located.field.modulus == (1, 1, 1)
    assert located.residue_degree == 2
    s = located.field.generator()
    f = located.generators[0]
    # (u2 + s)^3 = u2^3 + s*u2^2 + s^2*u2 + s^3 with s^2 = s + 1, s^3 = 1
    assert coefficient(f, Monomial.from_dict({"u1": 1, "u2": 2})) == s
    assert coefficient(f, Monomial.from_dict({"u1": 1, "u2": 1})) == s * s
    assert coefficient(f, Monomial.from_dict({"u1": 1})) == located.field.one()


def test_locate_point_linear_condition_is_a_translation():
    variables = ("u1", "u2", "y")
    chart = make_chart((poly("y^2 + u1*(u2 + 1)^3 + u1^7", F2, variables),),
                       ("u1", "u2"), ("y",))
    by_condition = locate_point(chart, {"u2": poly("u2 + 1", F2, variables)})
    by_value = locate_point(chart, {"u2": F2.one()})
    assert by_condition.generators == by_value.generators
    assert by_condition.residue_degree == 1
    assert to_string(by_condition.generators[0]) == "y^2 + u1*u2^3 + u1^7"


def test_locate_point_rejects_reducible_condition():
    variables = ("u1", "u2", "y")
    chart = make_chart((poly("y^2 + u1*u2^3 + u1^15", F2, variables),),
                       ("u1", "u2"), ("y",))
    with pytest.raises(InputError):
        locate_point(chart, {"u2": poly("u2^2 + 1", F2, variables)})


def test_locate_point_conditions_need_a_prime_field():
    chart = whirl_chart()
    with pytest.raises(ScopeError):
        locate_point(chart, {"u2": poly("u2^2 + u2 + 1", QQ,
                                        ("u1", "u2", "y"))})


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_very_o_near_in_z_chart():
    chart = surface_chart("x^2 + y^9*z^10")
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "z")
    assert classify_point(chart, child) == VERY_O_NEAR


def test_classify_unit_chart_is_dropped():
    chart = surface_chart("x^2 + y^9*z^10")
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "x")
    assert to_string(child.generators[0]) == "1 + x^17*y^9*z^10"
    assert classify_point(chart, child) == DROPPED


def test_classify_located_point_very_o_near():
    chart = whirl_chart()
    child = blow_up_chart(chart, Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    assert classify_point(chart, child) == DROPPED  # chart origin is regular
    located = locate_point(child, {"u2": QQ.from_int(-1)})
    assert classify_point(chart, located) == VERY_O_NEAR


def test_classify_very_near_when_old_components_are_lost():
    chart = whirl_chart(statuses=(OLD, OLD))
    child = blow_up_chart(chart, Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    located = locate_point(child, {"u2": QQ.from_int(-1)})
    assert len(chart.frame.old_components()) == 2
    # V(u1)'s strict transform misses the whole u1-chart and V(u2)'s misses
    # the located point; only the new exceptional divisor passes through.
    assert len(located.frame.old_components()) == 0
    assert len(located.frame.new_components()) == 1
    assert classify_point(chart, located) == VERY_NEAR


def test_classify_o_near_and_plain_near():
    parent_plain = surface_chart("x^2 + y^9*z^10")
    e_drop = make_chart((poly("x^2 + y^2 + z^5", QQ, ("x", "y", "z")),),
                        ("z",), ("x", "y"))
    assert iota0(parent_plain)[2] == 2
    assert iota0(e_drop)[2] == 1
    assert classify_point(parent_plain, e_drop) == O_NEAR

    boundary = (BoundaryComponent(poly("y", QQ, ("x", "y", "z")), OLD, 0, 0),)
    parent_old = surface_chart("x^2 + y^9*z^10", boundary=boundary)
    assert classify_point(parent_old, e_drop) == NEAR


def test_directrix_dimensions_with_old_boundary():
    boundary = (
        BoundaryComponent(poly("u1", QQ, ("u1", "u2", "y")), OLD, 0, 0),
        BoundaryComponent(poly("u2", QQ, ("u1", "u2", "y")), OLD, 0, 1),
    )
    chart = whirl_chart(statuses=(OLD, OLD))
    assert chart.frame.boundary == boundary
    assert iota0(chart)[2] == 2
    assert iota0(chart)[3] == 0


# ---------------------------------------------------------------------------
# predicted polyhedron transforms
# ---------------------------------------------------------------------------


def _frame2():
    return make_chart((poly("y", QQ, ("u1", "u2", "y")),),
                      ("u1", "u2"), ("y",)).frame


def test_transform_point_blow_up_first_chart():
    frame = _frame2()
    before = FPolyhedron.from_points(2, [(frac(0), frac(3, 2)),
                                         (frac(7, 2), frac(0))])
    out = transform_polyhedron_expected(
        before, Center(("u1", "u2", "y"), CLOSED_POINT), "u1", frame)
    assert out.polyhedron.vertices == ((frac(1, 2), frac(3, 2)),
                                       (frac(5, 2), frac(0)))
    assert not out.dropped_vertices


def test_transform_point_blow_up_second_chart():
    frame = _frame2()
    before = FPolyhedron.from_points(2, [(frac(0), frac(3, 2)),
                                         (frac(7, 2), frac(0))])
    out = transform_polyhedron_expected(
        before, Center(("u1", "u2", "y"), CLOSED_POINT), "u2", frame)
    assert out.polyhedron.vertices == ((frac(0), frac(1, 2)),)
    assert not out.dropped_vertices


def test_transform_curve_blow_up_shifts_one_coordinate():
    frame = _frame2()
    before = FPolyhedron.from_points(2, [(frac(2), frac(1, 2))])
    out = transform_polyhedron_expected(
        before, Center(("u1", "y"), COORDINATE_CURVE), "u1", frame)
    assert out.polyhedron.vertices == ((frac(1), frac(1, 2)),)
    # blowing up V(u2, y) would push the vertex to v2 = -1/2
    out2 = transform_polyhedron_expected(
        before, Center(("u2", "y"), COORDINATE_CURVE), "u2", frame)
    assert out2.dropped_vertices
    assert out2.polyhedron.is_empty


def test_transform_one_dimensional_point_blow_up():
    frame = make_chart((poly("y", QQ, ("u1", "y")),),
                       ("u1",), ("y",)).frame
    before = FPolyhedron.from_points(1, [(frac(5, 2),)])
    out = transform_polyhedron_expected(
        before, Center(("u1", "y"), CLOSED_POINT), "u1", frame)
    assert out.polyhedron.vertices == ((frac(3, 2),),)


def test_transform_flags_vertices_leaving_the_quadrant():
    frame = _frame2()
    before = FPolyhedron.from_points(2, [(frac(1, 2), frac(0))])
    out = transform_polyhedron_expected(
        before, Center(("u1", "u2", "y"), CLOSED_POINT), "u1", frame)
    assert out.dropped_vertices
    assert out.polyhedron.is_empty


def test_transform_matches_recomputation_along_the_frozen_chain():
    chart = surface_chart("x^2 + y^9*z^10")
    poly0 = polyhedron_of(list(chart.generators), chart.frame)
    assert poly0.vertices == ((frac(9, 2), frac(5)),)

    center0 = Center(("x", "y", "z"), CLOSED_POINT)
    child = blow_up_chart(chart, center0, "z")
    predicted = transform_polyhedron_expected(poly0, center0, "z", chart.frame)
    recomputed = polyhedron_of(list(child.generators), child.frame)
    assert predicted.polyhedron == recomputed
    assert recomputed.vertices == ((frac(9, 2), frac(17, 2)),)

    center1 = Center(("x", "y"), COORDINATE_CURVE)
    grand = blow_up_chart(child, center1, "y")
    predicted1 = transform_polyhedron_expected(recomputed, center1, "y",
                                               child.frame)
    recomputed1 = polyhedron_of(list(grand.generators), grand.frame)
    assert predicted1.polyhedron == recomputed1
    assert recomputed1.vertices == ((frac(7, 2), frac(17, 2)),)


def test_delta_drops_by_one_at_very_near_curve_points():
    chart = make_chart((poly("y^2 + u1^5", QQ, ("u1", "y")),),
                       ("u1",), ("y",))
    before = polyhedron_of(list(chart.generators), chart.frame)
    assert delta(before) == frac(5, 2)
    center = Center(("u1", "y"), CLOSED_POINT)
    child = blow_up_chart(chart, center, "u1")
    assert to_string(child.generators[0]) == "y^2 + u1^3"
    assert classify_point(chart, child) == VERY_O_NEAR
    after = polyhedron_of(list(child.generators), child.frame)
    assert delta(after) == frac(3, 2) == delta(before) - 1
    predicted = transform_polyhedron_expected(before, center, "u1",
                                              chart.frame)
    assert predicted.polyhedron == after


def test_blowing_up_below_delta_one_leaves_the_singular_locus():
    chart = make_chart((poly("y^2 + u1^3", QQ, ("u1", "y")),),
                       ("u1",), ("y",))
    child = blow_up_chart(chart, Center(("u1", "y"), CLOSED_POINT), "u1")
    assert to_string(child.generators[0]) == "u1 + y^2"
    assert classify_point(chart, child) == DROPPED


# ---------------------------------------------------------------------------
# stratum bookkeeping
# ---------------------------------------------------------------------------


def test_stratum_components_follow_the_blow_up():
    base = surface_chart("x^2 + y^9*z^10")
    chart = ChartState(
        chart_id=base.chart_id, generators=base.generators, frame=base.frame,
        step=base.step,
        stratum=(
            StratumComponent(0, ("x", "y"), 0),
            StratumComponent(1, ("x", "z"), 1),
            StratumComponent(2, ("x",),
                             label=2,
                             conditions=(poly("y + z", QQ, base.variables),)),
        ),
    )
    child = blow_up_chart(chart, Center(("x", "y"), COORDINATE_CURVE), "y")
    assert child.lineage.center_label == 0
    # V(x, y) contains the chart variable, the conditioned component is not
    # carried over, and V(x, z) survives with its identity intact.
    assert child.stratum == (StratumComponent(1, ("x", "z"), 1),)


def test_stratum_none_stays_none():
    chart = surface_chart("x^2 + y^9*z^10")
    child = blow_up_chart(chart, Center(("x", "y", "z"), CLOSED_POINT), "z")
    assert child.stratum is None
    assert child.lineage.center_label is None
