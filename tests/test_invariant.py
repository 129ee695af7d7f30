"""Tests for the three-part invariant iota = (iota0, iota_c, iota_poly)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from surfres import invariant
from surfres.blowup_engine import (
    CLOSED_POINT,
    Center,
    ChartState,
    StratumComponent,
    blow_up_chart,
    locate_point,
    make_chart,
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
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    EQUAL,
    FORMAL_ZERO,
    GREATER,
    LESS,
    IotaInvariant,
    _ideal_of_c,
    adapt_frame_to_forms,
    classify_case,
    compare_iota,
    compute_iota,
    iota0,
    iota_c,
    iota_poly,
    iota_to_jsonable,
    value_to_jsonable,
)
from surfres.local_frame import NEW, OLD, BoundaryComponent, Frame, NuStar

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F = Fraction


def poly(text, field, variables):
    return parse_polynomial(text, field, variables)


def chart_with(text, field=QQ, variables=("x", "y", "z"),
               u_block=("y", "z"), y_block=("x",), boundary=(), stratum=None):
    base = make_chart((poly(text, field, variables),),
                      u_block, y_block, boundary)
    if stratum is None:
        return base
    return ChartState(
        chart_id=base.chart_id, generators=base.generators, frame=base.frame,
        step=base.step, stratum=tuple(stratum))


def iota_c_of(chart):
    """``iota_c`` in the chart's case, as ``compute_iota`` calls it."""
    return iota_c(chart, classify_case(chart))


def iota_poly_of(chart):
    """``iota_poly`` in the chart's case, as ``compute_iota`` calls it."""
    return iota_poly(chart, classify_case(chart))


def origin_component(variables, label, cid=0):
    return StratumComponent(cid, tuple(variables), label)


def whirl_chart(statuses=(NEW, NEW), stratum=None):
    variables = ("u1", "u2", "y")
    boundary = (
        BoundaryComponent(poly("u1", QQ, variables), statuses[0], 0, 0),
        BoundaryComponent(poly("u2", QQ, variables), statuses[1], 0, 1),
    )
    return chart_with("y^2 + (u2 + u1)^3 + u1^7", QQ, variables,
                      ("u1", "u2"), ("y",), boundary, stratum)


# ---------------------------------------------------------------------------
# iota0
# ---------------------------------------------------------------------------


def test_iota0_surface_example():
    chart = chart_with("x^2 + y^9*z^10")
    assert iota0(chart) == (NuStar((2,)), 0, 2, 2)


def test_iota0_regular_point():
    chart = chart_with("y", u_block=("x", "z"), y_block=("y",))
    assert iota0(chart) == (NuStar((1,)), 0, 2, 2)


def test_iota0_imperfect_residue_example():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        variables = ("u1", "u2", "y")
        chart = make_chart((poly(f"y^{p} + t*u1^{p}", K, variables),),
                           ("u1", "u2"), ("y",))
        assert iota0(chart) == (NuStar((p,)), 0, 1, 1)


def test_iota0_counts_old_components_and_log_directrix():
    chart = whirl_chart(statuses=(OLD, OLD))
    assert iota0(chart) == (NuStar((2,)), 2, 2, 0)
    chart_new = whirl_chart()
    assert iota0(chart_new) == (NuStar((2,)), 0, 2, 2)


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------


def test_case_v_for_regular_points():
    chart = chart_with("y", u_block=("x", "z"), y_block=("y",))
    assert classify_case(chart).tag == CASE_V
    unit = chart_with("1 + x*y", u_block=("y", "z"), y_block=("x",))
    assert classify_case(unit).tag == CASE_V


def test_classification_requires_a_stratum():
    chart = chart_with("x^2 + y^9*z^10")
    with pytest.raises(InputError):
        classify_case(chart)


def test_case_iv_when_no_label_zero_component():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 1),
                                origin_component(("x", "z"), 2, cid=1)])
    assert classify_case(chart).tag == CASE_IV


def test_case_i_for_an_isolated_stratum_point():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y", "z"), 0)])
    assert classify_case(chart).tag == CASE_I


def test_case_ii_for_a_permissible_curve():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 0)])
    info = classify_case(chart)
    assert info.tag == CASE_II
    assert info.components[0].variables == ("x", "y")


def test_case_iii_for_two_curves():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 0),
                                origin_component(("x", "z"), 0, cid=1)])
    assert classify_case(chart).tag == CASE_III


def test_case_iii_for_a_non_permissible_curve():
    # V(y, z) does not contain the y-block variable x
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("y", "z"), 0)])
    assert classify_case(chart).tag == CASE_III


def test_case_iii_for_a_conditioned_component():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[StratumComponent(
                           0, ("x",), 0,
                           conditions=(poly("y + z", QQ, ("x", "y", "z")),))])
    assert classify_case(chart).tag == CASE_III


# ---------------------------------------------------------------------------
# iota_c
# ---------------------------------------------------------------------------


def test_iota_c_formal_values_outside_case_iii():
    regular = chart_with("y", u_block=("x", "z"), y_block=("y",))
    assert iota_c_of(regular) == (FORMAL_ZERO, 0, 0, 0, 0, 0)

    case_iv = chart_with("x^2 + y^9*z^10",
                         stratum=[origin_component(("x", "y"), 1)])
    assert iota_c_of(case_iv) == (FORMAL_ZERO, 0, 0, 0, 0, 0)

    case_i = chart_with("x^2 + y^9*z^10",
                        stratum=[origin_component(("x", "y", "z"), 0)])
    assert iota_c_of(case_i) == (FORMAL_ZERO, 0, 0, 0, 0, 1)

    case_ii = chart_with("x^2 + y^9*z^10",
                         stratum=[origin_component(("x", "y"), 0)])
    assert iota_c_of(case_ii) == (FORMAL_ZERO, 0, 0, 0, 0, 1)


def test_iota_c_union_of_two_coordinate_curves():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 0),
                                origin_component(("x", "z"), 0, cid=1)])
    assert iota_c_of(chart) == (NuStar((1, 2)), 0, 0, 0, INF, INF)


def test_iota_c_single_non_permissible_curve():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("y", "z"), 0)])
    assert iota_c_of(chart) == (NuStar((1, 1)), 0, 1, 1, INF, INF)


def test_iota_c_conditioned_component_gets_a_finite_delta():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[StratumComponent(
                           0, ("x",), 0,
                           conditions=(poly("y^2 + z^3", QQ,
                                            ("x", "y", "z")),))])
    assert classify_case(chart).tag == CASE_III
    assert iota_c_of(chart) == (NuStar((1, 2)), 0, 1, 1, F(3, 2), F(3, 2))

    # delta_C^O is read after multiplying by the old boundary y + z^2: in the
    # frame adapted to (x, y), x*(y + z^2) has the point 2 < 5/2
    boundary = (BoundaryComponent(poly("y + z^2", QQ, ("x", "y", "z")), OLD,
                                  0, 0),)
    chart = chart_with("x^2 + y^9*z^10", boundary=boundary,
                       stratum=[StratumComponent(
                           0, ("x",), 0,
                           conditions=(poly("y^2 + z^5", QQ,
                                            ("x", "y", "z")),))])
    assert iota_c_of(chart) == (NuStar((1, 2)), 1, 1, 1, F(5, 2), 2)


def test_iota_c_supplied_generators_override():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 0),
                                origin_component(("x", "z"), 0, cid=1)])
    # the ideal iota_c builds for V(x, y) u V(x, z) is (x, y*z), so no
    # generators need to be supplied
    supplied = [poly("x", QQ, ("x", "y", "z")),
                poly("y*z", QQ, ("x", "y", "z"))]
    case = classify_case(chart)
    assert _ideal_of_c(case.components, QQ, chart.variables) == supplied
    assert iota_c_of(chart) == (NuStar((1, 2)), 0, 0, 0, INF, INF)


def test_iota_c_counts_old_components():
    boundary = (BoundaryComponent(poly("y", QQ, ("x", "y", "z")), OLD, 0, 0),)
    chart = chart_with("x^2 + y^9*z^10", boundary=boundary,
                       stratum=[origin_component(("x", "y"), 0),
                                origin_component(("x", "z"), 0, cid=1)])
    value = iota_c_of(chart)
    assert value[0] == NuStar((1, 2))
    assert value[1] == 1


# ---------------------------------------------------------------------------
# frame adaptation
# ---------------------------------------------------------------------------


def test_adapt_frame_straightens_a_diagonal_directrix():
    variables = ("x", "y", "z")
    gens = [poly("(x + y)^2 + z^5", QQ, variables)]
    frame = Frame(("y", "z"), ("x",))
    forms = [poly("x + y", QQ, variables)]
    new_gens, new_frame = adapt_frame_to_forms(gens, frame, forms)
    assert to_string(new_gens[0]) == "x^2 + z^5"
    assert new_frame.y_block == ("x",)
    assert new_frame.u_block == ("y", "z")


def test_adapt_frame_prefers_y_pivots_over_boundary_variables():
    variables = ("u1", "u2", "y")
    boundary = (BoundaryComponent(poly("u1", QQ, variables), NEW, 0, 0),)
    gens = [poly("(y + u1)^2 + u2^3", QQ, variables)]
    frame = Frame(("u1", "u2"), ("y",), boundary)
    forms = [poly("u1 + y", QQ, variables)]
    new_gens, new_frame = adapt_frame_to_forms(gens, frame, forms)
    assert to_string(new_gens[0]) == "y^2 + u2^3"
    # the boundary coordinate u1 keeps its name; y absorbed the tail
    assert to_string(new_frame.boundary[0].generator) == "u1"
    assert new_frame.y_block == ("y",)


# ---------------------------------------------------------------------------
# iota_poly
# ---------------------------------------------------------------------------


def test_iota_poly_zero_for_regular_points():
    chart = chart_with("y", u_block=("x", "z"), y_block=("y",))
    assert iota_poly_of(chart) == (0, 0, 0, 0)


def test_iota_poly_zero_when_log_directrix_vanishes():
    chart = whirl_chart(statuses=(OLD, OLD),
                        stratum=[origin_component(("u1", "u2", "y"), 1)])
    assert iota_poly_of(chart) == (0, 0, 0, 0)


def test_iota_poly_e_one_gives_log_delta():
    K = FieldDescriptor.rational_functions(2, "t")
    variables = ("u1", "u2", "y")
    chart = chart_with("y^2 + t*u1^2", K, variables, ("u1", "u2"), ("y",),
                       stratum=[origin_component(variables, 1)])
    assert iota_poly_of(chart) == (0, 0, 0, INF)


def test_iota_poly_two_new_components_frozen():
    chart = whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 1)])
    assert iota_poly_of(chart) == (F(3, 2), F(3, 2), F(7, 3), 0)


def test_iota_poly_one_new_component_frozen():
    variables = ("u1", "u2", "y")
    boundary = (BoundaryComponent(poly("u1", QQ, variables), NEW, 1, 2),)
    chart = chart_with("y^2 + u1*u2^3 + u1^5", QQ, variables,
                       ("u1", "u2"), ("y",), boundary,
                       stratum=[origin_component(variables, 1)])
    assert iota_poly_of(chart) == (F(3, 2), F(3, 2), F(4, 3), F(1, 2))


def test_iota_poly_one_new_component_reorders_the_sides():
    # same surface with the roles of u1 and u2 interchanged: the new
    # component's variable must be read as the first axis
    variables = ("u1", "u2", "y")
    boundary = (BoundaryComponent(poly("u2", QQ, variables), NEW, 1, 2),)
    chart = chart_with("y^2 + u2*u1^3 + u2^5", QQ, variables,
                       ("u1", "u2"), ("y",), boundary,
                       stratum=[origin_component(variables, 1)])
    assert iota_poly_of(chart) == (F(3, 2), F(3, 2), F(4, 3), F(1, 2))


def test_iota_poly_infinite_when_label_zero_component_present():
    chart = whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 0)])
    assert classify_case(chart).tag == CASE_I
    assert iota_poly_of(chart) == (INF, INF, INF, INF)


def test_iota_poly_infinite_without_new_components():
    chart = chart_with("x^2 + y^9*z^10",
                       stratum=[origin_component(("x", "y"), 1)])
    assert iota_poly_of(chart) == (INF, INF, INF, INF)


def test_iota_poly_infinite_exits_never_adapt_the_frame(monkeypatch):
    # an original component through the point, and no new component: both
    # e^O = 2 exits are read off the chart's own frame
    charts = [
        whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 0)]),
        chart_with("x^2 + y^9*z^10", stratum=[origin_component(("x", "y"), 1)]),
    ]

    def refuse(*args):
        raise AssertionError("adapt_frame_to_forms called")

    monkeypatch.setattr(invariant, "adapt_frame_to_forms", refuse)
    for chart in charts:
        assert chart.log_directrix[0] == 2
        assert iota_poly_of(chart) == (INF, INF, INF, INF)


# ---------------------------------------------------------------------------
# the full invariant: computation and comparison
# ---------------------------------------------------------------------------


def test_compute_iota_for_the_relocated_chain():
    parent = whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 1)])
    at_x = compute_iota(parent)
    assert at_x.case == CASE_IV
    assert at_x.iota0 == (NuStar((2,)), 0, 2, 2)
    assert at_x.iota_c == (FORMAL_ZERO, 0, 0, 0, 0, 0)
    assert at_x.iota_poly == (F(3, 2), F(3, 2), F(7, 3), 0)

    blown = blow_up_chart(whirl_chart(),
                          Center(("u1", "u2", "y"), CLOSED_POINT), "u1")
    located = locate_point(blown, {"u2": QQ.from_int(-1)})
    located = ChartState(
        chart_id=located.chart_id, generators=located.generators,
        frame=located.frame, step=located.step,
        stratum=(origin_component(("u1", "u2", "y"), 1),),
        lineage=located.lineage, residue_degree=located.residue_degree)
    at_x_prime = compute_iota(located)
    assert at_x_prime.iota0 == at_x.iota0
    assert at_x_prime.iota_c == at_x.iota_c
    assert at_x_prime.iota_poly == (F(3, 2), F(3, 2), F(4, 3), F(1, 2))
    assert compare_iota(at_x_prime, at_x) == LESS


def test_compare_iota_orders_slots_lexicographically():
    base = IotaInvariant((NuStar((2,)), 0, 2, 2),
                         (FORMAL_ZERO, 0, 0, 0, 0, 0),
                         (F(3, 2), F(3, 2), F(7, 3), 0), CASE_IV)
    smaller_nu = IotaInvariant((NuStar((1,)), 5, 9, 9),
                               (NuStar((1, 2)), 0, 0, 0, INF, INF),
                               (INF, INF, INF, INF), CASE_III)
    assert compare_iota(smaller_nu, base) == LESS
    assert compare_iota(base, smaller_nu) == GREATER
    assert compare_iota(base, base) == EQUAL

    later_slot = IotaInvariant(base.iota0, base.iota_c,
                               (F(3, 2), F(3, 2), F(7, 3), F(1, 8)), CASE_IV)
    assert compare_iota(base, later_slot) == LESS

    formal_vs_real = IotaInvariant(base.iota0,
                                   (NuStar((1, 2)), 0, 0, 0, INF, INF),
                                   base.iota_poly, CASE_III)
    assert compare_iota(base, formal_vs_real) == LESS


def test_compare_iota_handles_infinities():
    a = IotaInvariant((NuStar((2,)), 0, 2, 2),
                      (FORMAL_ZERO, 0, 0, 0, 0, 0),
                      (INF, INF, INF, INF), CASE_IV)
    b = IotaInvariant((NuStar((2,)), 0, 2, 2),
                      (FORMAL_ZERO, 0, 0, 0, 0, 0),
                      (F(3, 2), F(3, 2), F(7, 3), 0), CASE_IV)
    assert compare_iota(b, a) == LESS
    assert compare_iota(a, a) == EQUAL


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_value_serialization():
    assert value_to_jsonable(NuStar((2,))) == [2]
    assert value_to_jsonable(NuStar((1, 2))) == [1, 2]
    assert value_to_jsonable(INF) == "inf"
    assert value_to_jsonable(F(7, 3)) == "7/3"
    assert value_to_jsonable(F(4, 2)) == 2
    assert value_to_jsonable(0) == 0


def test_iota_serialization_round_trip_shape():
    chart = whirl_chart(stratum=[origin_component(("u1", "u2", "y"), 1)])
    data = iota_to_jsonable(compute_iota(chart))
    assert data == {
        "case": "IV",
        "iota0": [[2], 0, 2, 2],
        "iota_c": [[0], 0, 0, 0, 0, 0],
        "iota_poly": ["3/2", "3/2", "7/3", 0],
    }
