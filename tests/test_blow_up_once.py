"""Differential test of ``blowup_engine.blow_up``, one blow-up per event.

``blow_up(chart, center)`` checks the center once and builds the chart of
every center variable, in the order the caller lists them.  The earlier
per-chart ``blow_up_chart``, which checked the center again for every
chart, is kept below as the oracle.  On every event of the four named
traces and of 40 pool surfaces, the charts must equal the oracle's field by
field, with the center listed in frame order and reversed.  A center the
oracle refuses must be refused with the same ``InputError`` text.  The
oracle takes the strict transform of each boundary component, where
``blow_up`` reads a coordinate divisor off its name; every component that
reaches the chart builder must be one.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable

import pytest

from surfres import blowup_engine
from surfres.blowup_engine import (
    CLOSED_POINT,
    COORDINATE_CURVE,
    Center,
    ChartState,
    Lineage,
    StratumComponent,
    _canonical_center,
    _strict_transform,
    blow_up,
    blow_up_chart,
    make_chart,
    permissible_check,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ord_at,
    parse_polynomial,
    strict_transform,
)
from surfres.local_frame import (
    NEW,
    OLD,
    BoundaryComponent,
    Frame,
    coordinate_variable,
)
from surfres.resolution_driver import (
    FRESH_LABELS,
    ResolutionTrace,
    initial_chart,
    resolve,
)

from test_invariant import whirl_chart

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
POOL_FIELDS = {"Q": FieldDescriptor.rationals(),
               **{f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 3, 5)}}
POOL_COUNT = 40
POOL_RESOLVE_S = 0.1
QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")


# -- the earlier per-chart blow-up, kept as the oracle --------------------------

def oracle_moved_boundary(boundary, move: Callable[[Polynomial], Polynomial]):
    moved = ((comp, move(comp.generator)) for comp in boundary)
    return [replace(comp, generator=g) for comp, g in moved
            if not g.constant_coefficient()]


def oracle_blow_up_chart(chart: ChartState, center: Center,
                         chart_var: str) -> ChartState:
    center = _canonical_center(chart, center)
    if chart_var not in center.variables:
        raise InputError(
            f"chart variable {chart_var!r} must belong to the center")
    report = permissible_check(chart, center)
    if not report.ok:
        raise InputError(
            "center is not permissible: " + "; ".join(report.violations))
    w = chart_var
    new_generators = tuple(
        _strict_transform(g, center.variables, w,
                          int(ord_at(g, center.variables)))
        for g in chart.generators)
    step = chart.step + 1
    new_boundary = oracle_moved_boundary(
        chart.frame.boundary,
        lambda g: strict_transform(g, center.variables, w)[0])
    max_cid = max((c.cid for c in chart.frame.boundary), default=-1)
    new_boundary.append(BoundaryComponent(
        generator=Polynomial.variable(chart.field, chart.variables, w),
        status=NEW, birth_step=step, cid=max_cid + 1))
    u_block, y_block = chart.frame.u_block, chart.frame.y_block
    if w in y_block:
        y_block = tuple(v for v in y_block if v != w)
        u_block = (w,) + u_block
    new_frame = Frame(u_block=u_block, y_block=y_block,
                      boundary=tuple(new_boundary))
    new_stratum = None
    center_comp = None
    if chart.stratum is not None:
        kept = []
        for comp in chart.stratum:
            if not comp.is_coordinate:
                continue
            if center_comp is None and set(comp.variables) == set(center.variables):
                center_comp = comp
            if w not in comp.variables:
                kept.append(comp)
        new_stratum = tuple(kept)
    return ChartState(
        chart_id=f"{chart.chart_id}/{w}", field=chart.field,
        variables=chart.variables, generators=new_generators, frame=new_frame,
        step=step, stratum=new_stratum,
        lineage=Lineage(parent_id=chart.chart_id, center=center, chart_var=w,
                        center_label=None if center_comp is None
                        else center_comp.label),
        residue_degree=chart.residue_degree)


# -- the corpus ------------------------------------------------------------------

def pool_surfaces() -> list[tuple[FieldDescriptor, str]]:
    """40 pool surfaces, a seeded sample of those that resolve in under
    0.1 s, whatever their exit code."""
    surfaces = json.loads(POOL.read_text())["surfaces"]
    cheap = [s for s in surfaces if s["resolve_s"] < POOL_RESOLVE_S]
    picked = random.Random("pool-40").sample(cheap, POOL_COUNT)
    return [(POOL_FIELDS[s["field"]], s["text"]) for s in picked]


def named_roots() -> dict[str, tuple[ChartState, dict]]:
    """The roots of the four named jobs and their ``resolve`` options."""
    surface = "x^2 + y^9*z^10"
    return {
        "surface-default": (initial_chart(QQ, XYZ, surface), {}),
        "surface-fresh": (initial_chart(QQ, XYZ, surface),
                          {"label_mode": FRESH_LABELS}),
        "crossing-lines-cubic": (
            initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3"), {}),
        "two-divisor-chart": (whirl_chart(), {}),
    }


def traces() -> dict[str, ResolutionTrace]:
    out = {name: resolve(root, **options)
           for name, (root, options) in named_roots().items()}
    for field, text in pool_surfaces():
        out[f"{field.kind} {field.characteristic}:{text}"] = resolve(
            initial_chart(field, XYZ, text))
    return out


@pytest.fixture(scope="module")
def all_traces() -> dict[str, ResolutionTrace]:
    return traces()


def assert_same_chart(got: ChartState, want: ChartState) -> None:
    for f in fields(ChartState):
        assert getattr(got, f.name) == getattr(want, f.name), (
            want.chart_id, f.name)
    assert got == want


# -- the tests ---------------------------------------------------------------------

def test_blow_up_matches_the_per_chart_oracle_on_every_event(all_traces):
    events = reversed_events = 0
    for name, trace in all_traces.items():
        for event in trace.events:
            chart = trace.charts[event.chart_id]
            for variables in (event.center.variables,
                              event.center.variables[::-1]):
                center = Center(variables, event.center.kind)
                children = blow_up(chart, center)
                assert [c.lineage.chart_var for c in children] == list(variables)
                for child, w in zip(children, variables):
                    assert_same_chart(child, oracle_blow_up_chart(chart, center, w))
                    assert_same_chart(child, blow_up_chart(chart, center, w))
                reversed_events += variables != event.center.variables
            assert [c.chart_id for c in blow_up(chart, event.center)] == list(
                event.created), (name, event.step)
            events += 1
    # every center here has two variables or more, so each is also reversed
    assert events > 200 and reversed_events == events


def test_blow_up_refuses_what_the_oracle_refuses():
    """A center that is not permissible, names an unknown variable, or is
    a closed point that misses a variable; and, for one chart, a chart
    variable outside the center.  A permissibility check dropped from
    ``blow_up`` would let the first two charts through."""
    f = parse_polynomial("x^2 + z^3", QQ, XYZ)
    lower_order = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",))
    old_v = make_chart(
        QQ, XYZ, (parse_polynomial("x^2 + y^3*z^3", QQ, XYZ),), ("y", "z"),
        ("x",), (BoundaryComponent(parse_polynomial("z", QQ, XYZ), OLD, 0, 0),))
    cases = [
        (lower_order, Center(("x", "y"), COORDINATE_CURVE)),
        (old_v, Center(("x", "y"), COORDINATE_CURVE)),
        (lower_order, Center(("x", "q"), COORDINATE_CURVE)),
        (lower_order, Center(("x", "y"), CLOSED_POINT)),
        (whirl_chart(), Center(("u1", "y", "u2"), CLOSED_POINT)),
    ]
    refused = 0
    for chart, center in cases:
        try:
            want = [oracle_blow_up_chart(chart, center, w)
                    for w in center.variables]
        except InputError as err:
            with pytest.raises(InputError) as got:
                blow_up(chart, center)
            assert str(got.value) == str(err)
            for w in center.variables:
                with pytest.raises(InputError) as got:
                    blow_up_chart(chart, center, w)
                assert str(got.value) == str(err)
            refused += 1
        else:
            for child, expected in zip(blow_up(chart, center), want):
                assert_same_chart(child, expected)
    assert refused == 4
    for chart, center in cases:
        with pytest.raises(InputError) as want:
            oracle_blow_up_chart(chart, center, "w")
        with pytest.raises(InputError) as got:
            blow_up_chart(chart, center, "w")
        assert str(got.value) == str(want.value)
    assert "not permissible" in str(_refusal(cases[0]))
    assert "old boundary component V(z)" in str(_refusal(cases[1]))


def _refusal(case) -> InputError:
    with pytest.raises(InputError) as got:
        blow_up(*case)
    return got.value


def test_blow_up_keeps_a_stratum_and_its_center_label():
    """The carried stratum and the center's label, on a chart whose stratum
    holds the center, a component through the chart variable and one with a
    condition."""
    chart = make_chart(QQ, XYZ, (parse_polynomial("x^2 + y^3*z^3", QQ, XYZ),),
                       ("y", "z"), ("x",))
    cond = parse_polynomial("y + z^2", QQ, XYZ)
    chart = replace(chart, stratum=(
        StratumComponent(0, ("x", "y"), 3),
        StratumComponent(1, ("x", "z"), 1),
        StratumComponent(2, ("x",), 0, (cond,))))
    center = Center(("y", "x"), COORDINATE_CURVE)
    children = blow_up(chart, center)
    for child, w in zip(children, ("y", "x")):
        assert_same_chart(child, oracle_blow_up_chart(chart, center, w))
        assert child.lineage.center_label == 3
        assert child.lineage.center.variables == ("x", "y")


def test_every_boundary_component_reaching_a_chart_is_a_coordinate_divisor(
        all_traces, monkeypatch):
    """On every event of the traces, and on charts whose coordinate
    divisors carry a unit (-y, 2*z); a divisor that is not a coordinate
    is refused before any chart is built."""
    reached = []
    chart_of = blowup_engine._chart_of

    def recording(chart, center, w):
        reached.extend(comp.generator for comp in chart.frame.boundary)
        return chart_of(chart, center, w)

    monkeypatch.setattr(blowup_engine, "_chart_of", recording)
    for trace in all_traces.values():
        for event in trace.events:
            blow_up(trace.charts[event.chart_id], event.center)
    f = parse_polynomial("x^2 + y^3*z^4", QQ, XYZ)
    # the curve holds the old divisor, as a permissible center must
    for texts, curve in ((("-y", "2*z"), ("x", "y")),
                         (("2*z", "-y"), ("x", "z")), (("-3*x",), ("x", "y"))):
        boundary = tuple(
            BoundaryComponent(parse_polynomial(t, QQ, XYZ), status, 0, i)
            for i, (t, status) in enumerate(zip(texts, (OLD, NEW))))
        chart = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",), boundary)
        for center in (Center(XYZ, CLOSED_POINT),
                       Center(curve, COORDINATE_CURVE)):
            for child in blow_up(chart, center):
                assert_same_chart(child, oracle_blow_up_chart(
                    chart, center, child.lineage.chart_var))
    assert reached and all(coordinate_variable(g) is not None for g in reached)
    assert {coordinate_variable(g) for g in reached} >= {"x", "y", "z", "u1"}
    count = len(reached)
    chart = make_chart(QQ, XYZ, (f,), ("y", "z"), ("x",), (BoundaryComponent(
        parse_polynomial("y + z^2", QQ, XYZ), OLD, 0, 0),))
    with pytest.raises(InputError, match="non-coordinate boundary component"):
        blow_up(chart, Center(XYZ, CLOSED_POINT))
    assert len(reached) == count
