"""A boundary divisor reads its coordinate once, a chart its ring off its
generators.

``BoundaryComponent.variable`` keeps ``coordinate_variable(generator)`` on
the component, set once when it is made, and ``ChartState.field`` and
``ChartState.variables`` read the first generator.  Both are checked here
against a fresh reading:

* on every chart state of the 54-trace acceptance corpus and of the
  resolutions of the pool surfaces (``perfbench/pool.json``) whose
  ``resolve_s`` is below 0.4, and on the frames ``adapt_frame_to_forms``
  makes of each state's directrix and log-directrix forms;
* on components made by each constructor: ``made_old``,
  ``unchecked_component`` (the exceptional divisor of ``blow_up``),
  ``locate_point``'s ``_moved_boundary`` (a translation and a residue
  extension) and ``adapt_frame_to_forms``, which here turns a
  non-coordinate old divisor into a coordinate one.

Each source component's variable is read before the new one is made, so a
reading carried over to a component with another generator would show.

Reading ``variable`` allocates nothing, whichever constructor made the
component: the instance keeps its compact attribute storage, which a value
filled into its ``__dict__`` on first read would double.  Equality, the
hash and the repr leave ``variable`` out.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

from surfres.blowup_engine import (
    CLOSED_POINT,
    Center,
    ChartState,
    blow_up,
    locate_point,
    make_chart,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
)
from surfres.invariant import adapt_frame_to_forms
from surfres.local_frame import (
    NEW,
    OLD,
    BoundaryComponent,
    coordinate_variable,
    made_old,
    unchecked_component,
)
from surfres.resolution_driver import initial_chart, resolve

from test_acceptance import corpus_traces  # noqa: F401  (a fixture)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
POOL_RESOLVE_S = 0.4
QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
POOL_FIELDS = {"Q": QQ, "F2": F2, "F3": FieldDescriptor.prime_field(3),
               "F5": FieldDescriptor.prime_field(5)}
XYZ = ("x", "y", "z")


def assert_fresh(components) -> None:
    for comp in components:
        assert comp.variable == coordinate_variable(comp.generator), comp


def assert_chart_reads_fresh(chart: ChartState) -> None:
    """The chart's ring is every generator's, and every boundary
    component's variable, in its frame and in both adapted frames, is a
    fresh reading."""
    for g in chart.generators:
        assert (g.field, g.variables) == (chart.field, chart.variables), (
            chart.chart_id)
    assert_fresh(chart.frame.boundary)
    try:
        forms = (chart.directrix[1], chart.log_directrix[1])
    except (InputError, ScopeError):
        return
    for f in forms:
        assert_fresh(adapt_frame_to_forms(chart.generators, chart.frame,
                                          f)[1].boundary)


def pool_traces():
    surfaces = json.loads(POOL.read_text())["surfaces"]
    for s in surfaces:
        if s["resolve_s"] < POOL_RESOLVE_S:
            try:
                yield resolve(initial_chart(POOL_FIELDS[s["field"]], XYZ,
                                            s["text"]))
            except (InputError, ScopeError):
                continue  # refused before any trace exists


def test_every_traced_chart_reads_its_divisors_and_ring_fresh(corpus_traces):  # noqa: F811
    assert len(corpus_traces) == 54
    traces = [trace for _name, trace in corpus_traces] + list(pool_traces())
    exceptional = made_old_ones = 0
    for trace in traces:
        for chart in trace.charts.values():
            assert_chart_reads_fresh(chart)
            for comp in chart.frame.boundary:
                # the exceptional divisor of the blow-up that made the chart
                # (``unchecked_component``), and a component made old after
                # its birth in a blow-up (``made_old``)
                exceptional += (chart.lineage is not None and comp.status == NEW
                                and comp.birth_step == chart.step)
                made_old_ones += comp.status == OLD and comp.birth_step > 0
    assert len(traces) > 54 + 300
    assert exceptional > 500 and made_old_ones > 100


def poly(text, field=QQ, variables=XYZ):
    return parse_polynomial(text, field, variables)


def test_made_old_and_unchecked_components_read_fresh():
    for text in ("2*z", "x + y*z"):
        new = BoundaryComponent(poly(text), NEW, 1, 0)
        assert new.variable == coordinate_variable(new.generator)
        old = made_old(new)
        assert old.status == OLD and old.variable == new.variable
    bare = unchecked_component(poly("-y"), NEW, 2, 3)
    assert bare.variable == "y"


def test_each_exceptional_divisor_reads_its_chart_variable():
    chart = make_chart((poly("x^2 + y^3*z^3"),), ("y", "z"), ("x",),
                       (BoundaryComponent(poly("z"), OLD, 0, 0),))
    assert_fresh(chart.frame.boundary)
    for child in blow_up(chart, Center(XYZ, CLOSED_POINT)):
        assert_chart_reads_fresh(child)
        assert child.frame.boundary[-1].variable == child.lineage.chart_var


def test_a_located_point_reads_its_moved_divisors_fresh():
    # a translation: x + y*z moves to x + y*z + y and V(z) misses the point
    boundary = tuple(BoundaryComponent(poly(t), OLD, 0, i)
                     for i, t in enumerate(("x + y*z", "y", "z")))
    chart = make_chart((poly("x^2 + y^3 + x*z^3"),), ("y", "z"), ("x",),
                       boundary)
    assert_fresh(chart.frame.boundary)
    located = locate_point(chart, {"z": QQ.one()})
    moved, kept = located.frame.boundary
    assert moved.generator == poly("x + y*z + y") and moved.variable is None
    assert kept is boundary[1]
    assert_chart_reads_fresh(located)

    # a residue extension lifts every generator to F_4
    variables = ("u1", "u2", "y")
    boundary = tuple(BoundaryComponent(poly(t, F2, variables), NEW, 0, i)
                     for i, t in enumerate(("u1", "u1 + u2*y")))
    chart = make_chart((poly("y^2 + u1*u2^3 + u1^15", F2, variables),),
                       ("u1", "u2"), ("y",), boundary)
    assert_fresh(chart.frame.boundary)
    located = locate_point(chart, {"u2": poly("u2^2 + u2 + 1", F2, variables)})
    assert located.field.kind == "finite_field_extension"
    assert [b.generator.field for b in located.frame.boundary] == [
        located.field] * 2
    assert [b.variable for b in located.frame.boundary] == ["u1", None]
    assert_chart_reads_fresh(located)


def test_an_adapted_frame_reads_a_divisor_its_move_made_a_coordinate():
    # the directrix form x + y is moved to the coordinate x, and so is the
    # old divisor V(x + y)
    divisor = BoundaryComponent(poly("x + y"), OLD, 0, 0)
    chart = make_chart((poly("(x + y)^2 + z^3"),), ("y", "z"), ("x",),
                       (divisor,))
    assert divisor.variable is None
    assert chart.directrix[1] == (poly("x + y"),)
    _gens, frame = adapt_frame_to_forms(chart.generators, chart.frame,
                                        chart.directrix[1])
    assert frame.boundary[0].generator == poly("x")
    assert frame.boundary[0].variable == "x"
    assert_chart_reads_fresh(chart)


@pytest.mark.parametrize("changed", ["field", "variables"])
def test_a_chart_refuses_generators_of_two_rings(changed):
    f = poly("x^2 + y^3")
    g = (poly("y", F2) if changed == "field"
         else parse_polynomial("y", QQ, ("x", "y", "z", "w")))
    with pytest.raises(InputError):
        ChartState("root", (f, g), make_chart((f,), ("y", "z"), ("x",)).frame)


CONSTRUCTORS = {
    "checked": lambda b: BoundaryComponent(b.generator, NEW, 1, 0),
    "unchecked_component": lambda b: unchecked_component(b.generator, NEW, 1, 0),
    "made_old": made_old,
    "dataclasses.replace": lambda b: dataclasses.replace(b, status=OLD),
}


@pytest.mark.parametrize("make", list(CONSTRUCTORS))
def test_reading_the_variable_keeps_the_compact_storage(make):
    sources = [BoundaryComponent(poly(t), NEW, 1, 0)
               for t in ("z", "2*z", "x + y*z") for _ in range(1000)]
    made = [CONSTRUCTORS[make](b) for b in sources]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for comp in made:
            comp.variable
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < len(made)  # 64 bytes a component with a first-read fill
    for comp in made[::1000]:
        size = len(vars(comp)), vars(comp).__sizeof__()
        assert list(vars(comp)) == [
            "generator", "status", "birth_step", "cid", "variable"]
        assert comp.variable == coordinate_variable(comp.generator)
        assert (len(vars(comp)), vars(comp).__sizeof__()) == size


def test_the_variable_is_left_out_of_equality_the_hash_and_the_repr():
    checked = BoundaryComponent(poly("z"), NEW, 1, 0)
    other = unchecked_component(poly("z"), NEW, 1, 0)
    object.__setattr__(other, "variable", "y")
    assert checked == other and hash(checked) == hash(other)
    assert repr(checked) == repr(other) and " variable=" not in repr(checked)
