"""The values a chart-state copy carries are the values of its fields.

``blowup_engine.replace_chart`` copies a ``ChartState`` and keeps each
cached value (``nu``, ``directrix``, ``log_directrix`` and the table of
permissibility verdicts, ``verdicts``) that reads none of the changed
fields.  Every copy that ``resolve`` and ``cli.build_chart``
make goes through it: the states ``resolve`` records and stores, on the
named traces in both label modes and on 40 pool surfaces, and the charts
``build_chart`` makes for the named jobs, for every chart of the named
traces rebuilt as a job, and for the point jobs.  Each copy, and each
stored state, must give the same three values as a ``ChartState`` built
fresh from its fields, outside every directrix memo, and each verdict it
holds must be what ``permissible_check`` says on that fresh state.  The
boundary reset changes the frame, so its copy starts an empty table.

``local_frame.made_old``, with which ``_reset_boundary`` turns a new
boundary component old, copies the component without re-running its
check; on every new component of the named traces the copy must be what
``dataclasses.replace(b, status=OLD)`` builds.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cached_property

import pytest

from surfres import cli, resolution_driver
from surfres.blowup_engine import (
    COORDINATE_CURVE,
    Center,
    ChartState,
    center_verdict,
    make_chart,
    permissible_check,
    replace_chart,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
)
from surfres.local_frame import NEW, OLD, BoundaryComponent, made_old
from surfres.resolution_driver import (
    DEFAULT_LABELS,
    FRESH_LABELS,
    RESOLVED,
    _reset_boundary,
    initial_chart,
    resolve,
)

from oracles import chart_to_jsonable
from test_blow_up_once import named_roots, pool_surfaces
from test_cli_inputs import point_jobs

CACHED = ("nu", "directrix", "log_directrix")
QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")
NAMED_JOBS = {
    "surface": {"field": {"kind": "rationals"}, "variables": list(XYZ),
                "generators": ["x^2 + y^9*z^10"]},
    "cubic": {"field": {"kind": "rationals"}, "variables": list(XYZ),
              "generators": ["z^3 + x^2*y^2*z + x^3*y^3"]},
    "two-divisor": {
        "field": {"kind": "rationals"}, "variables": ["u1", "u2", "y"],
        "generators": ["y^2 + (u2 + u1)^3 + u1^7"],
        "frame": {"u": ["u1", "u2"], "y": ["y"]},
        "boundary": [{"generator": "u1", "status": "new", "cid": 0},
                     {"generator": "u2", "status": "new", "cid": 1}]},
}


def fresh(state: ChartState) -> ChartState:
    return ChartState(**{f.name: getattr(state, f.name)
                         for f in fields(ChartState)})


def assert_carries_its_own_values(state: ChartState) -> int:
    """Check the cached values and the verdicts the state holds; the
    number of verdicts."""
    twin = fresh(state)
    for name in CACHED:
        assert getattr(state, name) == getattr(twin, name), (
            state.chart_id, name)
    verdicts = state.__dict__.get("verdicts", {})
    for center, report in verdicts.items():
        assert report == permissible_check(twin, center), (
            state.chart_id, center)
    return len(verdicts)


@pytest.fixture
def tables(monkeypatch) -> list[tuple[ChartState, dict]]:
    """Each table of verdicts started while the test runs, with the state
    that started it; ``copies`` adds each copy that shares one.  The
    tables are kept here because ``resolve`` drops a stored state's table
    when the state's round ends."""
    held: list[tuple[ChartState, dict]] = []

    def start(state):
        table: dict = {}
        held.append((state, table))
        return table

    verdicts = cached_property(start)
    verdicts.__set_name__(ChartState, "verdicts")
    monkeypatch.setattr(ChartState, "verdicts", verdicts)
    return held


@pytest.fixture
def copies(monkeypatch, tables) -> list[tuple[ChartState, set[str]]]:
    """Every copy ``replace_chart`` makes while the test runs, with the
    names of the cached values it carried when it was made."""
    made: list[tuple[ChartState, set[str]]] = []

    def recording(chart, **changes):
        copy = replace_chart(chart, **changes)
        made.append((copy, set(CACHED) & copy.__dict__.keys()))
        if "verdicts" in copy.__dict__:
            tables.append((copy, copy.__dict__["verdicts"]))
        return copy

    for module in (resolution_driver, cli):
        monkeypatch.setattr(module, "replace_chart", recording)
    return made


def traced_runs():
    for root, options in named_roots().values():
        for mode in (DEFAULT_LABELS, FRESH_LABELS):
            yield resolve(root, **dict(options, label_mode=mode))
    for field, text in pool_surfaces():
        yield resolve(initial_chart(field, XYZ, text))


def test_every_state_resolve_makes_holds_the_values_of_its_fields(copies, tables):
    stored = verdicts = 0
    for trace in traced_runs():
        for state in trace.charts.values():
            verdicts += assert_carries_its_own_values(state)
            stored += 1
    for copy, _carried in copies:
        verdicts += assert_carries_its_own_values(copy)
    for state, table in tables:
        twin = fresh(state)
        for center, report in table.items():
            assert report == permissible_check(twin, center), (
                state.chart_id, center)
        verdicts += len(table)
    assert stored > 500 and len(copies) > stored and verdicts > 500
    # every copy starts with a value its source derived, some with all three
    assert all(carried for _c, carried in copies)
    assert any(carried == set(CACHED) for _c, carried in copies)


def test_no_chart_of_a_resolved_named_trace_holds_verdicts():
    """``resolve`` drops a chart's table of verdicts when the chart's round
    ends, and every chart of a resolved trace has had its round."""
    for root, options in named_roots().values():
        trace = resolve(root, **options)
        assert trace.status == RESOLVED
        assert not [c.chart_id for c in trace.charts.values()
                    if "verdicts" in vars(c)]


def exported_jobs():
    """Every chart of the named traces as a ``blowup`` job, stratum and
    boundary statuses included."""
    for root, options in named_roots().values():
        trace = resolve(root, **options)
        for chart in trace.charts.values():
            doc = chart_to_jsonable(chart)
            yield {
                "field": {"kind": "rationals"},
                "variables": doc["variables"],
                "generators": doc["generators"],
                "frame": {"u": doc["u_block"], "y": doc["y_block"]},
                "boundary": [{"generator": b["generator"],
                              "status": b["status"], "cid": b["cid"]}
                             for b in doc["boundary"]],
                "stratum": [{key: c[key] for key in
                             ("variables", "label", "cid", "original",
                              "conditions")}
                            for c in doc["stratum"]],
            }


def test_every_copy_build_chart_makes_holds_the_values_of_its_fields(copies):
    jobs = [*NAMED_JOBS.values(), *exported_jobs(),
            *(job for _command, job in point_jobs().values())]
    built = 0
    for job in jobs:
        for reads_stratum in (False, True):
            try:
                chart = cli.build_chart(job, reads_stratum)
            except (InputError, ScopeError):
                continue
            assert_carries_its_own_values(chart)
            built += 1
    for copy, _carried in copies:
        assert_carries_its_own_values(copy)
    assert built > 300 and len(copies) > built
    assert any(carried for _c, carried in copies)


def test_a_reset_boundary_derives_the_log_directrix_again():
    """The exceptional divisor V(z) is new and then old; the directrix
    V(x) does not hold it, so e^O drops from 2 to 1 while nu* and the
    directrix stay."""
    f = parse_polynomial("x^2 + y^3 + z^5", QQ, XYZ)
    z = parse_polynomial("z", QQ, XYZ)
    chart = make_chart((f,), ("y", "z"), ("x",),
                       (BoundaryComponent(z, NEW, 1, 0),))
    assert chart.log_directrix[0] == 2 and chart.nu.orders == (2,)
    reset = _reset_boundary(chart)
    assert reset.frame.boundary[0].status == OLD
    assert {"nu", "directrix"} <= reset.__dict__.keys()
    assert reset.log_directrix[0] == 1
    assert_carries_its_own_values(reset)
    # a copy that changes only the stratum keeps all three
    same = replace_chart(chart, stratum=())
    assert set(CACHED) <= same.__dict__.keys()
    assert_carries_its_own_values(same)
    # V(x, y) is permissible beside the new V(z); once V(z) is old it must
    # contain the center, so the reset copy checks V(x, y) again
    g = parse_polynomial("x^2 + y^3*z^5", QQ, XYZ)
    chart = make_chart((g,), ("y", "z"), ("x",),
                       (BoundaryComponent(z, NEW, 1, 0),))
    curve = Center(("x", "y"), COORDINATE_CURVE)
    assert center_verdict(chart, curve).ok and curve in chart.verdicts
    assert replace_chart(chart, stratum=()).verdicts is chart.verdicts
    reset = _reset_boundary(chart)
    assert reset.verdicts == {}
    assert center_verdict(reset, curve).violations == (
        "the old boundary component V(z) meets the origin but does not "
        "contain the center (the number of old components would not be "
        "constant along it)",)
    assert chart.verdicts[curve].ok


def test_made_old_copies_as_replace_does_without_the_check(monkeypatch):
    components = {b for root, options in named_roots().values()
                  for chart in resolve(root, **options).charts.values()
                  for b in chart.frame.new_components()}
    wanted = {b: replace(b, status=OLD) for b in components}

    def refuse(self):
        raise AssertionError("the copy re-ran the check")

    monkeypatch.setattr(BoundaryComponent, "__post_init__", refuse)
    for b, want in wanted.items():
        copy = made_old(b)
        assert type(copy) is BoundaryComponent and copy.__dict__ == want.__dict__
        assert copy == want and hash(copy) == hash(want)
        assert copy.generator is b.generator and b.status == NEW
    assert len(wanted) > 20
