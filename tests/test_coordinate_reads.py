"""Coordinate structure read off exponent vectors, against the row reduction.

Four readings take the place of the polynomial kernel and the ``Fraction``
row reduction wherever their inputs are coordinate forms or monomials:

* ``blow_up`` keeps a coordinate boundary divisor V(v) as it is when v is
  not the chart variable w and drops it when v = w, where the earlier body
  took its strict transform;
* ``add_old_boundary`` folds old coordinate divisors into a coordinate
  directrix as the distinct variables, in chart order;
* ``adapt_frame_to_forms`` takes the variables of coordinate forms as its
  pivots and moves nothing;
* ``compute_directrix`` reads the directrix of monomial initial forms off
  the union of their supports.

The earlier bodies are kept below as oracles.  Both sides must agree on
every chart of the four named traces and of the traces of the pool
surfaces that resolve, and on seeded monomial and coordinate inputs over
Q, F_2, F_3, F_5, F_4 and F_3(t), with unit multiples, repeated forms,
degrees at and over p, general inputs mixed in and chart variables that
are not in name order.  The CLI tests pin the degree cap on a monomial
initial form and the scope error of a center beside a boundary divisor
that is not a coordinate.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from surfres import blowup_engine, local_frame
from surfres.blowup_engine import (
    ChartState,
    blow_up,
    make_chart,
    replace_chart,
)
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    parse_polynomial,
    strict_transform,
    translate,
)
from surfres.local_frame import (
    MAX_DIRECTRIX_DEGREE,
    NEW,
    OLD,
    BoundaryComponent,
    Frame,
    add_old_boundary,
    compute_directrix,
    coordinate_variable,
    form_row,
    initial_form,
    row_form,
    row_reduce,
)
from surfres.invariant import adapt_frame_to_forms
from surfres.resolution_driver import (
    SCOPE_ERROR,
    _reset_boundary,
    initial_chart,
    resolve,
)

from oracles import stored_row
from test_blow_up_once import named_roots

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)
F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
F3T = FieldDescriptor.rational_functions(3, "t")
POOL_FIELDS = {"Q": QQ, "F2": F2, "F3": F3, "F5": F5}
XYZ = ("x", "y", "z")
# chart variables out of name order, so that name order and chart order
# of the forms differ
ORDERS = (("z", "x", "y"), ("y", "z", "x"), ("z", "y", "x", "w"))


# -- the earlier bodies, kept as oracles --------------------------------------------

def oracle_directrix_rows(gens):
    field, variables = gens[0].field, gens[0].variables
    degree, p = local_frame._top_degree(gens), field.characteristic
    if p and degree >= p:
        rows = []
        for s in local_frame.compute_ridge(gens):
            q = int(s.total_degree())
            rows.extend(local_frame._linear_conditions(
                q, form_row(s, variables, q), field))
        return rows
    zero, n = field.zero(), len(variables)
    ints = [field.from_int(e) for e in range(degree + 1)]
    derivatives = {}
    for k, f in enumerate(gens):
        for m, c in f.coefficient_map().items():
            for i, e in enumerate(m):
                if e:
                    a = (k, m[:i] + (e - 1,) + m[i + 1:])
                    row = derivatives.get(a)
                    if row is None:
                        row = derivatives[a] = [zero] * n
                    row[i] = ints[e] * c
    return list(derivatives.values())


def oracle_directrix(initials):
    gens = [f for f in initials if not f.is_zero]
    if not gens:
        return 0, []
    field, variables = gens[0].field, gens[0].variables
    rref = row_reduce([stored_row(field, row)
                       for row in oracle_directrix_rows(gens)], field)
    return len(rref), [row_form(row, field, variables) for row in rref]


def oracle_add_old_boundary(r, forms, frame, variables):
    extra = [initial_form(b.generator, b.generator.variables)
             for b in frame.old_components()]
    if not extra:
        return len(variables) - r, list(forms)
    field = extra[0].field
    rref = row_reduce([form_row(f, variables) for f in list(forms) + extra],
                      field)
    return len(variables) - len(rref), [row_form(row, field, variables)
                                        for row in rref]


def oracle_adapt_frame_to_forms(gens, frame, forms):
    order = tuple(frame.y_block) + tuple(frame.u_block)
    rref = row_reduce([form_row(f, order) for f in forms], gens[0].field)
    pivots = []
    moves = []
    for row in rref:
        idx = next(i for i, c in enumerate(row) if c)
        pivots.append(order[idx])
        moves.extend((order[idx], -c, {order[i]: 1})
                     for i, c in enumerate(row) if c and i != idx)

    def rewrite(g):
        for var, c, shift in moves:
            g = translate(g, var, c, shift)
        return g

    new_gens = tuple(rewrite(g) for g in gens)
    pivot_set = set(pivots)
    y_block = tuple(v for v in frame.variables if v in pivot_set)
    u_block = tuple(v for v in frame.u_block if v not in pivot_set) + tuple(
        v for v in frame.y_block if v not in pivot_set)
    boundary = tuple(BoundaryComponent(rewrite(b.generator), b.status,
                                       b.birth_step, b.cid)
                     for b in frame.boundary)
    return new_gens, Frame(u_block=u_block, y_block=y_block,
                           boundary=boundary)


def oracle_moved_boundary(chart: ChartState, center, w: str):
    """The boundary of the chart of w before its exceptional divisor: each
    component's strict transform, dropped when it misses the origin."""
    out = []
    for comp in chart.frame.boundary:
        g, _m = strict_transform(comp.generator, center.variables, w)
        if not g.constant_coefficient():
            out.append(BoundaryComponent(g, comp.status, comp.birth_step,
                                         comp.cid))
    return out


# -- every chart of the named traces and of the resolved pool traces ---------------

def pool_traces():
    surfaces = json.loads(POOL.read_text())["surfaces"]
    for s in surfaces:
        if s["exit"] == 0:
            trace = resolve(initial_chart(POOL_FIELDS[s["field"]], XYZ,
                                          s["text"]))
            assert trace.status != SCOPE_ERROR, s["text"]
            yield trace


@pytest.fixture(scope="module")
def traces():
    named = [resolve(root, **options) for root, options in named_roots().values()]
    return named + list(pool_traces())


def assert_chart_reads_match(chart: ChartState) -> None:
    initials = [initial_form(g, g.variables) for g in chart.generators]
    want = oracle_directrix(initials)
    assert compute_directrix(initials, chart.frame) == want, chart.chart_id
    variables = chart.variables
    log = oracle_add_old_boundary(*want, chart.frame, variables)
    assert add_old_boundary(*want, chart.frame, variables) == log, (
        chart.chart_id)
    for _e, forms in (want, log):
        assert adapt_frame_to_forms(chart.generators, chart.frame, forms) == \
            oracle_adapt_frame_to_forms(chart.generators, chart.frame, forms), (
                chart.chart_id)


def test_every_traced_chart_reads_what_the_row_reduction_gives(traces):
    seen = set()
    coordinate_logs = monomials = 0
    for trace in traces:
        for chart in trace.charts.values():
            key = (chart.generators, chart.frame)
            if key in seen:
                continue
            seen.add(key)
            assert_chart_reads_match(chart)
            initials = [initial_form(g, g.variables) for g in chart.generators]
            monomials += all(len(f.vectors) == 1 for f in initials)
            coordinate_logs += all(coordinate_variable(f) is not None
                                   for f in chart.log_directrix[1])
    # both sides of each reading are on these charts
    assert len(seen) > 5000
    assert 0 < monomials < len(seen) and 0 < coordinate_logs < len(seen)


def test_every_blow_up_moves_the_boundary_as_the_strict_transform(traces):
    events = dropped = 0
    for trace in traces:
        for event in trace.events:
            chart = trace.charts[event.chart_id]
            for child in blow_up(chart, event.center):
                w = child.lineage.chart_var
                want = oracle_moved_boundary(chart, child.lineage.center, w)
                assert list(child.frame.boundary[:-1]) == want, child.chart_id
                dropped += len(want) < len(chart.frame.boundary)
            events += 1
    assert events > 5000 and dropped > 0


# -- seeded monomial and coordinate inputs -----------------------------------------

FIELDS = {"Q": QQ, "F2": F2, "F3": F3, "F5": F5, "F4": F4, "F3(t)": F3T}


def units(field: FieldDescriptor) -> list:
    if field is QQ:
        return [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)]
    if field is F3T:
        t = field.transcendental()
        return [field.one(), field.from_int(2), t, t + field.one(),
                field.one() / t]
    return [c for c in field.elements() if c]


def monomial(rng, field, variables, degree) -> Polynomial:
    vec = [0] * len(variables)
    for _ in range(degree):
        vec[rng.randrange(len(variables))] += 1
    return Polynomial.from_vectors(field, variables,
                                   {tuple(vec): rng.choice(units(field))})


def coordinate(rng, field, variables, name=None) -> Polynomial:
    name = name or rng.choice(variables)
    return Polynomial.from_vectors(field, variables, {
        tuple(int(v == name) for v in variables): rng.choice(units(field))})


def general_linear(rng, field, variables) -> Polynomial:
    a, b = rng.sample(variables, 2)
    return coordinate(rng, field, variables, a) + coordinate(rng, field,
                                                             variables, b)


def regular_divisor(rng, field, variables) -> Polynomial:
    """A generator of order one at the origin: a unit multiple of a
    coordinate, or one that is not a coordinate (a linear form in two
    variables, or a coordinate plus a square)."""
    roll = rng.random()
    if roll < 0.6:
        return coordinate(rng, field, variables)
    if roll < 0.8:
        return general_linear(rng, field, variables)
    a, b = rng.sample(variables, 2)
    return coordinate(rng, field, variables, a) + \
        coordinate(rng, field, variables, b) ** 2


def degrees(field: FieldDescriptor) -> list[int]:
    p = field.characteristic
    return [1, 2, 3] if not p else sorted({1, 2, p - 1, p, p + 1} - {0})


def random_forms(rng, field, variables) -> list[Polynomial]:
    """One to three monomials, with a repeat, or now and then a general
    form (a power of a linear form in two variables) among them."""
    forms = [monomial(rng, field, variables, rng.choice(degrees(field)))
             for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        forms.append(forms[0])
    if rng.random() < 0.2:
        forms.append(general_linear(rng, field, variables)
                     ** rng.choice(degrees(field)))
    return forms


def random_frame(rng, field, variables, count=2) -> Frame:
    y = tuple(v for v in variables if rng.random() < 0.4)
    u = tuple(v for v in variables if v not in y)
    boundary = tuple(
        BoundaryComponent(regular_divisor(rng, field, variables),
                          rng.choice((OLD, OLD, NEW)), 0, i)
        for i in range(rng.randint(0, count)))
    return Frame(u, y, boundary)


@pytest.mark.parametrize("name", FIELDS)
def test_monomial_initial_forms_give_the_row_reductions_directrix(name):
    field, rng = FIELDS[name], random.Random(f"monomial directrix {name}")
    monomials = 0
    for k in range(60):
        variables = ORDERS[k % len(ORDERS)]
        forms = random_forms(rng, field, variables)
        got = compute_directrix(forms, Frame(variables, ()))
        assert got == oracle_directrix(forms), [str(f) for f in forms]
        monomials += all(len(f.vectors) == 1 for f in forms)
    assert 20 < monomials < 60


@pytest.mark.parametrize("name", FIELDS)
def test_coordinate_old_divisors_give_the_row_reductions_log_directrix(name):
    field, rng = FIELDS[name], random.Random(f"log directrix {name}")
    fast = 0
    for k in range(80):
        variables = ORDERS[k % len(ORDERS)]
        frame = random_frame(rng, field, variables, 3)
        forms = [coordinate(rng, field, variables)
                 for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.2:
            forms.append(general_linear(rng, field, variables))
        r = len(row_reduce([form_row(f, variables) for f in forms], field))
        got = add_old_boundary(r, forms, frame, variables)
        assert got == oracle_add_old_boundary(r, forms, frame, variables), (
            [str(f) for f in forms], frame)
        fast += all(coordinate_variable(f) is not None for f in
                    forms + [b.generator for b in frame.old_components()])
    assert 20 < fast < 80


@pytest.mark.parametrize("name", FIELDS)
def test_coordinate_forms_adapt_the_frame_as_the_row_reduction_does(name):
    field, rng = FIELDS[name], random.Random(f"adapt {name}")
    unmoved = 0
    for k in range(60):
        variables = ORDERS[k % len(ORDERS)]
        frame = random_frame(rng, field, variables)
        gens = [monomial(rng, field, variables, 2)
                + monomial(rng, field, variables, 3)]
        forms = [coordinate(rng, field, variables)
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            forms.append(general_linear(rng, field, variables))
        got = adapt_frame_to_forms(gens, frame, forms)
        assert got == oracle_adapt_frame_to_forms(gens, frame, forms)
        if all(coordinate_variable(f) is not None for f in forms):
            unmoved += 1
            assert got[0][0] is gens[0] and got[1].boundary is frame.boundary
    assert 20 < unmoved < 60


# -- the checks that stay on every path ----------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F3, F3T], ids=["Q", "F2", "F3", "F3t"])
def test_the_degree_cap_holds_for_a_monomial(field):
    top = MAX_DIRECTRIX_DEGREE
    frame = Frame(XYZ, ())
    at_cap = parse_polynomial(f"x^{top - 1}*y", field, XYZ)
    assert compute_directrix([at_cap], frame)[0] == 2
    over = parse_polynomial(f"x^{top}*z", field, XYZ)
    with pytest.raises(ScopeError, match=f"degree {top + 1} is over the limit"):
        compute_directrix([at_cap, over], frame)
    with pytest.raises(InputError, match="ridge input is not homogeneous"):
        compute_directrix([at_cap, parse_polynomial("x^2 + y^3", field, XYZ)],
                          frame)


def test_replace_chart_refuses_an_unknown_field_and_checks_the_copy():
    f = parse_polynomial("x^2 + y^3*z^4", QQ, XYZ)
    chart = make_chart((f,), ("y", "z"), ("x",))
    chart.directrix  # noqa: B018  (derive it, to be carried)
    with pytest.raises(TypeError, match="no field"):
        replace_chart(chart, unknown=1)
    with pytest.raises(InputError, match="at least one generator"):
        replace_chart(chart, generators=())
    with pytest.raises(InputError, match="frame variables"):
        replace_chart(chart, frame=Frame(("y",), ("x",)))
    copy = replace_chart(chart, step=3)
    assert copy.step == 3 and copy == ChartState(**{
        **{name: getattr(chart, name) for name in blowup_engine._FIELDS},
        "step": 3})
    assert copy.__dict__["directrix"] is chart.__dict__["directrix"]


def test_a_reset_keeps_each_old_component_as_it_is():
    f = parse_polynomial("x^2 + y^3*z^4", QQ, XYZ)
    y, z = (parse_polynomial(v, QQ, XYZ) for v in ("y", "z"))
    old, new = BoundaryComponent(y, OLD, 0, 0), BoundaryComponent(z, NEW, 1, 1)
    chart = make_chart((f,), ("y", "z"), ("x",), (old, new))
    reset = _reset_boundary(chart).frame.boundary
    assert reset[0] is old and reset[1] == BoundaryComponent(z, OLD, 1, 1)


# -- the CLI --------------------------------------------------------------------------

def run(tmp_path, capsys, args, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main([args[0], str(path), *args[1:]])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def surface_job(field: str, text: str) -> dict:
    return {"field": {"kind": "rationals"} if field == "Q" else
            {"kind": "prime_field", "characteristic": int(field[1:])},
            "variables": list(XYZ), "generators": [text]}


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_analyze_refuses_a_monomial_initial_form_over_the_cap(
        tmp_path, capsys, field):
    """x^11 + y^12*z has the monomial initial form x^11."""
    top = MAX_DIRECTRIX_DEGREE
    code, _out, err = run(tmp_path, capsys, ("analyze",), surface_job(
        field, f"x^{top + 1} + y^{top + 2}*z"))
    assert code == EXIT_SCOPE
    assert f"degree {top + 1} is over the limit" in err
    assert "MAX_DIRECTRIX_DEGREE" in err
    code, _out, _err = run(tmp_path, capsys, ("analyze",), surface_job(
        field, f"x^{top} + y^{top + 2}*z"))
    assert code == EXIT_OK


# Q x^2 + y^3*z^4 in (y, z | x), on the regular divisor y + z^2 = 0
NOT_COORDINATE_BOUNDARY = {
    "field": {"kind": "rationals"}, "variables": list(XYZ),
    "generators": ["x^2 + y^3*z^4"], "frame": {"u": ["y", "z"], "y": ["x"]},
    "boundary": [{"generator": "y + z^2", "status": "old"}],
}
NAMED_COMPONENT = "boundary component {y + z^2 = 0} is not a coordinate divisor"


@pytest.mark.parametrize("args", [("blowup",), ("export", "--format", "json"),
                                  ("export", "--format", "dot")], ids=" ".join)
def test_a_chosen_center_beside_a_non_coordinate_divisor_is_out_of_scope(
        tmp_path, capsys, args):
    code, out, err = run(tmp_path, capsys, args, NOT_COORDINATE_BOUNDARY)
    assert code == EXIT_SCOPE and out == ""
    assert NAMED_COMPONENT in err


def test_resolve_writes_the_partial_trace_of_that_scope_error(tmp_path, capsys):
    code, out, _err = run(tmp_path, capsys, ("resolve",),
                          NOT_COORDINATE_BOUNDARY)
    trace = json.loads(out)["trace"]
    assert code == EXIT_SCOPE and trace["status"] == "scope_error"
    assert NAMED_COMPONENT in trace["error"]
    assert [c["id"] for c in trace["charts"]] == ["root"] and not trace["events"]


def test_blowup_at_the_jobs_center_beside_it_stays_an_input_error(
        tmp_path, capsys):
    job = dict(NOT_COORDINATE_BOUNDARY, center={"variables": list(XYZ)})
    code, _out, err = run(tmp_path, capsys, ("blowup",), job)
    assert code == EXIT_INPUT
    assert "center is not permissible: cannot certify normal crossings" in err
