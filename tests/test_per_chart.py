"""Per-chart quantities read once, checked against fresh derivations.

Over every chart of the named traces (the surface example in both labelling
modes, the crossing-lines cubic and the two-divisor chart) the cached
``ChartState.directrix`` / ``log_directrix`` / ``orders`` must equal fresh
``compute_directrix`` / ``directrix_of_JO`` / ``ord_at`` results, the
invariants the resolver keeps on the trace must equal fresh
``compute_iota`` results, and ``trace_to_dot`` must equal a renderer that
recomputes the invariant of every chart.  ``chart_is_regular``, which reads
the rank of the linear initial forms off the cached directrix, must agree
with the rank of those forms row-reduced afresh, on every named-trace chart
and on seeded charts of two or three generators over Q, F_2, F_3, F_3(t)
and F_4.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from surfres.blowup_engine import make_chart
from surfres.cli import EXIT_OK, main
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    ord_at,
    parse_polynomial,
    to_string,
)
from surfres.invariant import chart_is_regular, compute_iota
from surfres.local_frame import (
    compute_directrix,
    directrix_of_JO,
    form_row,
    initial_form,
    nu_star,
    row_reduce,
)
from surfres.resolution_driver import (
    FRESH_LABELS,
    initial_chart,
    resolve,
    trace_to_dot,
    trace_to_jsonable,
)
from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")


@pytest.fixture(scope="module")
def named_traces():
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    return {
        "surface-default": resolve(surface()),
        "surface-fresh": resolve(surface(), label_mode=FRESH_LABELS),
        "crossing-lines-cubic":
            resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")),
        "two-divisor-chart": resolve(whirl_chart()),
    }


def _reference_dot(trace) -> str:
    """The DOT rendering with the invariant recomputed on every chart."""
    def esc(text: str) -> str:
        return (text.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n"))

    lines = ["digraph resolution {", "  node [shape=box];"]
    for chart in trace.charts.values():
        gen = ", ".join(to_string(g) for g in chart.generators)
        try:
            tag = f"case {compute_iota(chart).case}"
        except (InputError, ScopeError):
            tag = "unresolved"
        label = esc(f"{chart.chart_id}\n{gen}\n{tag}")
        lines.append(f'  "{esc(chart.chart_id)}" [label="{label}"];')
    for ev in trace.events:
        center = "V(" + ", ".join(ev.center.variables) + ")"
        for child_id in ev.created:
            child = trace.charts[child_id]
            var = child.lineage.chart_var if child.lineage else "?"
            lines.append(f'  "{esc(ev.chart_id)}" -> "{esc(child_id)}" '
                         f'[label="{esc(center + " / " + var)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[label=')
_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[label="(.*)"\];$')


def _graph(dot: str) -> tuple[list[str], list[tuple[str, ...]]]:
    nodes, edges = [], []
    for line in dot.splitlines():
        edge = _EDGE.match(line)
        if edge:
            edges.append(edge.groups())
        elif _NODE.match(line):
            nodes.append(_NODE.match(line).group(1))
    return nodes, edges


def test_named_traces_are_resolved(named_traces):
    for name, trace in named_traces.items():
        assert trace.status == "resolved", name
        assert trace.charts, name


def test_cached_directrix_equals_fresh_derivations(named_traces):
    checked = 0
    for trace in named_traces.values():
        for chart in trace.charts.values():
            gens = list(chart.generators)
            initials = [initial_form(g, g.variables) for g in gens]
            r, forms = compute_directrix(initials, chart.frame)
            assert chart.directrix == (r, tuple(forms)), chart.chart_id
            e_o, forms_o = directrix_of_JO(gens, chart.frame)
            assert chart.log_directrix == (e_o, tuple(forms_o)), chart.chart_id
            assert chart.nu == nu_star(gens), chart.chart_id
            assert chart.orders == tuple(
                ord_at(g, g.variables) for g in gens), chart.chart_id
            checked += 1
    assert checked > 300


def test_resolver_iotas_equal_fresh_invariants(named_traces):
    for trace in named_traces.values():
        assert trace.iotas
        assert set(trace.iotas) <= set(trace.charts)
        for chart_id, iota in trace.iotas.items():
            assert iota == compute_iota(trace.charts[chart_id]), chart_id


def rank_rule_regular(chart) -> bool:
    """Regularity as the rank of the row-reduced linear initial forms."""
    orders = chart.nu.orders
    if orders[0] == 0:
        return True
    if orders[-1] > 1:
        return False
    rows = [form_row(initial_form(g, g.variables), chart.variables)
            for g in chart.generators]
    return len(row_reduce(rows, chart.field)) == len(chart.generators)


# each field with the coefficients its seeded generators draw from
REGULARITY_FIELDS = {
    "Q": (FieldDescriptor.rationals(), ["1", "(-1)", "2", "(1/2)"]),
    "F2": (FieldDescriptor.prime_field(2), ["1"]),
    "F3": (FieldDescriptor.prime_field(3), ["1", "2"]),
    "F3(t)": (FieldDescriptor.rational_functions(3, "t"),
              ["1", "2", "t", "(t+1)"]),
    "F4": (FieldDescriptor.finite_extension(2, (1, 1, 1)), ["1", "s", "(s+1)"]),
}


def seeded_regularity_charts(field, coeffs, rng, count=40):
    """Charts of two or three generators in x, y, z: linear parts drawn
    freely or as a multiple of an earlier one (dependent), a higher-order
    tail, now and then a generator of order 2, and now and then a unit."""
    def coefficient():
        return rng.choice(coeffs)

    def linear():
        while True:
            terms = [f"{coefficient()}*{v}" for v in XYZ if rng.random() < 0.5]
            if terms:
                return " + ".join(terms)

    charts = []
    for _ in range(count):
        parts = []
        for _ in range(rng.choice((2, 3))):
            if parts and rng.random() < 0.4:
                part = f"{coefficient()}*({rng.choice(parts)})"
            else:
                part = linear()
            parts.append(part)
        texts = [f"{part} + {coefficient()}*{rng.choice(XYZ)}^{rng.choice((2, 3))}"
                 for part in parts]
        if rng.random() < 0.2:
            texts[rng.randrange(len(texts))] = f"{rng.choice(XYZ)}^2 + y*z^2"
        if rng.random() < 0.15:
            texts[rng.randrange(len(texts))] += " + 1"
        gens = tuple(parse_polynomial(t, field, XYZ) for t in texts)
        charts.append(make_chart(field, XYZ, gens, XYZ, ()))
    return charts


def test_regularity_reads_the_directrix_rank_on_named_charts(named_traces):
    checked = 0
    for trace in named_traces.values():
        for chart in trace.charts.values():
            assert chart_is_regular(chart) == rank_rule_regular(chart), \
                chart.chart_id
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("name", sorted(REGULARITY_FIELDS))
def test_regularity_reads_the_directrix_rank_on_seeded_charts(name):
    field, coeffs = REGULARITY_FIELDS[name]
    order_one_answers = set()
    for chart in seeded_regularity_charts(field, coeffs, random.Random(name)):
        expected = rank_rule_regular(chart)
        assert chart_is_regular(chart) == expected, [
            to_string(g) for g in chart.generators]
        if set(chart.nu.orders) == {1}:
            order_one_answers.add(expected)
    # charts of order one with independent and with dependent linear parts
    assert order_one_answers == {True, False}


def test_dot_equals_reference_renderer(named_traces):
    for name, trace in named_traces.items():
        assert trace_to_dot(trace) == _reference_dot(trace), name


def test_stored_dot_has_the_live_graph(named_traces):
    for name, trace in named_traces.items():
        live_nodes, live_edges = _graph(trace_to_dot(trace))
        stored = json.loads(json.dumps(trace_to_jsonable(trace)))
        stored_dot = trace_to_dot(stored)
        assert _graph(stored_dot) == (live_nodes, live_edges), name
        assert "case " not in stored_dot, name


def test_stored_trace_export_matches_live_export(tmp_path, capsys):
    job = {"field": {"kind": "rationals"}, "variables": list(XYZ),
           "generators": ["z^3 + x^2*y^2*z + x^3*y^3"]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["export", str(path)]) == EXIT_OK
    live = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    assert main(["resolve", str(path), "--output", str(report_path)]) == EXIT_OK
    assert main(["export", str(report_path)]) == EXIT_OK
    stored = capsys.readouterr().out
    assert _graph(stored) == _graph(live)
    assert stored != live  # the stored nodes carry no case line
