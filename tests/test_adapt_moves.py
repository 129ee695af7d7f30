"""Adapting a frame to directrix forms against the earlier implementation.

``adapt_frame_to_forms`` skips every move whose pivot a polynomial does
not hold, and keeps a boundary component whose generator does not move as
the same object.  The earlier body, which translates every generator and
boundary generator by every move and rebuilds every boundary component, is
``oracles.adapt_by_every_move``.  The two must give equal generators and
frames for the directrix and the log-directrix forms of every chart of the
named traces and of the charts of ``tools/cli_bytes.py``'s
``linear_algebra_jobs``, whose forms are not coordinates over F_9, F_2(t)
and F_3(t).
"""

from __future__ import annotations

import pytest

from surfres.cli import build_chart
from surfres.exact_algebra import InputError, ScopeError
from surfres.invariant import adapt_frame_to_forms

from oracles import adapt_by_every_move, repo_module
from test_per_chart import named_traces  # noqa: F401


def form_cases(name, chart):
    """(name, generators, frame, forms) for the chart's directrix and
    log-directrix, each where it can be computed."""
    cases = []
    for reading in ("directrix", "log_directrix"):
        try:
            forms = getattr(chart, reading)[1]
        except (InputError, ScopeError):
            continue
        cases.append((f"{name}:{reading}", chart.generators, chart.frame,
                      forms))
    return cases


@pytest.fixture(scope="module")
def named_cases(named_traces):
    return [case for name, trace in named_traces.items()
            for chart in trace.charts.values()
            for case in form_cases(f"{name}:{chart.chart_id}", chart)]


@pytest.fixture(scope="module")
def linear_algebra_cases():
    jobs = repo_module("tools", "cli_bytes").linear_algebra_jobs()
    return [case for name, (_commands, job) in jobs.items()
            for case in form_cases(name, build_chart(job))]


def compare(cases):
    """Asserts that both implementations agree on every case, and that an
    unmoved generator or boundary component comes back as itself; returns
    how many cases moved a generator, and how many boundary components
    those cases kept as they were."""
    moved = kept = 0
    for name, gens, frame, forms in cases:
        new_gens, new_frame = got = adapt_frame_to_forms(list(gens), frame,
                                                         forms)
        assert got == adapt_by_every_move(list(gens), frame, forms), name
        for new, old in zip(new_gens, gens):
            assert (new is old) == (new == old), name
        unmoved = [new is old for new, old in zip(new_frame.boundary,
                                                  frame.boundary)
                   if new.generator == old.generator]
        assert all(unmoved), name
        if new_gens != tuple(gens):
            moved += 1
            kept += len(unmoved)
    return moved, kept


def test_named_trace_charts_adapt_as_before(named_cases):
    assert len(named_cases) > 500
    moved, kept = compare(named_cases)
    assert moved > 10 and kept > 10, (moved, kept)


def test_linear_algebra_job_charts_adapt_as_before(linear_algebra_cases):
    fields = {gens[0].field for _n, gens, _f, _forms in linear_algebra_cases}
    assert {(f.kind, f.characteristic) for f in fields} == {
        ("finite_field_extension", 3),
        ("rational_functions_over_prime_field", 2),
        ("rational_functions_over_prime_field", 3)}
    assert compare(linear_algebra_cases)[0] > 10
