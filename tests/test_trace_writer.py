"""The trace writers against ``json.dumps`` of the oracle's trace tree.

``surfres resolve`` and ``surfres export --format json`` of a job write
their text straight from the trace's objects (``resolution_driver.trace_text``
and ``cli._resolve_text``), with each iota's text formed once per report and
placed at its depth.  That text must be the bytes ``json.dumps(...,
indent=2)`` writes for the tree the oracle ``trace_to_jsonable``
(``tests/oracles.py``) builds, and ``resolution_driver.trace_to_jsonable``,
which reads the text back, must give that tree:

* on every trace of the 54-trace acceptance corpus;
* on every pool surface (``perfbench/pool.json``) whose ``resolve_s`` is
  below 0.4, scope-error partial traces included;
* on the named jobs at ``max_steps`` 0, 1 and 3 (status ``step_limit``);
* on a resolution that ends in a scope error;
* on the jobs with ``declared_points``, whose records sit on located points;
* on a hand-built trace with monotonicity violations, a center without a
  label, a stratum component with ``original`` None, fractional iota slots
  and an error message that needs escaping;
* through the CLI under ``python -O``.

Each trace is written as a ``resolve`` report and as an export, so an iota
text cached at one depth and reused at another shows.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from surfres import cli
from surfres.blowup_engine import StratumComponent, replace_chart
from surfres.cli import EXIT_OK, main
from surfres.exact_algebra import INF, InputError, ScopeError
from surfres.invariant import GREATER, IotaInvariant
from surfres.local_frame import NuStar
from surfres.resolution_driver import (
    SCOPE_ERROR,
    STEP_LIMIT,
    check_monotone,
    trace_text,
    trace_to_jsonable,
)

from test_acceptance import corpus_traces  # noqa: F401  (a fixture)
from test_cli_inputs import point_jobs
from test_report_writer import NAMED_JOBS, oracle_report

ROOT = Path(__file__).resolve().parent.parent
POOL_RESOLVE_S = 0.4
POOL_FIELDS = {"Q": {"kind": "rationals"},
               **{f"F{p}": {"kind": "prime_field", "characteristic": p}
                  for p in (2, 3, 5)}}


def assert_written_as_the_oracle(trace, name) -> None:
    """Both trace texts of one trace equal the oracle's bytes, and the tree
    read back from them is the oracle's tree."""
    report = oracle_report("resolve", trace)
    assert cli._resolve_text(trace, check_monotone(trace)) == json.dumps(
        report, indent=2), name
    assert trace_text(trace, "\n") == json.dumps(
        report["trace"], indent=2), name
    assert trace_to_jsonable(trace) == report["trace"], name


def cli_text(args: tuple[str, ...], job: dict, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main([args[0], "-", *args[1:]])
    return code, capsys.readouterr().out


def test_every_trace_of_the_acceptance_corpus(corpus_traces):  # noqa: F811
    assert len(corpus_traces) == 54
    for name, trace in corpus_traces:
        assert_written_as_the_oracle(trace, name)


def test_every_cheap_pool_surface_scope_errors_included():
    surfaces = json.loads((ROOT / "perfbench" / "pool.json").read_text())
    statuses = set()
    for s in surfaces["surfaces"]:
        if s["resolve_s"] >= POOL_RESOLVE_S:
            continue
        job = {"field": POOL_FIELDS[s["field"]], "variables": ["x", "y", "z"],
               "generators": [s["text"]]}
        try:
            trace = cli._run_resolve(job)
        except (InputError, ScopeError):
            continue  # refused before any trace exists
        statuses.add(trace.status)
        assert_written_as_the_oracle(trace, s["text"])
    assert SCOPE_ERROR in statuses


@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("name", list(NAMED_JOBS))
def test_named_jobs_cut_at_a_step_limit(name, steps, monkeypatch, capsys):
    job = dict(NAMED_JOBS[name],
               options={**NAMED_JOBS[name].get("options", {}),
                        "max_steps": steps})
    trace = cli._run_resolve(job)
    assert trace.status == STEP_LIMIT
    assert len(trace.events) == steps
    assert_written_as_the_oracle(trace, name)
    for args in (("resolve",), ("export", "--format", "json")):
        code, out = cli_text(args, job, monkeypatch, capsys)
        assert code == EXIT_OK
        assert out == json.dumps(oracle_report(args[0], trace), indent=2) + "\n"


# its fifth blow-up would need a center cut by a non-coordinate condition
SCOPE_JOB = {"field": {"kind": "rationals"}, "variables": ["x", "y", "z"],
             "generators": ["x^2 + y^3*z + x*z^3"]}


def test_a_resolution_ending_in_a_scope_error(monkeypatch, capsys):
    trace = cli._run_resolve(SCOPE_JOB)
    assert trace.status == SCOPE_ERROR and len(trace.events) == 4
    assert_written_as_the_oracle(trace, "scope job")
    code, out = cli_text(("resolve",), SCOPE_JOB, monkeypatch, capsys)
    assert code == cli.EXIT_SCOPE
    assert out == json.dumps(oracle_report("resolve", trace), indent=2) + "\n"


def test_jobs_with_declared_points(monkeypatch, capsys):
    jobs = [job for command, job in point_jobs().values()
            if command == "resolve"]
    assert jobs
    for job in jobs:
        trace = cli._run_resolve(job)
        assert any("@" in rec.chart_id for ev in trace.events
                   for rec in ev.records)
        assert_written_as_the_oracle(trace, job["declared_points"])
        code, out = cli_text(("resolve",), job, monkeypatch, capsys)
        assert code == EXIT_OK
        assert out == json.dumps(oracle_report("resolve", trace), indent=2) + "\n"


def test_a_hand_built_trace_with_every_kind_of_value():
    trace = cli._run_resolve(dict(NAMED_JOBS["crossing-lines-cubic"],
                                  options={"max_steps": 1}))
    event, = trace.events
    component = StratumComponent(cid=7, variables=("x", "y"), label=2)
    object.__setattr__(component, "original", None)
    root = replace_chart(trace.charts["root"], stratum=(component,))
    raised = IotaInvariant(
        iota0=(NuStar((3, 5)), 0, 2, 1), iota_c=(NuStar((1,)), 1, 1, 0, INF,
                                                 Fraction(7, 3)),
        iota_poly=(Fraction(5, 2), Fraction(4, 2), INF), case="III")
    records = tuple(replace(rec, iota_after=raised, comparison=GREATER)
                    for rec in event.records)
    hand = replace(
        trace, status=SCOPE_ERROR, error='a "quoted" \\ error\tin é\n',
        charts={**trace.charts, "root": root},
        events=(replace(event, center_label=None, records=records),))
    mono = check_monotone(hand)
    assert not mono.ok and len(mono.violations) == len(records)
    text = cli._resolve_text(hand, mono)
    assert '"original": null' in text and '"label": null' in text
    assert '"7/3"' in text
    assert_written_as_the_oracle(hand, "hand-built")


def test_the_cli_writes_the_same_bytes_under_python_O():
    job = NAMED_JOBS["two-divisor-chart"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "surfres.cli", "resolve", "-"],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        check=False, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    report = oracle_report("resolve", cli._run_resolve(job))
    assert done.stdout == json.dumps(report, indent=2) + "\n"
