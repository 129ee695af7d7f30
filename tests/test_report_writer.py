"""The CLI's report writers against ``json.dumps(value, indent=2)``.

``cli._report_text`` writes every JSON report and exported trace but two:
the ``resolve`` report and a live trace's ``export --format json`` text are
written straight from the trace (``tests/test_trace_writer.py``).  Every
text must be the stdlib's, byte for byte:

* on every report of the four named jobs, through all six commands (the
  two trace reports against ``json.dumps`` of the tree that the oracle
  ``trace_to_jsonable`` builds, and ``blowup``'s child charts against the
  oracle ``chart_to_jsonable``'s trees), and on the stored trace that
  ``export --format json`` writes, fed back to ``export``;
* on ``blowup`` of every chart of the named traces with a non-empty
  stratum;
* on ``hypothesis``-drawn JSON values: nested empty containers, tuples,
  non-ASCII and control characters, ints beyond 2^64, and floats with nan
  and +-inf (which no report carries, since the job reader refuses them in
  a stored trace; the writer still matches ``json.dumps`` on them);
* on a stored trace nested as deeply as the job reader accepts.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfres import cli
from surfres.blowup_engine import ChartState
from surfres.cli import EXIT_INPUT, EXIT_OK, main
from surfres.resolution_driver import check_monotone

from oracles import chart_to_jsonable, repo_module, trace_to_jsonable

RATIONALS = {"kind": "rationals"}
XYZ = ["x", "y", "z"]
NAMED_JOBS = {
    "surface-default": {
        "field": RATIONALS, "variables": XYZ, "generators": ["x^2 + y^9*z^10"]},
    "surface-fresh": {
        "field": RATIONALS, "variables": XYZ, "generators": ["x^2 + y^9*z^10"],
        "options": {"label_mode": "fresh"}},
    "crossing-lines-cubic": {
        "field": RATIONALS, "variables": XYZ,
        "generators": ["z^3 + x^2*y^2*z + x^3*y^3"]},
    "two-divisor-chart": {
        "field": RATIONALS, "variables": ["u1", "u2", "y"],
        "generators": ["y^2 + (u2 + u1)^3 + u1^7"],
        "frame": {"u": ["u1", "u2"], "y": ["y"]},
        "boundary": [
            {"generator": "u1", "status": "new", "birth": 0, "cid": 0},
            {"generator": "u2", "status": "new", "birth": 0, "cid": 1},
        ]},
}
COMMANDS = [("analyze",), ("polyhedron",), ("invariant",), ("blowup",),
            ("resolve",), ("export", "--format", "json")]


def run_recorded(monkeypatch, capsys, args, job):
    """Exit code, stdout and every (value, text) the writer was given."""
    seen = []
    writer = cli._report_text

    def recording(value):
        text = writer(value)
        seen.append((value, text))
        return text

    monkeypatch.setattr(cli, "_report_text", recording)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main([args[0], "-", *args[1:]])
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_report_text", writer)
    return code, out, seen


def assert_written_as_json_dumps(code, out, seen):
    assert code == EXIT_OK
    (value, text), = seen
    assert text == json.dumps(value, indent=2)
    assert out == text + "\n"


def oracle_report(command: str, trace) -> dict:
    """The ``resolve`` report or the ``export --format json`` trace of a
    trace, as the tree that the oracle ``trace_to_jsonable`` builds."""
    if command == "export":
        return trace_to_jsonable(trace)
    mono = check_monotone(trace)
    return {"command": "resolve", "trace": trace_to_jsonable(trace),
            "monotone": {"ok": mono.ok, "checked": mono.checked,
                         "violations": list(mono.violations)}}


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", list(NAMED_JOBS))
def test_every_report_of_the_named_jobs_is_json_dumps_text(
        name, args, monkeypatch, capsys):
    job = NAMED_JOBS[name]
    if args == ("polyhedron",):
        job = dict(job, options={**job.get("options", {}), "budget": 8})
    code, out, seen = run_recorded(monkeypatch, capsys, args, job)
    if args[0] in ("resolve", "export"):
        # written from the trace, without the generic writer
        assert (code, seen) == (EXIT_OK, [])
        report = oracle_report(args[0], cli._run_resolve(job))
        assert out == json.dumps(report, indent=2) + "\n"
    elif args[0] == "blowup":
        assert_blowup_written_as_the_oracle(code, out, seen)
    else:
        assert_written_as_json_dumps(code, out, seen)


def assert_blowup_written_as_the_oracle(code, out, seen):
    """The ``blowup`` report's text is ``json.dumps`` of the value the
    writer was given with each child's chart state, which the writer takes
    as it is, made the tree that the oracle ``chart_to_jsonable`` builds."""
    assert code == EXIT_OK
    (report, _text), = seen
    assert all(isinstance(c["chart"], ChartState) for c in report["children"])
    oracle = dict(report, children=[dict(c, chart=chart_to_jsonable(c["chart"]))
                                    for c in report["children"]])
    assert out == json.dumps(oracle, indent=2) + "\n"


def test_blowup_of_every_named_trace_chart_is_the_oracle_text(monkeypatch, capsys):
    """``blowup`` of each chart of the named traces with a non-empty
    stratum, the job rebuilt as the ``chart-queries`` benchmark rebuilds
    it, writes the text of the oracle's report."""
    corpus = repo_module("perfbench", "corpus")
    runs = 0
    for job in NAMED_JOBS.values():
        for chart in trace_to_jsonable(cli._run_resolve(job))["charts"]:
            if not chart["stratum"]:
                continue
            assert_blowup_written_as_the_oracle(*run_recorded(
                monkeypatch, capsys, ("blowup",),
                corpus.chart_job(chart, job["field"])))
            runs += 1
    assert runs > 100


@pytest.mark.parametrize("name", list(NAMED_JOBS))
def test_a_stored_trace_is_exported_as_json_dumps_text(name, monkeypatch, capsys):
    args = ("export", "--format", "json")
    _code, out, _seen = run_recorded(monkeypatch, capsys, args, NAMED_JOBS[name])
    stored = {"trace": json.loads(out)}
    code, again, seen = run_recorded(monkeypatch, capsys, args, stored)
    assert_written_as_json_dumps(code, again, seen)
    assert again == out


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**64),
    st.floats(),  # nan and +-inf included
    st.text(),  # non-ASCII, control characters and surrogates included
)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
), max_leaves=30)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(VALUES)
@example({"": [], "a": {}, "b": [[], {}, [[]], ({},)], "é\x00 ": "\x1f\U0001f600é",
          "floats": [math.nan, math.inf, -math.inf, -0.0, 1e300, 0.1],
          "ints": [2**64, -2**100, 0, True, False, None]})
def test_drawn_values_are_written_as_json_dumps_writes_them(value):
    assert cli._report_text(value) == json.dumps(value, indent=2)


def nested_trace_job(depth: int) -> str:
    """A stored-trace export job whose trace nests lists and objects to
    ``depth`` levels below its ``deep`` field."""
    opens = "".join("[" if i % 2 else '{"k": ' for i in range(depth))
    closes = "".join("]" if i % 2 else "}" for i in reversed(range(depth)))
    return ('{"trace": {"charts": [], "events": [], "deep": '
            + opens + "0" + closes + "}}")


def test_the_deepest_stored_trace_the_reader_accepts_is_written(monkeypatch, capsys):
    def export(depth):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(nested_trace_job(depth)))
        code = main(["export", "-", "--format", "json"])
        return code, capsys.readouterr()

    accepted, refused = 1, 5000
    assert export(refused)[0] == EXIT_INPUT
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        code, captured = export(mid)
        assert code in (EXIT_OK, EXIT_INPUT), captured.err
        if code == EXIT_OK:
            accepted = mid
        else:
            assert "nests too deeply" in captured.err
            refused = mid
    assert accepted > 500
    code, captured = export(accepted)
    assert code == EXIT_OK
    trace = json.loads(nested_trace_job(accepted))["trace"]
    assert captured.out == json.dumps(trace, indent=2) + "\n"
