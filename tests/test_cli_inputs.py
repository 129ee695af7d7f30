"""Malformed options, moves and stored traces end in exit 2 with a message;
the center-selection fallback resolves jobs whose stratum curve is not a
valid center shape."""

from __future__ import annotations

import io
import json
import sys

import pytest

from surfres import cli
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main

SURFACE_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^9*z^10"],
}

# singular along x = -1, y = z = 0
SHIFTED_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["z^2 - x*y^2 - y^2"],
}


def run(tmp_path, capsys, argv_head, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    code = main([argv_head, str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def test_f5_curve_outside_the_y_block_falls_back_to_the_closed_point(
        tmp_path, capsys):
    job = {"field": {"kind": "prime_field", "characteristic": 5},
           "variables": ["x", "y", "z"],
           "generators": ["x^3 + y^3 + x*z^3"]}
    code, out, err = run(tmp_path, capsys, "resolve", job)
    assert code == EXIT_OK, err
    report = json.loads(out)
    assert report["trace"]["status"] == "resolved"
    assert report["monotone"]["ok"]


@pytest.mark.parametrize("command", ["analyze", "invariant"])
def test_string_and_integer_moves_give_identical_reports(
        tmp_path, capsys, command):
    reports = []
    for value in ("-1", -1):
        job = dict(SHIFTED_JOB, point={"moves": {"x": value}})
        code, out, err = run(tmp_path, capsys, command, job)
        assert code == EXIT_OK, err
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["command"] == command


def test_string_and_integer_declared_points_give_identical_reports(
        tmp_path, capsys):
    reports = []
    for value in ("1", 1):
        job = dict(SURFACE_JOB, declared_points={"root/z": [{"y": value}]})
        code, out, err = run(tmp_path, capsys, "resolve", job)
        assert code == EXIT_OK, err
        reports.append(out)
    assert reports[0] == reports[1]
    points = [rec["point"] for ev in json.loads(reports[0])["trace"]["events"]
              for rec in ev["records"]]
    assert "y" in points


@pytest.mark.parametrize("value", ["x", "1 + y", "1/2*z"])
def test_non_constant_move_is_an_input_error(tmp_path, capsys, value):
    job = dict(SHIFTED_JOB, point={"moves": {"x": value}})
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_INPUT
    assert "jobspec.point.moves.x" in err
    assert "not a constant" in err


@pytest.mark.parametrize("command, options, field", [
    ("resolve", {"max_steps": "10"}, "max_steps"),
    ("resolve", {"max_steps": -1}, "max_steps"),
    ("resolve", {"max_steps": True}, "max_steps"),
    ("resolve", {"max_steps": 2.5}, "max_steps"),
    ("resolve", {"label_mode": "newest"}, "label_mode"),
    ("polyhedron", {"budget": "5"}, "budget"),
    ("polyhedron", {"budget": 0}, "budget"),
    ("polyhedron", {"budget": False}, "budget"),
    ("polyhedron", {"sigma_budget": None}, "sigma_budget"),
    ("polyhedron", {"sigma_budget": 0}, "sigma_budget"),
    ("export", {"max_steps": "3"}, "max_steps"),
])
def test_bad_option_is_an_input_error_naming_the_field(
        tmp_path, capsys, command, options, field):
    job = dict(SURFACE_JOB, options=options)
    code, _out, err = run(tmp_path, capsys, command, job)
    assert code == EXIT_INPUT
    assert f"jobspec.options.{field}" in err


def test_smallest_valid_options_are_accepted(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "resolve",
                         dict(SURFACE_JOB, options={"max_steps": 0}))
    assert code == EXIT_OK, err
    assert json.loads(out)["trace"]["status"] == "step_limit"
    code, out, err = run(tmp_path, capsys, "polyhedron",
                         dict(SURFACE_JOB,
                              options={"budget": 1, "sigma_budget": 1}))
    assert code == EXIT_OK, err


@pytest.mark.parametrize("trace, where", [
    (5, "jobspec.trace"),
    ([], "jobspec.trace"),
    ({}, "jobspec.trace"),
    ({"charts": 3, "events": []}, "jobspec.trace.charts"),
    ({"charts": [7], "events": []}, "jobspec.trace.charts[0]"),
    ({"charts": [{"generators": ["x"]}], "events": []},
     "jobspec.trace.charts[0]"),
    ({"charts": [{"id": "root", "generators": "x"}], "events": []},
     "jobspec.trace.charts[0].generators"),
    ({"charts": [{"id": "root", "generators": [1]}], "events": []},
     "jobspec.trace.charts[0].generators"),
    ({"charts": [{"id": "root", "generators": ["x"], "chart_var": 1}],
      "events": []}, "jobspec.trace.charts[0].chart_var"),
    ({"charts": [{"id": "root", "generators": ["x"]}]}, "jobspec.trace"),
    ({"charts": [{"id": "root", "generators": ["x"]}], "events": [1]},
     "jobspec.trace.events[0]"),
    ({"charts": [{"id": "root", "generators": ["x"]}],
      "events": [{"chart": "root", "center": {"variables": ["x"]},
                  "created": ["root/x"]}]},
     "jobspec.trace.events[0].created"),
    ({"charts": [{"id": "root", "generators": ["x"]}],
      "events": [{"chart": "root", "center": {"variables": ["x"]},
                  "created": [["root"]]}]},
     "jobspec.trace.events[0].created"),
    ({"charts": [{"id": "root", "generators": ["x"]}],
      "events": [{"chart": "root", "center": [], "created": []}]},
     "jobspec.trace.events[0]"),
])
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_malformed_stored_trace_is_an_input_error(
        tmp_path, capsys, trace, where, fmt):
    path = tmp_path / "stored.json"
    path.write_text(json.dumps({"trace": trace}))
    code = main(["export", str(path), "--format", fmt])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "Traceback" not in err
    assert where in err


def test_minimal_stored_trace_renders(tmp_path, capsys):
    trace = {"charts": [{"id": "root", "generators": ["x^2 + y*z"]},
                        {"id": "root/x", "generators": ["x + y*z"],
                         "chart_var": "x"}],
             "events": [{"chart": "root",
                         "center": {"variables": ["x", "y", "z"]},
                         "created": ["root/x"]}]}
    path = tmp_path / "stored.json"
    path.write_text(json.dumps({"trace": trace}))
    assert main(["export", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        'digraph resolution {\n'
        '  node [shape=box];\n'
        '  "root" [label="root\\nx^2 + y*z"];\n'
        '  "root/x" [label="root/x\\nx + y*z"];\n'
        '  "root" -> "root/x" [label="V(x, y, z) / x"];\n'
        '}\n')


@pytest.mark.parametrize("variables, field", [
    (["x", "y"], {"kind": "rationals"}),
    (["x", "y"], {"kind": "rational_functions", "characteristic": 3,
                  "parameter": "t"}),
    (["x", "y", "z"], {"kind": "rationals"}),
])
def test_non_reduced_input_is_a_scope_error(tmp_path, capsys, variables,
                                            field):
    # V(y) is the maximal-order locus of y^2 and a whole component of it
    job = {"field": field, "variables": variables, "generators": ["y^2"]}
    code, out, err = run(tmp_path, capsys, "resolve", job)
    assert code == EXIT_SCOPE, err
    trace = json.loads(out)["trace"]
    assert trace["status"] == "scope_error"
    assert "V(y)" in trace["error"] and "not reduced" in trace["error"]
    assert trace["steps"] == 0


# the regular surface y with a stratum component V(z) along which y has
# order 0: choosing a center from it would blow up a smooth point
OFF_LOCUS_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["z", "a", "y"],
    "generators": ["y"],
    "stratum": [{"variables": ["z", "a", "y"], "label": 0, "original": True},
                {"variables": ["z"], "label": 1}],
}


@pytest.mark.parametrize("command", ["resolve", "export", "blowup",
                                     "invariant", "polyhedron"])
def test_stratum_outside_the_maximal_order_locus_is_refused(
        tmp_path, capsys, command):
    code, _out, err = run(tmp_path, capsys, command, OFF_LOCUS_JOB)
    assert code == EXIT_INPUT
    assert "jobspec.stratum[1].variables" in err
    assert "order 0 along V(z) but 1 at the origin" in err


def test_stratum_on_the_maximal_order_locus_is_accepted(tmp_path, capsys):
    job = dict(SURFACE_JOB, stratum=[
        {"variables": ["x", "y"], "label": 0},
        {"variables": ["x", "z"], "label": 0}])
    code, out, err = run(tmp_path, capsys, "resolve", job)
    assert code == EXIT_OK, err
    assert json.loads(out)["monotone"]["ok"]


# over F2 the minimal-label stratum component of this chart is cut by a
# non-coordinate condition, so its resolution ends in a scope error
F2_SCOPE_JOB = {
    "field": {"kind": "prime_field", "characteristic": 2},
    "variables": ["u1", "u2", "y"],
    "generators": ["y^4 + y^2 + u1^6 + u2^5"],
    "frame": {"u": ["u1", "u2"], "y": ["y"]},
}


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_of_a_resolution_ending_in_a_scope_error_exits_3(
        tmp_path, capsys, fmt):
    code, out, _err = run(tmp_path, capsys, "resolve", F2_SCOPE_JOB)
    assert code == EXIT_SCOPE
    error = json.loads(out)["trace"]["error"]
    path = tmp_path / "job.json"
    code = main(["export", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_SCOPE
    assert captured.out == ""
    assert captured.err == f"scope error: {error}\n"


@pytest.mark.parametrize("condition, message", [
    ("1", "is not irreducible"),
    ("0", "is zero"),
])
def test_constant_point_condition_is_an_input_error(tmp_path, capsys,
                                                    condition, message):
    job = {"field": {"kind": "prime_field", "characteristic": 2},
           "variables": ["x", "y", "z"], "generators": ["x^2 + y^3 + z^5"],
           "point": {"moves": {"x": {"root_of": condition}}}}
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_INPUT
    assert f"the condition for 'x' {message}" in err


F2_CUSP = {"field": {"kind": "prime_field", "characteristic": 2},
           "variables": ["x", "y", "z"], "generators": ["z^2 + y^3 + x^2*y^2"]}


@pytest.mark.parametrize("move", [
    {"root_of": "s^2+s+1"},
    {"root_of": "a^2+a+1", "name": "a"},
    {"root_of": "x^2+x+1", "name": "x"},
])
def test_a_root_of_condition_may_name_its_variable_freely(tmp_path, capsys,
                                                         move):
    reference = {"root_of": "x^2+x+1", "name": "x"}
    outputs = []
    for m in (move, reference):
        job = dict(F2_CUSP, point={"moves": {"x": m}})
        code, out, err = run(tmp_path, capsys, "analyze", job)
        assert code == EXIT_OK, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_degree_8_residue_extension_of_f97_is_located(tmp_path, capsys):
    job = {"field": {"kind": "prime_field", "characteristic": 97},
           "variables": ["x", "y", "z"], "generators": ["z^2 + y^3 + x^2*y^2"],
           "point": {"moves": {"x": {
               "root_of": "x^8+77*x^7+55*x^6+2*x^5+28*x^4+2*x^3+50*x^2+18*x+4",
               "name": "x"}}}}
    code, out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err
    assert json.loads(out)["generators"]


@pytest.mark.parametrize("condition, expected", [
    ("x^2+x+1", EXIT_OK),
    ("x^6+x+1", EXIT_OK),
    ("x^20+x^18+x^17+x^15+x^12+x^11+x^10+x^8+x^4+x+1", EXIT_SCOPE),
])
def test_only_small_residue_fields_are_searched_whole(tmp_path, capsys,
                                                      condition, expected):
    job = {"field": {"kind": "prime_field", "characteristic": 2},
           "variables": ["x", "y", "z"], "generators": ["z^2 + y^2*z + y^4"],
           "point": {"moves": {"x": {"root_of": condition, "name": "x"}}}}
    code, _out, err = run(tmp_path, capsys, "polyhedron", job)
    assert code == expected, err
    if expected == EXIT_SCOPE:
        assert "MAX_CHARACTERISTIC" in err


# ---------------------------------------------------------------------------
# reading the job, writing the report, parsing the command line
# ---------------------------------------------------------------------------

SMALL_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^3 + z^4"],
}


def job_file(tmp_path, job=SMALL_JOB):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_an_unwritable_report_path_is_an_input_error(tmp_path, capsys, target):
    output = tmp_path / "missing" / "out.json" if target == "missing directory" \
        else tmp_path
    code = main(["analyze", job_file(tmp_path), "-o", str(output)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert f"cannot write report file {str(output)!r}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_a_job_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(json.dumps(SMALL_JOB).encode("utf-16"))
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "the job document is not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


def test_a_job_on_stdin_that_is_not_utf8_is_an_input_error(capsys, monkeypatch):
    data = json.dumps(SMALL_JOB).encode("utf-16")
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(["analyze", "-"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "<stdin>: the job document is not UTF-8 text" in captured.err


def test_a_deeply_nested_job_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("[" * 100_000)
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "the job document nests too deeply" in captured.err
    assert "Traceback" not in captured.err


def test_the_cached_parser_answers_as_a_parser_built_per_call(tmp_path, capsys):
    """Consecutive in-process calls of different subcommands, a usage error
    and --help print the same and end with the same code whether the parser
    is built for each call or once."""
    job = job_file(tmp_path)
    calls = [["analyze", job], ["polyhedron", job], ["frobnicate", job],
             ["invariant", job], ["export", "--help"],
             ["export", job, "--format", "json"], ["analyze"], ["analyze", job]]

    def answers(fresh_parser):
        out = []
        for argv in calls:
            if fresh_parser:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as done:
                code = done.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    fresh = answers(True)
    assert answers(False) == fresh
    assert cli._parser() is cli._parser()
    assert [code for code, _out, _err in fresh] == [0, 0, 2, 0, 0, 0, 2, 0]
    assert fresh[2][2].startswith("usage: surfres")
    assert fresh[4][1].startswith("usage: surfres export")
    assert fresh[0] == fresh[-1]
