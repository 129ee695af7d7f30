"""End-to-end tests of the command-line front end."""

from __future__ import annotations

import io
import json
from collections import Counter

import pytest

from surfres import blowup_engine, cli
from surfres.blowup_engine import COORDINATE_CURVE, Center
from surfres.cli import EXIT_INPUT, EXIT_MONOTONE, EXIT_OK, EXIT_SCOPE, main

SURFACE_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^9*z^10"],
}

WHIRL_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["u1", "u2", "y"],
    "generators": ["y^2 + (u2 + u1)^3 + u1^7"],
    "frame": {"u": ["u1", "u2"], "y": ["y"]},
    "boundary": [
        {"generator": "u1", "status": "new", "birth": 0},
        {"generator": "u2", "status": "new", "birth": 0},
    ],
    "stratum": [{"variables": ["u1", "u2", "y"], "label": 1,
                 "original": False}],
}

THREEFOLD_JOB = {
    "field": {"kind": "prime_field", "characteristic": 2},
    "variables": ["t", "x", "y", "z"],
    "generators": ["t^2 + x*y^2 + z^3 + x^5*y"],
    "frame": {"u": ["x", "y", "z"], "y": ["t"]},
}

REGULAR_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["y"],
}


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect=EXIT_OK):
    code, out, err = run_cli(capsys, argv)
    assert code == expect, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# analyze / invariant
# ---------------------------------------------------------------------------


def test_analyze_reports_orders_and_case(tmp_path, capsys):
    path = write_job(tmp_path, SURFACE_JOB)
    report = run_json(capsys, ["analyze", path])
    assert report["nu_star"] == [2]
    assert report["e"] == 2
    assert report["e_O"] == 2
    assert report["old_components"] == 0
    assert report["case"] == "III"
    assert report["regular"] is False
    assert report["generators"] == ["x^2 + y^9*z^10"]


def test_invariant_on_the_two_divisor_chart(tmp_path, capsys):
    path = write_job(tmp_path, WHIRL_JOB)
    report = run_json(capsys, ["invariant", path])
    assert report["case"] == "IV"
    assert report["iota0"] == [[2], 0, 2, 2]
    assert report["iota_c"] == [[0], 0, 0, 0, 0, 0]
    assert report["iota_poly"] == ["3/2", "3/2", "7/3", 0]
    assert "note" not in report


def test_invariant_on_a_regular_chart_says_finished(tmp_path, capsys):
    path = write_job(tmp_path, REGULAR_JOB)
    report = run_json(capsys, ["invariant", path])
    assert report["iota0"][0] == [1]
    assert report["iota_c"] == [[0], 0, 0, 0, 0, 0]
    assert report["iota_poly"] == [0, 0, 0, 0]
    assert report["note"] == "resolution process is finished"


# ---------------------------------------------------------------------------
# polyhedron
# ---------------------------------------------------------------------------


def test_polyhedron_vertices_delta_and_sigma(tmp_path, capsys):
    path = write_job(tmp_path, WHIRL_JOB)
    report = run_json(capsys, ["polyhedron", path])
    assert report["status"] == "minimal"
    assert report["vertices"] == [[0, "3/2"], ["3/2", 0]]
    assert report["delta"] == "3/2"
    assert report["sigma"]["side1"] == "7/3"
    assert report["faces"]["side1"] == {
        "alpha": 0, "beta": "3/2", "gamma": "3/2", "s": 1}


def test_polyhedron_budget_option_reports_exhaustion(tmp_path, capsys):
    job = {
        "field": {"kind": "prime_field", "characteristic": 2},
        "variables": ["u1", "u2", "y"],
        "generators": ["y^4 + y^2 + u1^6 + u2^5"],
        "frame": {"u": ["u1", "u2"], "y": ["y"]},
        "options": {"budget": 5},
    }
    path = write_job(tmp_path, job)
    report = run_json(capsys, ["polyhedron", path])
    assert report["status"] == "budget_exhausted"
    assert report["escape"]
    assert [3, 0] in report["solved_vertices"]
    assert [0, "5/2"] in report["stable_vertices"]


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def test_blowup_classifies_all_children(tmp_path, capsys):
    path = write_job(tmp_path, SURFACE_JOB)
    report = run_json(capsys, ["blowup", path])
    assert report["center"] == {"variables": ["x", "y", "z"],
                                "kind": "closed_point"}
    by_var = {ch["chart_var"]: ch for ch in report["children"]}
    assert by_var["x"]["classification"] == "dropped"
    assert by_var["y"]["classification"] == "very_O_near"
    assert by_var["z"]["chart"]["generators"] == ["x^2 + y^9*z^17"]


def test_blowup_accepts_an_explicit_center(tmp_path, capsys):
    job = dict(SURFACE_JOB, center={"variables": ["x", "y"]})
    path = write_job(tmp_path, job)
    report = run_json(capsys, ["blowup", path])
    assert report["center"]["kind"] == "coordinate_curve"
    by_var = {ch["chart_var"]: ch for ch in report["children"]}
    assert set(by_var) == {"x", "y"}
    assert by_var["y"]["chart"]["generators"] == ["x^2 + y^7*z^10"]


def test_blowup_checks_the_center_it_picks_once(tmp_path, capsys,
                                                monkeypatch):
    checks = Counter()
    check = blowup_engine.permissible_check

    def counted(chart, center):
        checks[center] += 1
        return check(chart, center)

    monkeypatch.setattr(blowup_engine, "permissible_check", counted)
    job = dict(SURFACE_JOB, generators=["x^2 + y^3"])
    report = run_json(capsys, ["blowup", write_job(tmp_path, job)])
    assert report["center"] == {"variables": ["x", "y"],
                                "kind": "coordinate_curve"}
    assert checks == {Center(("x", "y"), COORDINATE_CURVE): 1}


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------


def test_resolve_surface_example(tmp_path, capsys):
    path = write_job(tmp_path, SURFACE_JOB)
    report = run_json(capsys, ["resolve", path])
    assert report["trace"]["status"] == "resolved"
    assert report["trace"]["steps"] <= 64
    assert report["monotone"]["ok"] is True
    assert report["monotone"]["checked"] > 0
    assert report["monotone"]["violations"] == []


def test_resolve_scope_error_exit_code(tmp_path, capsys):
    path = write_job(tmp_path, THREEFOLD_JOB)
    report = run_json(capsys, ["resolve", path], expect=EXIT_SCOPE)
    assert report["trace"]["status"] == "scope_error"
    assert report["trace"]["error"]


def test_resolve_monotone_failure_exit_code(tmp_path, capsys, monkeypatch):
    class Failing:
        ok = False
        checked = 1
        violations = ({"chart": "root/z"},)

    monkeypatch.setattr(cli, "check_monotone", lambda trace: Failing())
    path = write_job(tmp_path, SURFACE_JOB)
    report = run_json(capsys, ["resolve", path], expect=EXIT_MONOTONE)
    assert report["monotone"]["ok"] is False


def test_resolve_respects_label_mode_and_limits(tmp_path, capsys):
    job = dict(SURFACE_JOB,
               options={"max_steps": 2, "label_mode": "fresh"})
    path = write_job(tmp_path, job)
    report = run_json(capsys, ["resolve", path])
    assert report["trace"]["status"] == "step_limit"
    assert report["trace"]["label_mode"] == "fresh"
    assert report["trace"]["steps"] == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_renders_dot(tmp_path, capsys):
    job = dict(SURFACE_JOB, generators=["x^2 + y*z"])
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["export", path, "--format", "dot"])
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert "->" in out
    assert '\\n' in out  # node labels carry the generators


def test_export_renders_json(tmp_path, capsys):
    job = dict(SURFACE_JOB, generators=["x^2 + y*z"])
    path = write_job(tmp_path, job)
    report = run_json(capsys, ["export", path, "--format", "json"])
    assert report["status"] == "resolved"
    assert report["charts"][0]["id"] == "root"


def test_export_accepts_a_stored_trace(tmp_path, capsys):
    job = dict(SURFACE_JOB, generators=["x^2 + y*z"])
    path = write_job(tmp_path, job)
    stored_path = str(tmp_path / "stored.json")
    code, _, err = run_cli(
        capsys, ["resolve", path, "--output", stored_path])
    assert code == EXIT_OK, err
    code, out, _ = run_cli(capsys, ["export", stored_path])
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert '"root"' in out


# ---------------------------------------------------------------------------
# transport, determinism, errors
# ---------------------------------------------------------------------------


def test_reads_job_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SURFACE_JOB)))
    report = run_json(capsys, ["analyze", "-"])
    assert report["case"] == "III"


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_job(tmp_path, SURFACE_JOB)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert main(["resolve", path, "--output", out_a]) == EXIT_OK
    assert main(["resolve", path, "--output", out_b]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_emitted_polynomials_reparse_canonically(tmp_path, capsys):
    job = dict(SURFACE_JOB, generators=["z^10*y^9 + x^2"])
    path = write_job(tmp_path, job)
    report = run_json(capsys, ["analyze", path])
    assert report["generators"] == ["x^2 + y^9*z^10"]
    # feeding the canonical string back in reproduces it exactly
    job2 = dict(SURFACE_JOB, generators=report["generators"])
    report2 = run_json(capsys, ["analyze", write_job(tmp_path, job2, "r.json")])
    assert report2["generators"] == report["generators"]


def test_invalid_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": }')
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == EXIT_INPUT
    assert "line 1" in err


def test_unknown_field_kind_is_an_input_error(tmp_path, capsys):
    job = dict(SURFACE_JOB, field={"kind": "padic"})
    code, _, err = run_cli(capsys, ["analyze", write_job(tmp_path, job)])
    assert code == EXIT_INPUT
    assert "jobspec.field.kind" in err


def test_missing_generators_is_an_input_error(tmp_path, capsys):
    job = {"field": {"kind": "rationals"}, "variables": ["x"]}
    code, _, err = run_cli(capsys, ["analyze", write_job(tmp_path, job)])
    assert code == EXIT_INPUT
    assert "generators" in err


def test_unreadable_path_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT
    assert "cannot read" in err


def test_scope_exit_for_out_of_scope_analysis(tmp_path, capsys):
    # four-variable invariant needs a log-directrix dimension above 2
    path = write_job(tmp_path, THREEFOLD_JOB)
    code, _, err = run_cli(capsys, ["invariant", path])
    assert code == EXIT_SCOPE
    assert "scope error" in err
