"""Malformed job entries exit 2, oversized expansions exit 3 and a broken
resolution law exits 4, each with a message and never with a traceback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from surfres import resolution_driver
from surfres.blowup_engine import NEAR, PermissibilityReport
from surfres.cli import EXIT_INPUT, EXIT_MONOTONE, EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import (
    MAX_PARSE_PRODUCT,
    FieldDescriptor,
    ScopeError,
    parse_polynomial,
)

SRC = Path(__file__).resolve().parents[1] / "src"

SURFACE_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^9*z^10"],
}

FRAMED_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["u1", "u2", "y"],
    "generators": ["y^2 + (u2 + u1)^3 + u1^7"],
    "frame": {"u": ["u1", "u2"], "y": ["y"]},
    "boundary": [{"generator": "u1"}, {"generator": "u2"}],
}

# resolving this surface compares delta before and after a very near point
# over a closed-point center, so the delta law is checked
DELTA_LAW_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["z^2 + x^3 + y^4"],
}


def run(tmp_path, capsys, argv_head, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main([argv_head, str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def stratum(**fields):
    return [dict({"variables": ["x"], "label": 0}, **fields)]


@pytest.mark.parametrize("job, where", [
    (dict(SURFACE_JOB, generators=[5]), "jobspec.generators"),
    (dict(SURFACE_JOB, stratum=stratum(conditions=[5])),
     "jobspec.stratum[0].conditions"),
    (dict(SURFACE_JOB, stratum=stratum(variables=[1])),
     "jobspec.stratum[0].variables"),
    (dict(SURFACE_JOB, stratum=stratum(variables=["w"])),
     "jobspec.stratum[0].variables"),
    (dict(SURFACE_JOB, stratum=stratum(label=True)),
     "jobspec.stratum[0].label"),
    (dict(SURFACE_JOB, stratum=stratum(cid="a")), "jobspec.stratum[0].cid"),
    (dict(SURFACE_JOB, stratum=stratum(original="yes")),
     "jobspec.stratum[0].original"),
    (dict(FRAMED_JOB, boundary=[{"generator": "u1", "birth": "a"}]),
     "jobspec.boundary[0].birth"),
    (dict(FRAMED_JOB, boundary=[{"generator": "u1", "cid": 1.5}]),
     "jobspec.boundary[0].cid"),
    (dict(FRAMED_JOB, frame={"u": ["u1", 2], "y": ["y"]}), "jobspec.frame.u"),
])
def test_malformed_job_entry_is_an_input_error_naming_it(
        tmp_path, capsys, job, where):
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_INPUT
    assert where in err


def test_malformed_center_variables_are_an_input_error(tmp_path, capsys):
    job = dict(SURFACE_JOB, center={"variables": ["x", 2]})
    code, _out, err = run(tmp_path, capsys, "blowup", job)
    assert code == EXIT_INPUT
    assert "jobspec.center.variables" in err


def test_well_formed_entries_are_still_accepted(tmp_path, capsys):
    job = dict(FRAMED_JOB, boundary=[
        {"generator": "u1", "birth": 2, "cid": 0},
        {"generator": "u2", "cid": 1}])
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err
    job = dict(SURFACE_JOB, stratum=stratum(cid=3, original=None,
                                            conditions=[]))
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err


def test_oversized_expansion_is_a_scope_error(tmp_path, capsys):
    job = dict(SURFACE_JOB, generators=["(x+y+z)^200"])
    start = time.perf_counter()
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert time.perf_counter() - start < 5
    assert code == EXIT_SCOPE
    assert "MAX_PARSE_PRODUCT" in err


def test_expansion_up_to_the_limit_is_exact():
    field = FieldDescriptor.rationals()
    f = parse_polynomial("(x+y+z)^6*(x-y)^3", field, ("x", "y", "z"))
    g = parse_polynomial("(x+y+z)^2", field, ("x", "y", "z"))
    assert f == (g * g * g) * parse_polynomial("(x-y)^3", field, ("x", "y", "z"))
    assert parse_polynomial("(x+y)^0", field, ("x", "y")) \
        == parse_polynomial("1", field, ("x", "y"))
    n = int(MAX_PARSE_PRODUCT ** 0.5) + 1
    text = "(" + "+".join(f"x^{i}" for i in range(n)) + ")"
    with pytest.raises(ScopeError):
        parse_polynomial(text + "^2", field, ("x",))
    with pytest.raises(ScopeError):
        parse_polynomial(text + "*" + text, field, ("x",))


def test_broken_delta_law_exits_4(tmp_path, capsys, monkeypatch):
    code, _out, err = run(tmp_path, capsys, "resolve", DELTA_LAW_JOB)
    assert code == EXIT_OK, err
    monkeypatch.setattr(resolution_driver, "_plain_delta", lambda chart: 5)
    code, out, err = run(tmp_path, capsys, "resolve", DELTA_LAW_JOB)
    assert code == EXIT_MONOTONE
    assert resolution_driver.LAW_DELTA_DROPS_BY_ONE in err
    assert out == ""


def test_broken_delta_law_exits_4_under_optimisation(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(DELTA_LAW_JOB))
    script = (
        "import sys\n"
        "from surfres import cli, resolution_driver\n"
        "resolution_driver._plain_delta = lambda chart: 5\n"
        "sys.exit(cli.main(['resolve', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_MONOTONE, done.stderr
    assert resolution_driver.LAW_DELTA_DROPS_BY_ONE in done.stderr
    assert "Traceback" not in done.stderr


# Each breaker takes a setattr and forces one law of the resolution loop to
# fail on SURFACE_JOB, through a module-level name of the driver.

def classify_every_point_near(set_attr):
    # a near point in a chart of a directrix variable
    set_attr(resolution_driver, "classify_point", lambda parent, child: NEAR)


def make_depth_two_components_original(set_attr):
    # no component is original one blow-up down, every one is two down
    label = resolution_driver._label_components

    def relabel(chart, fresh, label_mode, reset):
        original = chart.chart_id.count("/") >= 2
        return tuple(replace(c, original=original)
                     for c in label(chart, fresh, label_mode, reset))
    set_attr(resolution_driver, "_label_components", relabel)


def fail_every_permissibility_check(set_attr):
    set_attr(resolution_driver, "permissible_check",
             lambda chart, center: PermissibilityReport(False, ("forced",)))


BREAKERS = {
    resolution_driver.LAW_DIRECTRIX_DROPS: classify_every_point_near,
    resolution_driver.LAW_NO_ORIGINAL_REAPPEARS:
        make_depth_two_components_original,
    resolution_driver.LAW_NEW_COMPONENTS_PERMISSIBLE:
        fail_every_permissibility_check,
}


@pytest.mark.parametrize("law", sorted(BREAKERS))
def test_broken_law_exits_4(tmp_path, capsys, monkeypatch, law):
    code, _out, err = run(tmp_path, capsys, "resolve", SURFACE_JOB)
    assert code == EXIT_OK, err
    BREAKERS[law](monkeypatch.setattr)
    code, out, err = run(tmp_path, capsys, "resolve", SURFACE_JOB)
    assert code == EXIT_MONOTONE
    assert law in err
    assert out == ""


@pytest.mark.parametrize("law", sorted(BREAKERS))
def test_broken_law_exits_4_under_optimisation(tmp_path, law):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(SURFACE_JOB))
    script = (
        "import sys\n"
        "from surfres import cli\n"
        "from test_cli_guards import BREAKERS\n"
        "BREAKERS[sys.argv[2]](setattr)\n"
        "sys.exit(cli.main(['resolve', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(path), law],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_MONOTONE, done.stderr
    assert law in done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
