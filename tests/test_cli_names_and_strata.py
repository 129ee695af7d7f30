"""Two CLI boundaries: names the polynomial text cannot spell, and a maximal
stratum that cannot be computed.

* Every variable, and the parameter of F_p(t), must be a name of the
  polynomial grammar (a letter or '_', then letters, digits or '_').  A
  variable named ``2x`` would print ``y^2 + 2x*z^3``, which reads back as
  y^2 + 2*x*z^3, so such a job exits 2 before anything is computed.
* When the maximal stratum of a job's chart cannot be computed, every
  command that reads it (``analyze``, ``invariant``, ``blowup`` without a
  center, ``resolve`` and ``export``) exits 3 with the reason, while
  ``polyhedron`` and ``blowup`` with a center, which do not read it, still
  exit 0.  The stratum is computed once: the error a reading command
  reports is the one met when the chart was built.
* A frameless ``polyhedron`` job whose directrix is not a coordinate
  subspace, so that no frame can be inferred, exits 3 and asks for a
  frame; a job that supplies a frame with three u-variables exits 2.
"""

from __future__ import annotations

import json

import pytest

from surfres import cli
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main


def run(tmp_path, capsys, args, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main([args[0], str(path), *args[1:]])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


# -- names ---------------------------------------------------------------------

CUSP_AT_A_POINT = {
    "field": {"kind": "rationals"},
    "variables": ["2x", "y", "z"],
    "generators": ["y^2 + z^3"],
    "center": {"variables": ["2x", "y", "z"]},
}


def rational_function_job(parameter):
    return {
        "field": {"kind": "rational_functions", "characteristic": 3,
                  "parameter": parameter},
        "variables": ["x", "y", "z"],
        "generators": ["x^2 + y^3"],
    }


def test_a_variable_the_text_cannot_spell_is_refused(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, ("blowup",), CUSP_AT_A_POINT)
    assert code == EXIT_INPUT and out == ""
    assert "'2x' cannot be written in polynomial text" in err


@pytest.mark.parametrize("parameter", ["1", "t t", "x+1"])
def test_a_parameter_the_text_cannot_spell_is_refused(tmp_path, capsys,
                                                      parameter):
    code, out, err = run(tmp_path, capsys, ("analyze",),
                         rational_function_job(parameter))
    assert code == EXIT_INPUT and out == ""
    assert f"{parameter!r} cannot be written in polynomial text" in err


def test_names_the_text_can_spell_are_accepted(tmp_path, capsys):
    job = dict(CUSP_AT_A_POINT, variables=["_x2", "y", "z"],
               center={"variables": ["_x2", "y", "z"]})
    assert run(tmp_path, capsys, ("blowup",), job)[0] == EXIT_OK
    code, out, _err = run(tmp_path, capsys, ("analyze",),
                          rational_function_job("t_1"))
    assert code == EXIT_OK and json.loads(out)["command"] == "analyze"


# -- a stratum that cannot be computed ------------------------------------------

# its maximal-order locus is V(x + z), which has no coordinate part
NO_COORDINATE_PART = {
    "field": {"kind": "prime_field", "characteristic": 2},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + z^2"],
}
# stratum computation needs a principal generator
TWO_GENERATORS = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^3 + z^5", "y^2 + x*z"],
    "frame": {"u": ["z"], "y": ["x", "y"]},
}
JOBS = {
    "no coordinate part": (NO_COORDINATE_PART,
                           "a maximal-order component has no coordinate part"),
    "no coordinate part, framed": (
        dict(NO_COORDINATE_PART, frame={"u": ["y", "z"], "y": ["x"]}),
        "a maximal-order component has no coordinate part"),
    "two generators": (TWO_GENERATORS, "supply the component list"),
}
READERS = [("analyze",), ("invariant",), ("blowup",), ("resolve",),
           ("export", "--format", "json"), ("export", "--format", "dot")]


@pytest.mark.parametrize("args", READERS, ids=" ".join)
@pytest.mark.parametrize("name", JOBS)
def test_every_command_that_reads_the_stratum_gives_its_scope_error(
        tmp_path, capsys, name, args):
    job, reason = JOBS[name]
    code, out, err = run(tmp_path, capsys, args, job)
    assert code == EXIT_SCOPE
    assert reason in err if args[0] != "resolve" else (
        reason in json.loads(out)["trace"]["error"])


@pytest.mark.parametrize("name", JOBS)
def test_blowup_with_a_center_does_not_read_the_stratum(tmp_path, capsys,
                                                        name):
    job = dict(JOBS[name][0], center={"variables": ["x", "y", "z"]})
    code, out, _err = run(tmp_path, capsys, ("blowup",), job)
    assert code == EXIT_OK and len(json.loads(out)["children"]) == 3


# the frameless job gets no frame, which ``polyhedron`` refuses (below)
@pytest.mark.parametrize("name", ["no coordinate part, framed",
                                  "two generators"])
def test_polyhedron_does_not_read_the_stratum(tmp_path, capsys, name):
    code, out, _err = run(tmp_path, capsys, ("polyhedron",), JOBS[name][0])
    assert code == EXIT_OK and json.loads(out)["command"] == "polyhedron"


@pytest.fixture
def stratum_calls(monkeypatch):
    """The chart id of every ``max_stratum`` call the CLI makes."""
    calls = []
    max_stratum = cli.max_stratum

    def counted(chart, *rest):
        calls.append(chart.chart_id)
        return max_stratum(chart, *rest)
    monkeypatch.setattr(cli, "max_stratum", counted)
    return calls


@pytest.mark.parametrize("args", [("analyze",), ("invariant",), ("blowup",)],
                         ids=" ".join)
@pytest.mark.parametrize("name", JOBS)
def test_the_stratum_is_computed_once(tmp_path, capsys, stratum_calls,
                                      args, name):
    assert run(tmp_path, capsys, args, JOBS[name][0])[0] == EXIT_SCOPE
    assert stratum_calls == ["root"]


def test_a_located_point_gets_its_own_stratum(tmp_path, capsys,
                                              stratum_calls):
    """The origin's stratum fails; the point y = 1 is another chart, whose
    stratum is computed there (and fails the same way)."""
    job = dict(NO_COORDINATE_PART, point={"moves": {"y": 1}})
    code, _out, err = run(tmp_path, capsys, ("analyze",), job)
    assert code == EXIT_SCOPE and JOBS["no coordinate part"][1] in err
    assert stratum_calls == ["root", "root@y"]


# -- a frameless polyhedron job -------------------------------------------------

NO_FRAME = {
    "Q (x+y)^2 + z^3": dict(NO_COORDINATE_PART, field={"kind": "rationals"},
                           generators=["(x+y)^2 + z^3"]),
    "F2 x^2 + z^2": NO_COORDINATE_PART,
}


@pytest.mark.parametrize("name", NO_FRAME)
def test_a_frameless_polyhedron_without_a_coordinate_directrix_is_out_of_scope(
        tmp_path, capsys, name):
    code, out, err = run(tmp_path, capsys, ("polyhedron",), NO_FRAME[name])
    assert code == EXIT_SCOPE and out == ""
    assert "no frame could be inferred" in err
    assert "supply a frame" in err


@pytest.mark.parametrize("name", NO_FRAME)
def test_a_supplied_frame_with_three_u_variables_is_an_input_error(
        tmp_path, capsys, name):
    job = dict(NO_FRAME[name], frame={"u": ["x", "y", "z"], "y": []})
    code, out, err = run(tmp_path, capsys, ("polyhedron",), job)
    assert code == EXIT_INPUT and out == ""
    assert "polyhedron invariants need |u| <= 2, got 3" in err
