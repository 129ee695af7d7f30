"""Malformed options, moves, boundaries, strata, declared points and stored
traces end in exit 2 with a message;
the center-selection fallback resolves jobs whose stratum curve is not a
valid center shape."""

from __future__ import annotations

import io
import json
import sys

import pytest

from surfres import cli
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import FieldDescriptor, InputError, parse_polynomial
from surfres.resolution_driver import root_chart

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


def moved_job(base: dict, moves: dict) -> dict:
    return dict(base, point={"moves": moves})


def declared_job(value) -> dict:
    return dict(SURFACE_JOB, declared_points={"root/z": [{"y": value}]})


@pytest.mark.parametrize("command", ["analyze", "invariant"])
def test_string_and_integer_moves_give_identical_reports(
        tmp_path, capsys, command):
    reports = []
    for value in ("-1", -1):
        job = moved_job(SHIFTED_JOB, {"x": value})
        code, out, err = run(tmp_path, capsys, command, job)
        assert code == EXIT_OK, err
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["command"] == command


def test_string_and_integer_declared_points_give_identical_reports(
        tmp_path, capsys):
    reports = []
    for value in ("1", 1):
        job = declared_job(value)
        code, out, err = run(tmp_path, capsys, "resolve", job)
        assert code == EXIT_OK, err
        reports.append(out)
    assert reports[0] == reports[1]
    points = [rec["point"] for ev in json.loads(reports[0])["trace"]["events"]
              for rec in ev["records"]]
    assert "y" in points


NON_CONSTANT_MOVES = ["x", "1 + y", "1/2*z"]


@pytest.mark.parametrize("value", NON_CONSTANT_MOVES)
def test_non_constant_move_is_an_input_error(tmp_path, capsys, value):
    job = moved_job(SHIFTED_JOB, {"x": value})
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
    ({"charts": [{"id": "a", "generators": []}],
      "events": [{"chart": "zz", "center": {"variables": []},
                  "created": ["a"]}]},
     "jobspec.trace.events[0].chart: unknown chart 'zz'"),
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


# V(y) twice, by name in a frameless job and by proportional generators
# (y and 2*y) in a framed one: one divisor listed twice is refused, where it
# was counted as two old components
REPEATED_DIVISORS = {
    "frameless": dict(SURFACE_JOB, boundary=[{"generator": "y"},
                                             {"generator": "y"}]),
    "framed": dict(SURFACE_JOB, frame={"u": ["y", "z"], "y": ["x"]},
                   boundary=[{"generator": "y", "status": "old"},
                             {"generator": "z", "status": "old"},
                             {"generator": "2*y", "status": "old"}]),
}
CHART_COMMANDS = ["analyze", "polyhedron", "invariant", "blowup", "resolve"]


@pytest.mark.parametrize("command", CHART_COMMANDS)
@pytest.mark.parametrize("kind, first, second", [
    ("frameless", 0, 1), ("framed", 0, 2)])
def test_a_boundary_listing_one_divisor_twice_is_refused(
        tmp_path, capsys, command, kind, first, second):
    code, out, err = run(tmp_path, capsys, command, REPEATED_DIVISORS[kind])
    assert (code, out) == (EXIT_INPUT, "")
    assert (f"jobspec.boundary[{second}]: names the same divisor as "
            f"jobspec.boundary[{first}]") in err


# one stratum component listed twice: V(x, y, z) with its variables in
# another order, and V(x) cut by the same conditions in another order.  The
# first was read as two components (Case III) by ``analyze``, and made
# ``invariant`` and ``resolve`` exit 3
E8_STRATA = {
    "closed point": [{"variables": ["x", "y", "z"], "label": 0},
                     {"variables": ["z", "y", "x"], "label": 0}],
    "conditions": [{"variables": ["x"], "label": 0, "conditions": ["y", "z"]},
                   {"variables": ["x"], "label": 1, "conditions": ["z", "y"]}],
}


@pytest.mark.parametrize("command", CHART_COMMANDS + ["export"])
@pytest.mark.parametrize("kind", sorted(E8_STRATA))
def test_a_stratum_listing_one_component_twice_is_refused(
        tmp_path, capsys, command, kind):
    job = dict(SURFACE_JOB, generators=["x^2 + y^3 + z^5"],
               stratum=E8_STRATA[kind])
    code, out, err = run(tmp_path, capsys, command, job)
    assert (code, out) == (EXIT_INPUT, "")
    assert ("jobspec.stratum[1]: names the same component as "
            "jobspec.stratum[0]") in err


def test_stratum_entries_with_other_conditions_are_two_components(
        tmp_path, capsys):
    job = dict(SURFACE_JOB, stratum=[
        {"variables": ["x"], "label": 0, "conditions": ["y"]},
        {"variables": ["x"], "label": 0, "conditions": ["z"]}])
    code, out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err
    assert json.loads(out)["case"] == "III"  # more than one component


def test_root_chart_refuses_a_repeated_boundary_name():
    f = parse_polynomial("x^2 + y^3*z^4", FieldDescriptor.rationals(),
                         ("x", "y", "z"))
    assert len(root_chart(f, ("y", "z")).frame.old_components()) == 2
    with pytest.raises(InputError, match="'y' is repeated"):
        root_chart(f, ("y", "z", "y"))


# a declared point is compared with its chart's parent, so it sits on a
# chart that a blow-up creates: "root/" and chart variables, "/" between
@pytest.mark.parametrize("key", [
    "root", "nonexistent", "root/u1", "root//z", "root/z/", "/z", "root/z/w"])
def test_a_declared_point_on_a_chart_no_blow_up_creates_is_refused(
        tmp_path, capsys, key):
    job = dict(SURFACE_JOB, declared_points={key: [{"y": 1}]})
    code, out, err = run(tmp_path, capsys, "resolve", job)
    assert (code, out) == (EXIT_INPUT, "")
    assert f"jobspec.declared_points.{key}: no blow-up creates this chart" \
        in err


def test_declared_points_of_a_chart_that_are_not_a_list_are_refused(
        tmp_path, capsys):
    job = dict(SURFACE_JOB, declared_points={"root/z": {"y": 1}})
    code, out, err = run(tmp_path, capsys, "resolve", job)
    assert (code, out) == (EXIT_INPUT, "")
    assert "jobspec.declared_points.root/z: expected a list" in err


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


# C = V(x, 1 + y) misses the origin: it was read as a Case III component
MISSING_COMPONENT_JOB = {
    "field": {"kind": "rationals"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^3*z^4"],
    "stratum": [{"variables": ["x", "y"], "label": 0},
                {"variables": ["x"], "label": 0, "conditions": ["y", "1 + y"]}],
}


@pytest.mark.parametrize("command", CHART_COMMANDS + ["export"])
def test_a_stratum_component_that_misses_the_origin_is_refused(
        tmp_path, capsys, command):
    code, out, err = run(tmp_path, capsys, command, MISSING_COMPONENT_JOB)
    assert (code, out) == (EXIT_INPUT, "")
    assert ("jobspec.stratum[1].conditions[1]: 1 + y does not vanish at the "
            "chart origin") in err


def test_a_stratum_component_through_the_origin_is_accepted(tmp_path, capsys):
    component = {"variables": ["x"], "label": 0, "conditions": ["1 + y"]}
    # the move y <- y - 1 turns 1 + y into y, so C passes the new origin
    moved = dict(MISSING_COMPONENT_JOB, stratum=[component],
                 point={"moves": {"y": -1}})
    through = dict(MISSING_COMPONENT_JOB,
                   stratum=[dict(component, conditions=["y"])])
    for job in (moved, through):
        code, _out, err = run(tmp_path, capsys, "analyze", job)
        assert code == EXIT_OK, err


# a condition that vanishes on its component's variables cuts nothing out
# of it: with x or x*y, V(x, y) was read as a Case III cut, and 0 gave I_C a
# zero generator
@pytest.mark.parametrize("condition", ["x", "x*y", "0"])
@pytest.mark.parametrize("command", CHART_COMMANDS + ["export"])
def test_a_condition_vanishing_on_its_component_is_refused(
        tmp_path, capsys, command, condition):
    job = dict(MISSING_COMPONENT_JOB, stratum=[
        {"variables": ["x", "y"], "label": 0, "conditions": [condition]}])
    code, out, err = run(tmp_path, capsys, command, job)
    assert (code, out) == (EXIT_INPUT, "")
    assert (f"jobspec.stratum[0].conditions[0]: {condition} vanishes on "
            "V(x, y)") in err


def test_a_framed_boundary_status_other_than_old_or_new_is_refused(
        tmp_path, capsys):
    job = dict(SURFACE_JOB, frame={"u": ["y", "z"], "y": ["x"]},
               boundary=[{"generator": "y", "status": "older"}])
    code, out, err = run(tmp_path, capsys, "analyze", job)
    assert (code, out) == (EXIT_INPUT, "")
    assert "jobspec.boundary[0].status: expected 'old' or 'new'" in err


def test_a_frameless_boundary_divisor_that_is_no_variable_is_refused(
        tmp_path, capsys):
    job = dict(SURFACE_JOB, boundary=[{"generator": "y+z"}])
    code, out, err = run(tmp_path, capsys, "analyze", job)
    assert (code, out) == (EXIT_INPUT, "")
    assert "jobspec.boundary[0].generator: 'y+z' is not a variable" in err


@pytest.mark.parametrize("entry", [
    {"generator": "y", "status": "new"}, {"generator": "y", "birth": 0},
    {"generator": "y", "cid": 0}, {"generator": "y", "status": "bogus"}])
@pytest.mark.parametrize("command", CHART_COMMANDS)
def test_a_frameless_boundary_entry_needing_a_frame_is_refused(
        tmp_path, capsys, command, entry):
    job = dict(SURFACE_JOB, boundary=[{"generator": "z"}, entry])
    code, out, err = run(tmp_path, capsys, command, job)
    assert (code, out) == (EXIT_INPUT, "")
    assert "jobspec.boundary[1]: " in err
    assert "need a frame" in err


def test_a_frameless_old_boundary_entry_is_accepted(tmp_path, capsys):
    job = dict(SURFACE_JOB, boundary=[{"generator": "y", "status": "old"}])
    code, out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_OK, err
    assert (json.loads(out)["old_components"],
            json.loads(out)["new_components"]) == (1, 0)


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


F2_SURFACE = {"field": {"kind": "prime_field", "characteristic": 2},
              "variables": ["x", "y", "z"], "generators": ["x^2 + y^3 + z^5"]}
CONSTANT_CONDITIONS = [("1", "is not irreducible"), ("0", "is zero")]


@pytest.mark.parametrize("condition, message", CONSTANT_CONDITIONS)
def test_constant_point_condition_is_an_input_error(tmp_path, capsys,
                                                    condition, message):
    job = moved_job(F2_SURFACE, {"x": {"root_of": condition}})
    code, _out, err = run(tmp_path, capsys, "analyze", job)
    assert code == EXIT_INPUT
    assert f"the condition for 'x' {message}" in err


F2_CUSP = {"field": {"kind": "prime_field", "characteristic": 2},
           "variables": ["x", "y", "z"], "generators": ["z^2 + y^3 + x^2*y^2"]}


ROOT_OF_MOVES = [
    {"root_of": "s^2+s+1"},
    {"root_of": "a^2+a+1", "name": "a"},
    {"root_of": "x^2+x+1", "name": "x"},
]
ROOT_OF_REFERENCE = {"root_of": "x^2+x+1", "name": "x"}


@pytest.mark.parametrize("move", ROOT_OF_MOVES)
def test_a_root_of_condition_may_name_its_variable_freely(tmp_path, capsys,
                                                         move):
    outputs = []
    for m in (move, ROOT_OF_REFERENCE):
        job = moved_job(F2_CUSP, {"x": m})
        code, out, err = run(tmp_path, capsys, "analyze", job)
        assert code == EXIT_OK, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


F97_DEGREE_8_JOB = moved_job(
    {"field": {"kind": "prime_field", "characteristic": 97},
     "variables": ["x", "y", "z"], "generators": ["z^2 + y^3 + x^2*y^2"]},
    {"x": {"root_of": "x^8+77*x^7+55*x^6+2*x^5+28*x^4+2*x^3+50*x^2+18*x+4",
           "name": "x"}})


def test_a_degree_8_residue_extension_of_f97_is_located(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "analyze", F97_DEGREE_8_JOB)
    assert code == EXIT_OK, err
    assert json.loads(out)["generators"]


F2_SEARCHED = {"field": {"kind": "prime_field", "characteristic": 2},
               "variables": ["x", "y", "z"],
               "generators": ["z^2 + y^2*z + y^4"]}
SEARCHED_CONDITIONS = [
    ("x^2+x+1", EXIT_OK),
    ("x^6+x+1", EXIT_OK),
    ("x^20+x^18+x^17+x^15+x^12+x^11+x^10+x^8+x^4+x+1", EXIT_SCOPE),
]


@pytest.mark.parametrize("condition, expected", SEARCHED_CONDITIONS)
def test_only_small_residue_fields_are_searched_whole(tmp_path, capsys,
                                                      condition, expected):
    job = moved_job(F2_SEARCHED, {"x": {"root_of": condition, "name": "x"}})
    code, _out, err = run(tmp_path, capsys, "polyhedron", job)
    assert code == expected, err
    if expected == EXIT_SCOPE:
        assert "MAX_CHARACTERISTIC" in err


@pytest.mark.parametrize("command, job", [
    ("analyze", moved_job(dict(F2_CUSP, variables=["s", "y", "z"],
                               generators=["s^2 + y^3 + z^5 + s*y^2"]),
                          {"y": {"root_of": "a^2+a+1", "name": "a"}})),
    ("resolve", dict(F2_CUSP, variables=["x", "y", "s"],
                     generators=["x^2 + y^3 + s^5"],
                     declared_points={"root/s": [
                         {"y": {"root_of": "y^2+y+1", "name": "y"}}]})),
], ids=["point", "declared_points"])
def test_a_residue_generator_named_like_a_variable_is_refused(
        tmp_path, capsys, command, job):
    # the generator s of F_2[s]/(s^2+s+1) would print like the variable s
    code, out, err = run(tmp_path, capsys, command, job)
    assert code == EXIT_INPUT, out
    assert "'s'" in err


F3T_CUSP = {
    "field": {"kind": "rational_functions", "characteristic": 3,
              "parameter": "y"},
    "variables": ["x", "y", "z"],
    "generators": ["x^2 + y^3 + z^5"],
}


@pytest.mark.parametrize("command, renamed_code", [
    ("analyze", EXIT_OK), ("invariant", EXIT_OK), ("resolve", EXIT_SCOPE)])
def test_a_field_parameter_named_like_a_variable_is_refused(
        tmp_path, capsys, command, renamed_code):
    # no generator text could name the parameter y: y parses as the variable
    code, out, err = run(tmp_path, capsys, command, F3T_CUSP)
    assert (code, out) == (EXIT_INPUT, "")
    assert "jobspec.field.parameter" in err and "'y'" in err
    renamed = dict(F3T_CUSP, field=dict(F3T_CUSP["field"], parameter="t"))
    assert run(tmp_path, capsys, command, renamed)[0] == renamed_code


def point_jobs() -> dict[str, tuple[str, dict]]:
    """The jobs of this module that locate a point through ``point`` or
    ``declared_points``, keyed by name and paired with their command; the
    refused name clashes above are left out."""
    jobs = {}
    for command in ("analyze", "invariant"):
        for value in ("-1", -1):
            jobs[f"{command} x={value!r}"] = (
                command, moved_job(SHIFTED_JOB, {"x": value}))
    for value in ("1", 1):
        jobs[f"declared y={value!r}"] = ("resolve", declared_job(value))
    for value in NON_CONSTANT_MOVES:
        jobs[f"non-constant x={value}"] = (
            "analyze", moved_job(SHIFTED_JOB, {"x": value}))
    for condition, _message in CONSTANT_CONDITIONS:
        jobs[f"constant root_of {condition}"] = (
            "analyze", moved_job(F2_SURFACE, {"x": {"root_of": condition}}))
    for move in ROOT_OF_MOVES:  # the reference move is among them
        jobs[f"cusp {json.dumps(move, sort_keys=True)}"] = (
            "analyze", moved_job(F2_CUSP, {"x": move}))
    jobs["f97 degree 8"] = ("analyze", F97_DEGREE_8_JOB)
    for condition, _code in SEARCHED_CONDITIONS:
        jobs[f"searched root_of {condition}"] = ("polyhedron", moved_job(
            F2_SEARCHED, {"x": {"root_of": condition, "name": "x"}}))
    return jobs


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


# Python's json module reads the words NaN, Infinity and -Infinity, and a
# number such as 1e400 as inf; a report written from them would not be JSON.
@pytest.mark.parametrize("text, message", [
    ('{"trace": {"charts": [], "events": [], "note": NaN, "big": 1e400}}',
     "NaN is not a JSON number"),
    ('{"trace": {"charts": [], "events": [], "big": 1e400}}',
     "the number 1e400 overflows a float"),
    ('{"trace": {"charts": [], "events": [], "big": -1e400}}',
     "the number -1e400 overflows a float"),
    ('{"trace": {"charts": [], "events": [], "big": Infinity}}',
     "Infinity is not a JSON number"),
    ('{"trace": {"charts": [], "events": [], "big": [-Infinity]}}',
     "-Infinity is not a JSON number"),
])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_a_stored_trace_with_a_non_finite_number_is_an_input_error(
        tmp_path, capsys, text, message, fmt):
    path = tmp_path / "stored.json"
    path.write_text(text)
    code = main(["export", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"input error: {path}: {message}\n"


def test_an_overflowing_option_is_an_input_error_naming_the_source(
        capsys, monkeypatch):
    text = json.dumps(SURFACE_JOB)[:-1] + ', "options": {"max_steps": 1e400}}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["resolve", "-"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err == (
        "input error: <stdin>: the number 1e400 overflows a float\n")


def test_finite_floats_still_reach_the_option_checks(capsys, monkeypatch):
    text = json.dumps(dict(SURFACE_JOB, options={"max_steps": 1.5e300}))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["resolve", "-"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "jobspec.options.max_steps" in captured.err


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
