"""Property-based fuzzing of the CLI job schema.

Jobs for ``analyze``, ``invariant``, ``polyhedron``, ``blowup`` and
``resolve`` are drawn with malformed fields, variables, generator texts
(including huge exponents and coefficients), frames, boundaries, centers,
points and options.  Every job must end with exit 0, 2, 3 or 4, never with an
uncaught exception (a traceback and exit 1), and must give the same bytes when
run again.  A few jobs also run under ``python -O``.  The search is
derandomized and bounded, so the file runs the same examples every time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from surfres.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
EXIT_CODES = {0, 2, 3, 4}
COMMANDS = ("analyze", "invariant", "polyhedron", "blowup", "resolve")

# atoms at or over the size caps
HUGE = ["2^15000", "7" * 5000, "y^100000000000", "x^1000000", "99999^1000",
        "(x+y+z)^200", "3^1000", "x^1000", "((2^900)^900)", "(1 + x)^1000"]
MALFORMED_TEXT = ["", " ", "x^", "(x", "x)", "x**2", "x^-1", "x/y", "1/0",
                  "x @ y", "2^^3", "x^y", "-", "x^2.5", "1e5", "q"]
NAMES = ["x", "y", "z", "u1", "u2", "a", "t"]
VARIABLE_LISTS = [["x", "y", "z"], ["u1", "u2", "y"], ["x", "y"], ["z", "a", "y"]]


def mostly(valid, malformed):
    """``valid`` about 19 times in 20."""
    return st.sampled_from(range(20)).flatmap(
        lambda i: malformed if i == 0 else valid)


@functools.lru_cache(maxsize=None)
def texts(names: tuple[str, ...]):
    """Generator texts over the variable names; built once per name tuple,
    since building the recursive strategy costs more than drawing from it."""
    atoms = st.one_of(st.sampled_from(names), st.sampled_from(names),
                      st.integers(0, 12).map(str),
                      mostly(st.sampled_from(names), st.sampled_from(HUGE)))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "*"]), inner)
            .map(" ".join),
            st.tuples(inner, st.integers(0, 9)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(inner, mostly(st.integers(1, 3), st.just(0)))
            .map(lambda t: f"{t[0]}/{t[1]}"),
            inner.map(lambda s: f"-({s})"),
        ),
        max_leaves=6,
    )


fields = mostly(
    st.one_of(
        st.just({"kind": "rationals"}),
        st.sampled_from([2, 3, 5]).map(
            lambda p: {"kind": "prime_field", "characteristic": p}),
        st.sampled_from([2, 3]).map(
            lambda p: {"kind": "rational_functions", "characteristic": p,
                       "parameter": "t"})),
    st.one_of(
        st.integers(-10, 10**20).map(
            lambda p: {"kind": "prime_field", "characteristic": p}),
        st.sampled_from([{}, {"kind": "reals"}, "rationals", None, [],
                         {"kind": "prime_field", "characteristic": True},
                         {"kind": "rational_functions", "characteristic": 3,
                          "parameter": 7},
                         {"kind": "rational_functions", "characteristic": 2,
                          "parameter": "x"}])))
options = mostly(
    st.fixed_dictionaries(
        {"max_steps": st.integers(0, 4), "budget": st.integers(1, 8),
         "sigma_budget": st.integers(1, 4)},
        optional={"label_mode": st.sampled_from(["default", "fresh"])}),
    st.fixed_dictionaries(
        {"max_steps": st.sampled_from([-1, "2", None, 2.5, 3]),
         "budget": st.sampled_from([0, "5", True, 4]),
         "sigma_budget": st.sampled_from([0, [], 1.0, 2])},
        optional={"label_mode": st.sampled_from(["other", 1])})
    | st.sampled_from([[], "x"]))


@st.composite
def jobs(draw):
    variables = draw(mostly(
        st.sampled_from(VARIABLE_LISTS),
        st.one_of(st.lists(st.sampled_from(NAMES), max_size=4),
                  st.sampled_from([[1, 2], "xyz", None, ["x", "x"], ["x", 3],
                                   ["2x"], []]))))
    names = [v for v in variables if isinstance(v, str)] \
        if isinstance(variables, list) else []
    names = names or NAMES
    text = texts(tuple(names))
    job = {
        "field": draw(fields),
        "variables": variables,
        "generators": draw(mostly(
            st.lists(mostly(text, st.one_of(
                texts(tuple(NAMES)), st.sampled_from(MALFORMED_TEXT),
                st.sampled_from([5, None, ["x"], {"x": 1}]))),
                min_size=1, max_size=draw(mostly(st.just(1), st.just(2)))),
            st.sampled_from([[], "x^2", None]))),
        "options": draw(options),
    }
    def optional(key, valid, malformed):
        if draw(st.integers(0, 3)) == 0:
            job[key] = draw(mostly(valid, malformed))

    split = st.permutations(names).flatmap(
        lambda vs: st.integers(1, max(1, len(vs) - 1)).map(
            lambda k: (vs[:k], vs[k:])))
    frame = draw(split)
    optional("frame", st.just({"u": frame[0], "y": frame[1]}),
             st.sampled_from([{"u": "u1"}, [], None, {"u": [1], "y": ["y"]},
                              {"u": ["q"], "y": names}]))
    optional("boundary",
             st.lists(st.fixed_dictionaries(
                 {"generator": st.sampled_from(frame[0] or names)},
                 optional={"status": st.sampled_from(["old", "new"]),
                           "birth": st.integers(0, 3)}),
                 max_size=2),
             st.sampled_from([{}, "u1", [None], [[]], [{"generator": 3}],
                              [{"generator": "x", "status": "bad"}],
                              [{"generator": "x", "birth": "0"}]]))
    optional("center",
             st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
             .map(lambda v: {"variables": v}),
             st.sampled_from([{"variables": "x"}, {}, [], {"variables": [1]},
                              {"variables": ["q"]},
                              {"variables": ["x", "y"], "kind": "blob"}]))
    optional("point",
             st.dictionaries(st.sampled_from(names), st.one_of(
                 st.integers(-3, 3), st.sampled_from(["-1", "1/2"])), max_size=2)
             .map(lambda m: {"moves": m}),
             st.sampled_from([{}, {"moves": []}, [], {"moves": {"x": "2^15000"}},
                              {"moves": {"x": True}}, {"moves": {"x": "x"}},
                              {"moves": {"x": {"root_of": "s^2+s+1"}}}]))
    optional("stratum",
             st.lists(st.fixed_dictionaries(
                 {"variables": st.lists(st.sampled_from(names), max_size=3,
                                        unique=True),
                  "label": st.integers(0, 2)},
                 optional={"conditions": st.lists(text, max_size=1),
                           "original": st.sampled_from([True, False, None])}),
                 max_size=2),
             st.sampled_from(["x", [None], {}, [{"variables": ["x"], "label": "0"}],
                              [{"variables": ["x"], "label": 0,
                                "original": "yes"}]]))
    optional("declared_points",
             st.dictionaries(st.sampled_from(["root", "root/x", "root/u1"]),
                             st.lists(st.dictionaries(st.sampled_from(names),
                                                      st.integers(-2, 2),
                                                      max_size=2),
                                      max_size=1),
                             max_size=1),
             st.sampled_from(["x", [None], {"root": {}}, {"root": [[]]},
                              {"root": [{"x": "q"}]}]))
    return job


def run_in_process(command: str, text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_optimised(command: str, text: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "surfres.cli", command, "-"],
        input=text, capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


SURFACE = {"field": {"kind": "rationals"}, "variables": ["x", "y", "z"],
           "generators": ["x^2 + y^9*z^10"], "options": {"max_steps": 4}}


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(COMMANDS), job=jobs())
@example(command="analyze",
         job=dict(SURFACE, generators=["x^2 + 2^15000*y^3 + z^5"]))
@example(command="analyze", job=dict(SURFACE, generators=[f"x^2 + {'7' * 5000}*y"]))
@example(command="resolve", job=dict(SURFACE, generators=["x^2 + y^100000000000 + z^3"]))
@example(command="polyhedron", job={
    "field": {"kind": "rationals"}, "variables": ["u1", "y"],
    "generators": [f"(y + {'7' * 199}*u1)^5 + y^30"],
    "frame": {"u": ["u1"], "y": ["y"]}, "options": {"budget": 4}})
@example(command="analyze", job=dict(SURFACE, field={
    "kind": "prime_field", "characteristic": 100000000000000000039}))
@example(command="invariant", job=dict(SURFACE, generators=["(x+y+z)^20"]))
def test_every_job_ends_with_a_documented_exit_code(command, job):
    text = json.dumps(job)
    first = run_in_process(command, text)
    assert first[0] in EXIT_CODES, first
    assert "Traceback" not in first[2]
    assert run_in_process(command, text) == first


@settings(max_examples=6, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(COMMANDS), job=jobs())
@example(command="resolve", job=SURFACE)
def test_jobs_under_python_O_match_the_plain_run(command, job):
    text = json.dumps(job)
    code, out, err = run_optimised(command, text)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    assert (code, out) == run_in_process(command, text)[:2]

