"""``surfres polyhedron`` ends on a documented exit code, and the sigma
search does bounded work.

* On every chart of the four named traces, in the chart's own frame and in
  its directrix-adapted frame, at budget 8, ``polyhedron`` exits 0, 2 or 3.
  Among them is the two-divisor chart ``root/u1`` in its adapted frame,
  where sigma's re-preparation on side 2 ends ``budget_exhausted``: the
  polyhedron it compares is not final, so the sigma found so far is
  reported, marked uncertified.
* A straightening that leaves the first face's inverse slope unchanged
  after a complete re-preparation is a scope error naming the side; after
  an exhausted one, sigma is returned uncertified.
* A linear gcd of the face constraints has its root read off directly, so
  an 18-digit constant costs no divisor search; over Q a constraint of
  degree at least 2 whose end coefficients multiply to more than
  ``MAX_ROOT_SEARCH`` squared is a scope error.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from surfres import char_polyhedron as cp
from surfres.cli import EXIT_INPUT, EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    ScopeError,
    parse_polynomial,
    to_string,
)
from surfres.invariant import adapt_frame_to_forms
from surfres.local_frame import Frame, compute_directrix, initial_form
from surfres.resolution_driver import FRESH_LABELS, initial_chart, resolve

from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
XYZ = ("x", "y", "z")
U1U2Y = ("u1", "u2", "y")
FRAME_U12_Y = Frame(("u1", "u2"), ("y",))
RATIONALS = {"kind": "rationals"}
EXHAUSTED_SIDE_2 = "two-divisor-chart:root/u1:adapted"


def polyhedron_report(monkeypatch, capsys, job: dict) -> tuple[int, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(["polyhedron", "-"])
    return code, capsys.readouterr().out


def named_chart_jobs() -> dict[str, dict]:
    """The polyhedron job at budget 8 of every chart of the named traces,
    in its own frame and in the directrix-adapted frame."""
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    traces = {
        "surface-default": resolve(surface()),
        "surface-fresh": resolve(surface(), label_mode=FRESH_LABELS),
        "crossing-lines-cubic":
            resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")),
        "two-divisor-chart": resolve(whirl_chart()),
    }
    jobs = {}
    for name, trace in traces.items():
        for chart in trace.charts.values():
            frames = {"": (chart.generators, chart.frame)}
            initials = [initial_form(g, g.variables) for g in chart.generators]
            try:
                _r, forms = compute_directrix(initials, chart.frame)
                frames[":adapted"] = adapt_frame_to_forms(
                    list(chart.generators), chart.frame, forms)
            except (InputError, ScopeError):
                pass
            for suffix, (gens, frame) in frames.items():
                jobs[f"{name}:{chart.chart_id}{suffix}"] = {
                    "field": RATIONALS, "variables": list(chart.variables),
                    "generators": [to_string(g) for g in gens],
                    "frame": {"u": list(frame.u_block), "y": list(frame.y_block)},
                    "options": {"budget": 8}}
    return jobs


def test_polyhedron_exits_with_a_documented_code_on_every_named_chart(
        monkeypatch, capsys):
    jobs = named_chart_jobs()
    assert len(jobs) > 600
    codes = {}
    for key, job in jobs.items():
        codes[key] = polyhedron_report(monkeypatch, capsys, job)[0]
    assert {key: code for key, code in codes.items()
            if code not in (EXIT_OK, EXIT_INPUT, EXIT_SCOPE)} == {}
    assert jobs[EXHAUSTED_SIDE_2]["generators"] == [
        "u1 + 3*u1*u2 + y^2 + 3*u1*u2^2 + u1*u2^3 + u1^5"]
    assert codes[EXHAUSTED_SIDE_2] == EXIT_OK


SLIDE_JOB = "y^2 + u1^2*(u2 - {c}*u1^2)^2"


def test_an_unchanged_slope_after_a_complete_preparation_is_a_scope_error(
        monkeypatch):
    gens = [parse_polynomial(SLIDE_JOB.format(c=3), QQ, U1U2Y)]
    real_prepare = cp.prepare

    def undo_the_straightening(current, frame, budget=64):
        return real_prepare(gens, frame, budget)

    assert cp.sigma_search(gens, FRAME_U12_Y, 1).value == cp.INF
    monkeypatch.setattr(cp, "prepare", undo_the_straightening)
    with pytest.raises(ScopeError, match="sigma on side 1"):
        cp.sigma_search(gens, FRAME_U12_Y, 1)

    def exhausted(current, frame, budget=64):
        return replace(real_prepare(gens, frame, budget),
                       status=cp.BUDGET_EXHAUSTED)

    monkeypatch.setattr(cp, "prepare", exhausted)
    assert not cp.sigma_search(gens, FRAME_U12_Y, 1).certified


@pytest.mark.parametrize("constant", ["1000000000039", "999999999999999989"])
def test_a_large_slide_constant_is_read_off_the_linear_gcd(
        monkeypatch, capsys, constant):
    job = {"field": RATIONALS, "variables": list(U1U2Y),
           "generators": [SLIDE_JOB.format(c=constant)],
           "frame": {"u": ["u1", "u2"], "y": ["y"]}}
    code, out = polyhedron_report(monkeypatch, capsys, job)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "minimal"
    assert report["sigma"] == {"side1": "inf", "side2": 1}


def test_uni_roots_reads_a_linear_root_and_caps_the_divisor_search():
    # 3 X - c: the root c/3, without listing the divisors of c
    c = 999999999999999989
    assert cp._uni_roots([Fraction(-c), Fraction(3)], QQ) == ([Fraction(c, 3)], True)
    # (X - 2)(X - 3) = X^2 - 5 X + 6: the divisor search finds both roots
    assert cp._uni_roots([Fraction(6), Fraction(-5), Fraction(1)], QQ) == (
        [Fraction(2), Fraction(3)], True)
    # the largest product of end coefficients the search takes, and past it
    bound = cp.MAX_ROOT_SEARCH
    roots, certified = cp._uni_roots([Fraction(-bound ** 2), Fraction(0), Fraction(1)], QQ)
    assert roots == [-bound, bound] and certified
    for ends in [(-(bound ** 2 + 1), 1), (1, bound ** 2 + 1), (-bound * 10, bound)]:
        with pytest.raises(ScopeError, match="MAX_ROOT_SEARCH"):
            cp._uni_roots([Fraction(ends[0]), Fraction(0), Fraction(ends[1])], QQ)
