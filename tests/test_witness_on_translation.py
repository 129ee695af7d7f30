"""Each solving step of vertex preparation against the earlier step body.

A solving step of ``char_polyhedron.prepare`` (``_step``) screens every
candidate witness (``_witnesses``), translates the generators by each one
that passes, and takes the first after which no generator has a term at
the vertex.  It reads each translated generator once, for its reduction
modulo a box, its points and that check (``_read``); ``prepare``'s
docstring argues that the check is the witness condition.  The earlier
step body verified each witness on the vertex forms, then translated the
generators, reduced them and scanned them again; it is kept as
``oracles.advance_by_verified_witness``, and ``prepare`` run with it in
place of ``_advance`` is the oracle.  Every field of ``PreparationResult``,
the replayed generators and the types of the witnesses included, must
agree at budgets 8 and 24 on:

* every chart of the named traces, in its own frame and adapted;
* the charts of a seeded sample of pool surfaces over F_2, F_3 and F_5;
* the seeded shifted forms over F_4 and F_3(t);
* the two-generator pairs, whose generators have different orders;
* small charts where a candidate passes the screen and is refused.

A guard counts the ``translate`` calls of one run modulo a box: one per
y variable, generator and candidate that passes the screen, so a
translation of the vertex forms cannot come back unnoticed.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest

from surfres import char_polyhedron as cp
from surfres.char_polyhedron import MINIMAL, PreparationResult
from surfres.exact_algebra import FieldDescriptor, parse_polynomial

from oracles import advance_by_verified_witness
from test_prepare_oracle import named_cases, outcome, two_generator_cases  # noqa: F401
from test_vertex_step import (
    F3T,
    F4,
    FRAME_U12_Y,
    chart_cases,
    pool_traces,
    shifted_cases,
)

QQ = FieldDescriptor.rationals()
F5 = FieldDescriptor.prime_field(5)
BUDGETS = (8, 24)
RESULT_FIELDS = ("generators", "changes", "polyhedron", "status",
                 "solved_vertices", "escape_annotation", "stable_polyhedron")
# (y + u1)^4 with the coefficient of y^2*u1^2 changed: the one candidate
# at the vertex (1, 0) is lambda = 1 (over F_5 the others fail the screen),
# which the screen passes, as it reads only the terms of y-degree 0 and 1;
# after y <- y - u1 the term y^2*u1^2 is left at the vertex
REFUSED = (
    (QQ, "y^4 + 4*y^3*u1 + 7*y^2*u1^2 + 4*y*u1^3 + u1^4 + u2^9"),
    (QQ, "y^4 + 4*y^3*u1 + 7*y^2*u1^2 + 4*y*u1^3 + u1^4 + u2^3*u1^2"
         " + y*u2^5"),
    (F5, "y^4 + 4*y^3*u1 + 2*y^2*u1^2 + 4*y*u1^3 + u1^4 + u2^9"),
)
GUARD_CHART = "two-divisor-chart:root/u1:adapted"
# the fewest solving steps a case set takes at each budget (the pairs take
# 6, two generators and two y variables each)
MIN_STEPS = {"named": 100, "two-generator": 5, "refused": 0}


def earlier_prepare(gens, frame, budget):
    """``prepare`` with the earlier step body, its generators read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_advance", advance_by_verified_witness)
        result = cp.prepare(gens, frame, budget)
        result.generators
    return result


@contextmanager
def counted():
    """Counts of the calls ``prepare`` makes while the block runs: each
    ``translate``, each candidate ``_witnesses`` yields, and each step
    ``_step`` takes."""
    counts = {"translate": 0, "candidates": 0, "steps": 0}
    real_translate, real_witnesses, real_step = (
        cp.translate, cp._witnesses, cp._step)

    def translate(*args):
        counts["translate"] += 1
        return real_translate(*args)

    def witnesses(vi, field):
        for lam in real_witnesses(vi, field):
            counts["candidates"] += 1
            yield lam

    def step(*args):
        result = real_step(*args)
        counts["steps"] += result is not None
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "translate", translate)
        mp.setattr(cp, "_witnesses", witnesses)
        mp.setattr(cp, "_step", step)
        yield counts


def refused_cases():
    return [(f"refused-{i}", [parse_polynomial(text, field, ("u1", "u2", "y"))],
             FRAME_U12_Y) for i, (field, text) in enumerate(REFUSED)]


@pytest.fixture(scope="module")
def case_sets(named_cases):  # noqa: F811
    traces = pool_traces()
    return {
        "named": named_cases,
        **{name: [case for text, trace in traces[name]
                  for case in chart_cases(text, trace)]
           for name in ("F2", "F3", "F5")},
        "F4-shifted": shifted_cases(F4),
        "F3(t)-shifted": shifted_cases(F3T),
        "two-generator": two_generator_cases(),
        "refused": refused_cases(),
    }


def check(name, gens, frame, budget):
    want = outcome(earlier_prepare, gens, frame, budget)
    got = outcome(cp.prepare, gens, frame, budget)
    if not isinstance(want, PreparationResult):
        assert got == want, (name, budget)
        return
    assert isinstance(got, PreparationResult), (name, budget, got)
    for fld in RESULT_FIELDS:
        assert getattr(got, fld) == getattr(want, fld), (name, budget, fld)
    assert [[type(x) for x in c["witness"]] for c in got.changes] == [
        [type(x) for x in c["witness"]] for c in want.changes], (name, budget)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("which", ["named", "F2", "F3", "F5", "F4-shifted",
                                   "F3(t)-shifted", "two-generator", "refused"])
def test_each_step_matches_the_earlier_step_body(case_sets, which, budget):
    with counted() as counts:
        for name, gens, frame in case_sets[which]:
            check(name, gens, frame, budget)
    # only the new side's steps are counted: the oracle's run in its own
    # ``_advance``
    assert counts["steps"] >= MIN_STEPS.get(which, 20), which
    if which == "refused":
        assert counts["candidates"] - counts["steps"] == len(REFUSED)


def test_a_candidate_the_screen_passes_can_be_refused():
    """On each ``REFUSED`` chart the step translates by its one candidate at
    (1, 0), finds a term left there and takes no step, so the vertex stays
    and is certified."""
    for name, gens, frame in refused_cases():
        with counted() as counts:
            result = cp.prepare(gens, frame, 8)
        assert (counts["candidates"], counts["steps"],
                counts["translate"]) == (1, 0, 1), name
        assert result.changes == () and result.status == MINIMAL, name
        assert (Fraction(1), Fraction(0)) in result.polyhedron.vertices, name


def test_a_box_run_translates_once_per_candidate(named_cases):  # noqa: F811
    (gens, frame), = [(gens, frame) for name, gens, frame in named_cases
                      if name == GUARD_CHART]
    with counted() as counts:
        result = cp.prepare(gens, frame, 8)
        translations = counts["translate"]
    refused = counts["candidates"] - counts["steps"]
    assert translations == frame.r * len(gens) * (counts["steps"] + refused)
    # one generator, one y variable, eight steps and no refused candidate:
    # the earlier step translated the vertex form too, 16 in all
    assert (frame.r, len(gens), counts["steps"], refused) == (1, 1, 8, 0)
    assert translations == 8
    assert len(result.changes) == 8
