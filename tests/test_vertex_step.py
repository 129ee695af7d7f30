"""The per-step helpers of vertex preparation against their earlier bodies.

Each step of ``char_polyhedron.prepare`` reads what it needs off the stored
terms, on ints:

* ``_Box`` forms its integer weights and bounds once and keeps the terms it
  does not drop in the generator's canonical order;
* ``_u_power`` divides each vertex coordinate's numerator by its
  denominator;
* ``_solve_char0`` builds its rows from each vertex form's stored terms
  instead of Hasse derivatives and public coefficient maps;
* over F_p and F_q each candidate witness, in ``itertools.product`` order,
  passes a screen on stored values (``_screen``: the forms read with U = 1)
  before ``_verify_witness`` checks it.

The earlier bodies are kept below as oracles: ``OldBox.reduce``,
``old_u_power``, ``old_solve_char0`` and the unscreened search
``old_search``.  Every vertex initial form and every box that ``prepare``
meets, at budgets 8 and 24, on the charts of the named traces (Q), of a
seeded sample of pool surfaces (Q, F_2, F_3, F_5), of that sample's F_2 and
F_3 charts read over F_4 = F_2[s]/(s^2 + s + 1) and F_3(t), and of seeded
shifted forms over F_4 and F_3(t), must give what the oracles give:
the same witness (type included) or None, the same reduced generator term
for term, the same u-power or the same error.  Every witness of a
finite-field vertex must pass the screen.  Seeded two-variable forms over
F_2 and F_3 with several witnesses pin the choice of the first one in
product order.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import lcm
from operator import add, ge, sub
from pathlib import Path
from typing import Any

import pytest

from surfres import char_polyhedron as cp
from surfres.exact_algebra import (
    FINITE_EXTENSION,
    PRIME_FIELD,
    RATIONALS,
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    hasse_derivative,
    parse_polynomial,
    translate,
)
from surfres.local_frame import Frame
from surfres.resolution_driver import initial_chart, resolve

from oracles import Monomial, make, public_row_reduce, vertex_initial
from test_prepare_oracle import adapted, named_cases  # noqa: F401  (a fixture)

ROOT = Path(__file__).resolve().parent.parent
QQ = FieldDescriptor.rationals()
PRIME = {f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 3, 5)}
F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
F3T = FieldDescriptor.rational_functions(3, "t")
FIELDS = {"Q": QQ, **PRIME, "F4": F4, "F3(t)": F3T}
XYZ = ("x", "y", "z")
BUDGETS = (8, 24)
POOL_RESOLVE_S = 0.1
POOL_PER_FIELD = 8
FRAME_U12_Y = Frame(("u1", "u2"), ("y",))
FRAME_U12_Y12 = Frame(("u1", "u2"), ("y1", "y2"))


# ---------------------------------------------------------------------------
# the earlier bodies (the oracles)
# ---------------------------------------------------------------------------


class OldBox:
    """The earlier ``_Box``: lcm and bounds formed on every call, the kept
    terms re-sorted through ``Polynomial.from_vectors``."""

    def __init__(self, corner, floor, order):
        self.corner, self.floor, self.order = corner, floor, order

    def reduce(self, g, frame):
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        d = lcm(*[x.denominator for x in self.floor + self.corner])
        bounds = [(i, int(f * d), int(self.order * c * d))
                  for i, f, c in zip(ui, self.floor, self.corner)]
        kept = {}
        for vec, c in g.vectors:
            b = sum([vec[i] for i in yi])
            if not all(vec[i] * d + f * b >= m for i, f, m in bounds):
                kept[vec] = c
        return Polynomial.from_vectors(g.field, g.variables, kept)


def old_u_power(frame, v, multiple=1):
    exps = {}
    for u, coord in zip(frame.u_block, v):
        e = coord * multiple
        if e.denominator != 1:
            raise InputError("non-integral u-power requested")
        exps[u] = int(e)
    return exps


def old_solve_char0(vi, field):
    frame = vi.frame
    r = frame.r
    rows, rhs = [], []
    zero = field.zero()
    for form, nu in zip(vi.forms, vi.orders):
        yi = form.positions(frame.y_block)
        uv = [0] * len(form.variables)
        for i, coord in zip(form.positions(frame.u_block), vi.vertex):
            uv[i] = int(coord)
        F = cp._pure_y_part(form, frame, nu)
        partials = [hasse_derivative(F, {y: 1}).coefficient_map()
                    for y in frame.y_block]
        targets = form.coefficient_map()
        monos = {m for dF in partials for m in dF}
        for vec in targets:
            if sum([vec[i] for i in yi]) == nu - 1 and all(map(ge, vec, uv)):
                monos.add(tuple(map(sub, vec, uv)))
        for m in sorted(monos):
            row = [dF.get(m, zero) for dF in partials]
            target = targets.get(tuple(map(add, m, uv)), zero)
            if any(row) or target:
                rows.append(row)
                rhs.append(target)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    lam = [field.zero()] * r
    for row in public_row_reduce(aug, field):
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if lead == r:
            return None
        lam[lead] = row[r]
    return lam


def old_search(vi, field):
    """The unscreened finite-field search: every candidate verified."""
    for lam in itertools.product(field.elements(), repeat=vi.frame.r):
        if any(lam) and cp._verify_witness(vi, lam):
            return tuple(lam)
    return None


def old_is_solvable(vi, field):
    if any(coord.denominator != 1 for coord in vi.vertex):
        return None
    if field.kind in (PRIME_FIELD, FINITE_EXTENSION):
        return old_search(vi, field)
    if field.kind == RATIONALS:
        lam = old_solve_char0(vi, field)
    else:
        lam = cp._solve_ratfunc(vi, field)
    if lam is None or not any(lam):
        return None
    return tuple(lam) if cp._verify_witness(vi, lam) else None


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def outcome(fn, *args) -> Any:
    """The result with the type of each entry, or the error's type and
    text."""
    try:
        result = fn(*args)
    except (InputError, ScopeError) as err:
        return (type(err), str(err))
    if isinstance(result, (list, tuple)):
        return [(type(x), x) for x in result]
    return result


def chart_cases(name, trace, field=None):
    """(name, generators, frame) of each chart of a trace with e <= 2, in
    its own frame and in the directrix-adapted one with e = 1 or 2; the
    generators read over ``field`` when it is given."""
    def over(gens):
        return [g.over(field) for g in gens] if field is not None else list(gens)

    cases = []
    for chart in trace.charts.values():
        key = f"{name}:{chart.chart_id}"
        if chart.frame.e <= 2:
            cases.append((key, over(chart.generators), chart.frame))
        try:
            gens, frame = adapted(chart)
        except (InputError, ScopeError):
            continue
        if frame.e in (1, 2):
            cases.append((key + ":adapted", over(gens), frame))
    return cases


def pool_traces():
    """The traces of a seeded sample of cheap pool surfaces, by field."""
    surfaces = json.loads((ROOT / "perfbench" / "pool.json").read_text())
    rng = random.Random(2207)
    out = {}
    for name in ("Q", "F2", "F3", "F5"):
        cheap = [s["text"] for s in surfaces["surfaces"]
                 if s["field"] == name and s["resolve_s"] < POOL_RESOLVE_S
                 and s["excluded"] is None]
        out[name] = [(text, resolve(initial_chart(FIELDS[name], XYZ, text)))
                     for text in rng.sample(cheap, POOL_PER_FIELD)]
    return out


def random_element(rng, field):
    """A random nonzero element: any of F_4's, and t^k (a + t) over F_3(t)."""
    if field.kind == FINITE_EXTENSION:
        return rng.choice(field.elements()[1:])
    t = field.transcendental()
    return t ** rng.randint(0, 2) * (field.from_int(rng.randint(0, 2)) + t)


def shifted_instance(rng, field, frame):
    """y_1^nu + ... + y_r^nu plus a few terms of high u-degree, then one or
    two moves y_j <- y_j + c u^A: a form whose vertices tend to be
    solvable."""
    nu = rng.randint(1, 4)
    terms = {Monomial.from_dict({y: nu}): field.one() for y in frame.y_block}
    for _ in range(rng.randint(1, 3)):
        exps = {u: rng.randint(1, 3 * nu) for u in frame.u_block}
        terms[Monomial.from_dict(exps)] = random_element(rng, field)
    f = make(field, frame.variables, terms)
    for _ in range(rng.randint(1, 2)):
        f = translate(f, rng.choice(frame.y_block), random_element(rng, field),
                      {u: rng.randint(1, 3) for u in frame.u_block})
    return f


def shifted_cases(field, count=30):
    rng = random.Random(f"shifted:{field.kind}")
    return [(f"shifted-{i}", [shifted_instance(rng, field, frame)], frame)
            for i, frame in enumerate([FRAME_U12_Y, FRAME_U12_Y12] * (count // 2))]


def met_steps(cases):
    """Every (vertex initial, field) that ``is_solvable`` and every (box,
    generator, frame) that ``_Box.reduce`` is given while ``prepare`` runs
    on the cases at each budget."""
    vertices, boxes = [], []
    real_solvable, real_reduce = cp.is_solvable, cp._Box.reduce

    def solvable(vi, field):
        vertices.append((vi, field))
        return real_solvable(vi, field)

    def reduce(box, g, frame):
        boxes.append((box, g, frame))
        return real_reduce(box, g, frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "is_solvable", solvable)
        mp.setattr(cp._Box, "reduce", reduce)
        for _name, gens, frame in cases:
            for budget in BUDGETS:
                try:
                    cp.prepare(gens, frame, budget)
                except (InputError, ScopeError):
                    pass
    return vertices, boxes


@pytest.fixture(scope="module")
def steps(named_cases):  # noqa: F811
    """The steps met, by field name."""
    traces = pool_traces()
    cases = {name: [case for text, trace in traces[name]
                    for case in chart_cases(text, trace)]
             for name in traces}
    cases["Q"] += named_cases
    cases["F4"] = [case for text, trace in traces["F2"]
                   for case in chart_cases(text, trace, F4)] + shifted_cases(F4)
    cases["F3(t)"] = [case for text, trace in traces["F3"]
                      for case in chart_cases(text, trace, F3T)] + shifted_cases(F3T)
    return {name: met_steps(field_cases) for name, field_cases in cases.items()}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(FIELDS))
def test_every_vertex_met_gets_the_earlier_witness(steps, name):
    vertices, _boxes = steps[name]
    solved = 0
    for vi, field in vertices:
        want = outcome(old_is_solvable, vi, field)
        assert outcome(cp.is_solvable, vi, field) == want, (name, vi)
        solved += isinstance(want, list)
        if field.kind == RATIONALS and all(x.denominator == 1 for x in vi.vertex):
            assert outcome(cp._solve_char0, vi, field) == outcome(
                old_solve_char0, vi, field), (name, vi)
    assert len(vertices) >= 100, name
    assert solved >= 20, name


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F4"])
def test_every_witness_passes_the_screen(steps, name):
    """The screen is a necessary condition: it rejects no candidate that
    ``_verify_witness`` accepts."""
    witnesses = 0
    for vi, field in steps[name][0]:
        if any(x.denominator != 1 for x in vi.vertex):
            continue
        passes = cp._screen(vi, field)
        for lam in itertools.product(field.elements(), repeat=vi.frame.r):
            if any(lam) and cp._verify_witness(vi, lam):
                witnesses += 1
                assert passes([field.to_native(c) for c in lam]), (name, vi, lam)
    assert witnesses >= 20, name


@pytest.mark.parametrize("name", list(FIELDS))
def test_every_u_power_met_matches_the_earlier_one(steps, name):
    checked, refused = set(), 0
    for vi, _field in steps[name][0]:
        for multiple in (1, 2, 3):
            key = (vi.frame, vi.vertex, multiple)
            if key in checked:
                continue
            checked.add(key)
            want = outcome(old_u_power, *key)
            assert outcome(cp._u_power, *key) == want, key
            refused += isinstance(want, tuple)
    assert refused >= (10 if name == "Q" else 1), name  # non-integral ones too


@pytest.mark.parametrize("name", list(FIELDS))
def test_every_box_met_reduces_as_the_earlier_box(steps, name):
    _vertices, boxes = steps[name]
    for box, g, frame in boxes:
        want = OldBox(box.corner, box.floor, box.order).reduce(g, frame)
        got = box.reduce(g, frame)
        assert got.vectors == want.vectors, (name, box)
    if name in ("Q", "F2", "F3"):
        assert len(boxes) >= 20, name


def test_random_boxes_reduce_as_the_earlier_box():
    """Boxes with fractional corners and floors, on generators whose terms
    sit on, below and above each bound."""
    rng = random.Random(2208)
    vs = FRAME_U12_Y.variables
    on_a_bound = 0
    for _ in range(300):
        order = rng.randint(1, 4)
        floor = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3))
                      for _ in range(2))
        corner = tuple(f + Fraction(rng.randint(0, 6), rng.randint(1, 3))
                       for f in floor)
        terms = {}
        for _ in range(rng.randint(1, 12)):
            b = rng.randint(0, order)
            bound = order * corner[0] - floor[0] * b
            if bound.denominator == 1:  # on coordinate 0's bound, or next to it
                a0 = max(int(bound) + rng.choice((-1, 0, 0, 1)), 0)
            else:
                a0 = rng.randint(0, 12)
            exps = {"u1": a0, "u2": rng.randint(0, 12), "y": b}
            terms[Monomial.from_dict(exps)] = Fraction(rng.randint(1, 5))
        g = make(QQ, vs, terms)
        box = cp._Box(corner, floor, order)
        assert box.reduce(g, FRAME_U12_Y).vectors == OldBox(
            corner, floor, order).reduce(g, FRAME_U12_Y).vectors
        d = lcm(*[x.denominator for x in floor + corner])
        on_a_bound += any(vec[0] * d + floor[0] * d * vec[2] == order * corner[0] * d
                          for vec, _ in g.vectors)
    assert on_a_bound >= 100


def several_witness_form(rng, field):
    """(L(Y) + c u1^k)^nu + u2^m with L = y1 + a y2: every lambda with
    L(lambda) = c is a witness at the vertex (k, 0)."""
    vs = FRAME_U12_Y12.variables
    p = field.characteristic
    a, c = rng.randint(1, p - 1), rng.randint(1, p - 1)
    nu, k = rng.randint(1, 3), rng.randint(1, 3)
    text = f"(y1 + {a}*y2 + {c}*u1^{k})^{nu} + u2^{nu * k + rng.randint(1, 3)}"
    return parse_polynomial(text, field, vs), (Fraction(k), Fraction(0))


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_the_first_of_several_witnesses_in_product_order(name):
    field = PRIME[name]
    rng = random.Random(f"several:{name}")
    for _ in range(40):
        f, v = several_witness_form(rng, field)
        vi = vertex_initial([f], FRAME_U12_Y12, v)
        witnesses = [lam for lam in itertools.product(field.elements(), repeat=2)
                     if any(lam) and cp._verify_witness(vi, lam)]
        assert len(witnesses) >= 2, str(f)
        assert cp.is_solvable(vi, field) == witnesses[0] == old_search(vi, field)


def test_pinned_first_witnesses():
    """y1^2 + y2^2 + u1^2 = (y1 + y2 + u1)^2 over F_2: (0, 1) and (1, 0)
    are witnesses, and (0, 1) comes first.  Over F_3, (y1 + y2 + u1)^3 is
    y1^3 + y2^3 + u1^3, whose witnesses are (0, 1), (1, 0) and (2, 2)."""
    vs = FRAME_U12_Y12.variables
    for name, text, want in (("F2", "y1^2 + y2^2 + u1^2 + u2^5", (0, 1)),
                             ("F3", "y1^3 + y2^3 + u1^3 + u2^7", (0, 1))):
        field = PRIME[name]
        vi = vertex_initial([parse_polynomial(text, field, vs)],
                               FRAME_U12_Y12, (Fraction(1), Fraction(0)))
        assert cp.is_solvable(vi, field) == tuple(map(field.from_int, want))
