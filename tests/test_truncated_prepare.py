"""Vertex preparation modulo a box span against the exact loop.

On one generator ``prepare`` goes on modulo a box span J_c after two
solving steps and replays the exact generators on demand (see its
docstring).  The loop as it was before, which never truncates, is kept
below as the oracle.  Every field of ``PreparationResult``, the replayed
generators included, must agree at budgets 8 and 24 on every chart of the
named traces (own and adapted frame), the criterion-6 instances, the F2
charts whose vertices grow geometrically, and small charts built around the
counterexample y + u2^2 + u1^5*u2 + u1^8 of a half-space certificate.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from surfres import char_polyhedron as cp
from surfres.char_polyhedron import (
    BUDGET_EXHAUSTED,
    EMPTY,
    ESCAPE_ANNOTATION,
    MINIMAL,
    FPolyhedron,
    PreparationResult,
    prepare,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Monomial,
    Polynomial,
    ScopeError,
    parse_polynomial,
    substitute,
)
from surfres.local_frame import Frame
from surfres.resolution_driver import initial_chart, resolve

from test_prepare_oracle import adapted, criterion_6_cases, named_cases  # noqa: F401

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
XYZ = ("x", "y", "z")
BUDGETS = (8, 24)
FRAME_U12_Y = Frame(("u1", "u2"), ("y",))

# the order-1 charts of the two-divisor trace whose generators grow far
# from their one vertex
HEAVY = ("root/u2/u1/u1/y/y/u1", "root/u2/u1/y/u1/y", "root/u2/y",
         "root/u1/u2/y/u2/y", "root/u2/y/u1")
# F2 charts whose solved vertices grow geometrically, e.g. (1,2), (5,5),
# (13,11), (29,23), and one whose steps vary
GEOMETRIC = ("root/y/z/y/y/x", "root/y/z/y/y/y", "root/y/z/y/y")


# ---------------------------------------------------------------------------
# the exact loop (the oracle)
# ---------------------------------------------------------------------------


def exact_prepare(gens, frame, budget=64):
    field = gens[0].field
    current = list(gens)
    changes, solved, snapshots = [], [], []
    certified = set()
    escape = None
    stable = None
    status = MINIMAL
    poly = cp.polyhedron_of(current, frame)
    while True:
        if poly.is_empty:
            status = EMPTY
            break
        uncertified = [v for v in poly.vertices if v not in certified]
        if not uncertified:
            status = MINIMAL
            break
        v = min(uncertified)
        normalized = cp.normalize_at_vertex(current, frame, v)
        if normalized != current:
            current = normalized
            poly = cp.polyhedron_of(current, frame)
            if v not in poly.vertices:
                continue
        vi = cp._vertex_initial(current, frame, v)
        lam = cp.is_solvable(vi, field)
        if lam is None:
            certified.add(v)
            continue
        uv = Monomial.from_dict(cp._u_power(frame, v))
        for y_name, coeff in zip(frame.y_block, lam):
            if coeff:
                replacement = Polynomial.variable(
                    field, current[0].variables, y_name) - Polynomial.make(
                    field, current[0].variables, {uv: coeff})
                current = [substitute(g, y_name, replacement) for g in current]
        changes.append({"vertex": v, "witness": lam})
        solved.append(v)
        poly = cp.polyhedron_of(current, frame)
        snapshots.append(
            tuple(w for w in poly.vertices if cp._axis_of(w) is None))
        if escape is None and cp._detect_escape(solved, snapshots):
            escape = ESCAPE_ANNOTATION
            stable = FPolyhedron.from_points(
                poly.dim,
                [w for w in poly.vertices if cp._axis_of(w) != cp._axis_of(v)])
        if len(solved) >= budget:
            if poly.is_empty:
                status = EMPTY
            else:
                remaining = [w for w in poly.vertices if w not in certified]
                status = BUDGET_EXHAUSTED if remaining else MINIMAL
            break
    return PreparationResult(
        generators=tuple(current),
        changes=tuple(changes),
        polyhedron=poly,
        status=status,
        solved_vertices=tuple(solved),
        escape_annotation=escape,
        stable_polyhedron=stable,
    )


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """The result, or the type and text of the error raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, ScopeError) as err:
        return (type(err), str(err))


@contextmanager
def largest_substitution():
    """Records the term count of the largest polynomial ``translate``
    returns inside ``prepare`` while the context is open."""
    seen = [0]
    original = cp.translate

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        seen[0] = max(seen[0], len(out.vectors))
        return out

    cp.translate = counted
    try:
        yield seen
    finally:
        cp.translate = original


@pytest.fixture(scope="module")
def geometric_cases():
    trace = resolve(initial_chart(F2, XYZ, "x^2 + y^3*z^3 + x*y*z^3"))
    cases = []
    for chart_id in GEOMETRIC:
        gens, frame = adapted(trace.charts[chart_id])
        cases.append((f"F2:{chart_id}:adapted", gens, frame))
    return cases


def counterexample_cases(budget):
    """y + u2^2 + u1^5*u2 + u1^8 with a tail on the u2-axis that keeps the
    loop walking up that axis past the switch: evenly spaced, so that the
    first box corner is right, and spaced ever wider, so that it is too
    small.  A half-space |a| >= N|c| in place of the box drops u1^8, the
    term on the u1-axis that carries a vertex.  Last, a square whose vertex
    after the switch is the first box corner (0, budget + 3) itself: the
    box keeps its term y*u2^(budget+3) but drops u2^(2*budget+6), and only
    check 2 keeps that vertex from being examined with a short initial
    form."""
    tails = {"even": range(3, 40), "wider": (3, 5, 8, 12, 17, 23, 30, 38)}
    cases = []
    for name, tail in tails.items():
        text = "y + u2^2 + u1^5*u2 + u1^8" + "".join(f" + u2^{e}" for e in tail)
        cases.append((name, text))
    cases.append(("on-corner", f"(y + u2^2 + u2^3 + u2^{budget + 3})^2 + u1^16"))
    return [(name, [parse_polynomial(text, QQ, ("u1", "u2", "y"))], FRAME_U12_Y)
            for name, text in cases]


def check(name, got, gens, frame, budget):
    """Compares ``prepare``'s outcome ``got`` with the exact loop's, field
    by field; returns the exact outcome."""
    want = outcome(exact_prepare, gens, frame, budget=budget)
    if not isinstance(want, PreparationResult):
        assert got == want, (name, budget)
        return want
    assert isinstance(got, PreparationResult), (name, budget, got)
    for fld in ("changes", "polyhedron", "status", "solved_vertices",
                "escape_annotation", "stable_polyhedron", "generators"):
        assert getattr(got, fld) == getattr(want, fld), (name, budget, fld)
    assert got == want, (name, budget)
    return want


def check_all(cases, budget):
    for name, gens, frame in cases:
        check(name, outcome(prepare, gens, frame, budget=budget), gens, frame,
              budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_named_trace_charts_match_the_exact_loop(named_cases, budget):
    """Also: on the five heavy charts no polynomial that ``prepare`` builds
    reaches half the size of the exact prepared generator, so those runs
    went on modulo a box; their generators are replayed when compared."""
    heavy = 0
    for name, gens, frame in named_cases:
        with largest_substitution() as seen:
            got = outcome(prepare, gens, frame, budget=budget)
        largest = seen[0]
        want = check(name, got, gens, frame, budget)
        trace, chart_id, *adapted_frame = name.split(":")
        if trace == "two-divisor-chart" and chart_id in HEAVY and adapted_frame:
            heavy += 1
            assert got.status == BUDGET_EXHAUSTED, name
            exact_terms = len(want.generators[0].vectors)
            assert 2 * largest < exact_terms, (name, largest, exact_terms)
    assert heavy == len(HEAVY)
    assert len(named_cases) >= 100


@pytest.mark.parametrize("budget", BUDGETS)
def test_criterion_6_instances_match_the_exact_loop(budget):
    check_all(criterion_6_cases(), budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_geometric_f2_charts_match_the_exact_loop(geometric_cases, budget):
    check_all(geometric_cases, budget)


@pytest.mark.parametrize("budget", (4, 8, 24))
def test_counterexample_charts_match_the_exact_loop(budget):
    check_all(counterexample_cases(budget), budget)
