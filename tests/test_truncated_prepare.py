"""Vertex preparation modulo a box span against the exact loop.

On one generator ``prepare`` goes on modulo a box span J_c after one
solving step and replays the exact generators on demand (see its
docstring).  The loop as it was before, which never truncates, is kept
below as the oracle.  Every field of ``PreparationResult``, the replayed
generators included, must agree at budgets 8, 24 and 64 on every chart of
the named traces (own and adapted frame), the 32 seeded random charts of
``perfbench``'s face-sweep workload, the criterion-6 instances, the F2
charts whose vertices grow geometrically, and small charts built around the
counterexample y + u2^2 + u1^5*u2 + u1^8 of a half-space certificate.  One
chart for each way a run goes on from the switch pins how each of its
trials modulo a box ends.
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
    Polynomial,
    ScopeError,
    parse_polynomial,
    substitute,
)
from surfres.local_frame import Frame
from surfres.resolution_driver import initial_chart, resolve

from oracles import Monomial, is_solvable, make, repo_module
from test_prepare_oracle import adapted, criterion_6_cases, named_cases  # noqa: F401

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
XYZ = ("x", "y", "z")
BUDGETS = (8, 24, 64)
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
    changes, snapshots = [], []
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
        lam = is_solvable(vi, field)
        if lam is None:
            certified.add(v)
            continue
        uv = Monomial.from_dict(cp._u_power(frame, v))
        for y_name, coeff in zip(frame.y_block, lam):
            if coeff:
                replacement = Polynomial.variable(
                    field, current[0].variables, y_name) - make(
                    field, current[0].variables, {uv: coeff})
                current = [substitute(g, y_name, replacement) for g in current]
        changes.append({"vertex": v, "witness": lam})
        poly = cp.polyhedron_of(current, frame)
        snapshots.append(
            tuple(w for w in poly.vertices if cp._axis_of(w) is None))
        if escape is None and cp._detect_escape(changes, snapshots):
            escape = ESCAPE_ANNOTATION
            stable = FPolyhedron.from_points(
                poly.dim,
                [w for w in poly.vertices if cp._axis_of(w) != cp._axis_of(v)])
        if len(changes) >= budget:
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
def sweep_cases():
    """The 32 seeded random charts of ``perfbench``'s face-sweep workload
    at its default seed, in the adapted frame that the sweep prepares in
    and, where e <= 2, in their own frame."""
    corpus = repo_module("perfbench", "corpus")
    workloads = repo_module("perfbench", "workloads")
    cases = []
    for key, chart in workloads._random_charts(corpus.DEFAULT_SEED):
        if chart.frame.e <= 2:
            cases.append((key, list(chart.generators), chart.frame))
        gens, frame = adapted(chart)
        cases.append((key + ":adapted", gens, frame))
    return cases


@pytest.fixture(scope="module")
def f2_trace():
    return resolve(initial_chart(F2, XYZ, "x^2 + y^3*z^3 + x*y*z^3"))


@pytest.fixture(scope="module")
def geometric_cases(f2_trace):
    cases = []
    for chart_id in GEOMETRIC:
        gens, frame = adapted(f2_trace.charts[chart_id])
        cases.append((f"F2:{chart_id}:adapted", gens, frame))
    return cases


def counterexample_cases(budget):
    """y + u2^2 + u1^5*u2 + u1^8 with a tail on the u2-axis that keeps the
    loop walking up that axis past the switch: evenly spaced, so that the
    first box corner is right, and spaced ever wider, so that it is too
    small.  A half-space |a| >= N|c| in place of the box drops u1^8, the
    term on the u1-axis that carries a vertex.  Last, a square whose vertex
    after the second step is the first box corner (0, budget + 3): the
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
def test_seeded_face_sweep_charts_match_the_exact_loop(sweep_cases, budget):
    assert len(sweep_cases) > 32
    check_all(sweep_cases, budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_criterion_6_instances_match_the_exact_loop(budget):
    check_all(criterion_6_cases(), budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_geometric_f2_charts_match_the_exact_loop(geometric_cases, budget):
    check_all(geometric_cases, budget)


@pytest.mark.parametrize("budget", (4, 8, 24))
def test_counterexample_charts_match_the_exact_loop(budget):
    check_all(counterexample_cases(budget), budget)


# ---------------------------------------------------------------------------
# the paths of the switch
# ---------------------------------------------------------------------------

# a chart for each way a run can go on from the switch at budget 8: how
# each trial modulo a box ended (True, or the check that failed) and the
# solving steps taken by then
SWITCH_PATHS = {
    "a box run that ends":
        ("two-divisor:root/u2/u1/u1/y/y/u1", ((True, 8),)),
    "the enlarged second trial ends":
        ("F2:root/y/z/y/y/y", (("check 1", 4), (True, 8))),
    "both trials fail":
        ("F2:root/y/z/y/y/x", (("check 1", 6), ("check 1", 7))),
    "a failed trial that drifted inside its corner":
        ("F2:root/z/y/z/z", (("check 1", 2),)),
    "check 2 fails on the corner itself":
        ("on-corner", (("check 2", 2),)),
    "a trial that fails before a step":
        ("before-a-step", (("check 1", 1),)),
}
# the first vertex (0, 4) is solved, and the drift to the next, (1, 2),
# heads right and down: at budget 8 the corner is the last vertex (10, 0),
# whose term u1^20 the box drops, so check 1 fails before a second step
BEFORE_A_STEP = "y^2 + 2*u2^4*y + u2^8 + u1^2*u2^4 + u1^20"


def box_trials(monkeypatch, gens, frame, budget):
    """``prepare``'s result, and (how it ended, solving steps) of each of
    its runs modulo a box: True, or the check that failed."""
    trials = []
    real = cp._advance

    def advance(run, frame, budget, pause=None, box=None):
        ended = real(run, frame, budget, pause=pause, box=box)
        if box is not None:
            how = ended or ("check 2" if run.poly.member(box.corner)
                            else "check 1")
            trials.append((how, len(run.changes)))
        return ended

    with monkeypatch.context() as mp:
        mp.setattr(cp, "_advance", advance)
        result = prepare(gens, frame, budget=budget)
    return result, tuple(trials)


@pytest.fixture(scope="module")
def path_cases(named_cases, f2_trace):
    cases = {f"two-divisor:{name.split(':')[1]}": (gens, frame)
             for name, gens, frame in named_cases
             if name.startswith("two-divisor-chart:")
             and name.endswith(":adapted")}
    for chart_id in ("root/y/z/y/y/y", "root/y/z/y/y/x", "root/z/y/z/z"):
        cases[f"F2:{chart_id}"] = adapted(f2_trace.charts[chart_id])
    for name, gens, frame in counterexample_cases(8):
        cases[name] = (gens, frame)
    cases["before-a-step"] = (
        [parse_polynomial(BEFORE_A_STEP, QQ, ("u1", "u2", "y"))], FRAME_U12_Y)
    return cases


@pytest.mark.parametrize("path", SWITCH_PATHS)
def test_each_path_of_the_switch_is_taken_and_matches_the_exact_loop(
        monkeypatch, path_cases, path):
    name, want_trials = SWITCH_PATHS[path]
    gens, frame = path_cases[name]
    got, trials = box_trials(monkeypatch, gens, frame, 8)
    assert trials == want_trials, (path, trials)
    check(name, got, gens, frame, 8)
