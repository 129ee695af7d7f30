"""Vertex preparation against the earlier implementation.

``prepare`` builds each generator list's polyhedron once, reads the vertex
initial forms without re-checking the vertex, scans each monomial once for
its polyhedron point and filters dominated points in one sorted pass;
``sigma_search`` reads the first face off the prepared polyhedron.  The
earlier code, which recomputed each of these, is kept below as the oracle.
Every field of ``PreparationResult`` and every ``sigma_search`` result must
agree on each chart of the named traces and on the criterion-6 instances,
at budgets 4, 8 and 64.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

import pytest

from surfres import char_polyhedron as cp
from surfres.char_polyhedron import (
    BUDGET_EXHAUSTED,
    EMPTY,
    ESCAPE_ANNOTATION,
    INF,
    MINIMAL,
    FPolyhedron,
    PreparationResult,
    SigmaResult,
    face_numbers,
    prepare,
    sigma_search,
)
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    substitute,
)
from surfres.invariant import adapt_frame_to_forms
from surfres.local_frame import Frame, compute_directrix, initial_form
from surfres.resolution_driver import FRESH_LABELS, initial_chart, resolve

from oracles import Monomial, is_solvable, make, terms, vertex_initial
from test_acceptance import random_vertical_chart
from test_char_polyhedron import FRAME_U12_Y, random_instance
from test_exact_algebra import stored_form_problems
from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
XYZ = ("x", "y", "z")
BUDGETS = (4, 8, 64)


# ---------------------------------------------------------------------------
# the earlier implementation (the oracle)
# ---------------------------------------------------------------------------


def old_canonical_vertices(dim, points):
    pts = sorted(set(points))
    if not pts:
        return ()
    if dim == 0:
        return ()
    if dim == 1:
        return (min(pts),)
    kept = []
    for p in pts:
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts):
            kept.append(p)
    kept.sort()
    hull = []
    for p in kept:
        while len(hull) >= 2 and cp._cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


def old_points_of_generator(g: Polynomial, frame: Frame):
    nu = cp.generator_order(g, frame)
    uset = frame.u_block
    yset = set(frame.y_block)
    points = []
    in_u_ideal = True
    for m, _ in terms(g):
        b = m.degree(yset)
        a_total = m.degree(set(uset))
        if a_total == 0:
            in_u_ideal = False
        if b < nu:
            denom = nu - b
            points.append(tuple(Fraction(m.exponent(u), denom) for u in uset))
    if in_u_ideal:
        raise InputError(
            "generator lies in the ideal generated by the u-block; "
            "no valid (u; y) expansion"
        )
    return points


def term_point(m: Monomial, nu: int, frame: Frame):
    """The point A/(nu - |B|) of the term u^A y^B; None when |B| >= nu."""
    b = m.degree(set(frame.y_block))
    if b >= nu:
        return None
    denom = nu - b
    return tuple(Fraction(m.exponent(u), denom) for u in frame.u_block)


def points_of_generator(g: Polynomial, frame: Frame):
    """The points A/(nu - |B|) of ``char_polyhedron._scan``, as exact
    rationals."""
    return [tuple([Fraction(x, d) for x in a]) for a, d in cp._scan(g, frame)]


def old_polyhedron_of(gens, frame):
    cp._check_frame_for_polyhedron(gens, frame)
    points = []
    for g in gens:
        points.extend(old_points_of_generator(g, frame))
    return FPolyhedron(frame.e, old_canonical_vertices(frame.e, points))


def old_vertex_initial(gens, frame, v):
    poly = old_polyhedron_of(gens, frame)
    if v not in poly.vertices:
        raise InputError(f"{v} is not a vertex of the polyhedron")
    forms = []
    orders = []
    yset = set(frame.y_block)
    for g in gens:
        nu = cp.generator_order(g, frame)
        orders.append(nu)
        term_map = {}
        for m, c in terms(g):
            if m.degree() == nu and m.degree(yset) == nu:
                term_map[m] = c
            else:
                pt = term_point(m, nu, frame)
                if pt == v:
                    term_map[m] = c
        forms.append(make(g.field, g.variables, term_map))
    return cp.VertexInitial(v, tuple(forms), tuple(orders), frame)


def old_prepare(gens, frame, budget=64):
    field = gens[0].field
    current = list(gens)
    changes, snapshots = [], []
    certified = set()
    escape = None
    stable = None
    status = MINIMAL
    while True:
        poly = old_polyhedron_of(current, frame)
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
            new_poly = old_polyhedron_of(current, frame)
            if v not in new_poly.vertices:
                continue
        vi = old_vertex_initial(current, frame, v)
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
        after = old_polyhedron_of(current, frame)
        snapshots.append(
            tuple(w for w in after.vertices if cp._axis_of(w) is None))
        if escape is None and cp._detect_escape(changes, snapshots):
            escape = ESCAPE_ANNOTATION
            stable = FPolyhedron(after.dim, old_canonical_vertices(
                after.dim,
                [w for w in after.vertices if cp._axis_of(w) != cp._axis_of(v)]))
        if len(changes) >= budget:
            poly = old_polyhedron_of(current, frame)
            if poly.is_empty:
                status = EMPTY
            else:
                remaining = [w for w in poly.vertices if w not in certified]
                status = BUDGET_EXHAUSTED if remaining else MINIMAL
            break
    return PreparationResult(
        generators=tuple(current),
        changes=tuple(changes),
        polyhedron=old_polyhedron_of(current, frame),
        status=status,
        escape_annotation=escape,
        stable_polyhedron=stable,
    )


def old_sigma_search(gens, frame, side, budget=32, prepare_budget=64):
    work_frame = frame if side == 1 else Frame(
        (frame.u_block[1], frame.u_block[0]), frame.y_block, frame.boundary)
    field = gens[0].field
    current = list(gens)
    subs = []
    certified = True
    poly = old_polyhedron_of(current, work_frame)
    _, beta, _, s = face_numbers(poly, 1)
    if beta < 1:
        return SigmaResult(Fraction(1), True, ())
    for _ in range(budget):
        poly = old_polyhedron_of(current, work_frame)
        alpha, beta, _, s = face_numbers(poly, 1)
        if s == INF:
            return SigmaResult(INF, certified, tuple(subs))
        if s.denominator != 1 or s < 1:
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs))
        m_exp = int(s)
        constraints = cp._face_constraints(current, work_frame, m_exp, alpha, beta)
        if not constraints:
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs))
        g = constraints[0]
        for extra in constraints[1:]:
            g = cp._uni_gcd(g, extra, field)
            if len(g) == 1:
                break
        g = cp._uni_trim(g)
        if len(g) <= 1:
            return SigmaResult(max(Fraction(1), s), certified, tuple(subs))
        roots, roots_certified = cp._uni_roots(g, field)
        if not roots:
            return SigmaResult(max(Fraction(1), s), certified and roots_certified,
                               tuple(subs))
        c = roots[0]
        u1, u2 = work_frame.u_block
        shift = Polynomial.variable(field, current[0].variables, u2) + make(
            field, current[0].variables, {Monomial.from_dict({u1: m_exp}): c})
        current = [substitute(gg, u2, shift) for gg in current]
        subs.append({"variable": u2, "coefficient": c, "exponent": m_exp})
        prep = old_prepare(current, work_frame, budget=prepare_budget)
        current = list(prep.generators)
        if prep.status == BUDGET_EXHAUSTED:
            certified = False
        new_poly = old_polyhedron_of(current, work_frame)
        _, _, _, s_new = face_numbers(new_poly, 1)
        if not (s_new > s):
            raise RuntimeError("straightening substitution failed to increase s")
    poly = old_polyhedron_of(current, work_frame)
    _, _, _, s = face_numbers(poly, 1)
    return SigmaResult(max(Fraction(1), s) if s != INF else INF, False,
                       tuple(subs))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def outcome(fn, *args, **kwargs) -> Any:
    """The result, or the type and text of the error raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, ScopeError, RuntimeError) as err:
        return (type(err), str(err))


def unprepared(gens, frame) -> PreparationResult:
    """The generators as they stand, handed to ``sigma_search`` as if
    ``prepare`` had left them unchanged."""
    return PreparationResult(
        generators=tuple(gens), changes=(),
        polyhedron=cp.polyhedron_of(gens, frame), status=MINIMAL)


def adapted(chart):
    initials = [initial_form(g, g.variables) for g in chart.generators]
    _r, forms = compute_directrix(initials, chart.frame)
    gens, frame = adapt_frame_to_forms(list(chart.generators), chart.frame, forms)
    return list(gens), frame


@pytest.fixture(scope="module")
def named_cases():
    """(name, generators, frame) of every chart of the named traces, in the
    chart's own frame and in the directrix-adapted frame."""
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    traces = {
        "surface-default": resolve(surface()),
        "surface-fresh": resolve(surface(), label_mode=FRESH_LABELS),
        "crossing-lines-cubic":
            resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")),
        "two-divisor-chart": resolve(whirl_chart()),
    }
    cases = []
    for name, trace in traces.items():
        for chart in trace.charts.values():
            key = f"{name}:{chart.chart_id}"
            if chart.frame.e <= 2:
                cases.append((key, list(chart.generators), chart.frame))
            try:
                gens, frame = adapted(chart)
            except (InputError, ScopeError):
                continue
            if frame.e in (1, 2):
                cases.append((key + ":adapted", gens, frame))
    return cases


def criterion_6_cases(count: int = 60):
    """Instances from the criterion-6 generators: random single generators
    in the frame (u1, u2 | y), and random vertical charts."""
    rng = random.Random(6004)
    cases = []
    for i in range(count):
        field = (QQ, F2, F3)[i % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=8)
        cases.append((f"instance-{i}", [f], FRAME_U12_Y))
    rng = random.Random(6002)
    for i in range(count):
        field = (QQ, F2, F3)[i % 3]
        u_vars = ("u1",) if rng.random() < 0.4 else ("u1", "u2")
        chart = random_vertical_chart(rng, field, u_vars, rng.choice((1, 2)))
        cases.append((f"vertical-{i}", list(chart.generators), chart.frame))
    return cases


FRAME_U12_Y12 = Frame(("u1", "u2"), ("y1", "y2"))


def two_generator_cases(count: int = 60):
    """Pairs f1 = y1^a + ..., f2 = y1^a*u1 + y2^(a+1) + ... in the frame
    (u1, u2 | y1, y2), where every other term has u1-degree above a: the
    first vertex is (1, 0), where f2's term y1^a*u1 reduces by f1, so
    normalization acts."""
    rng = random.Random(6007)
    vs = ("u1", "u2", "y1", "y2")
    cases = []
    for i in range(count):
        field = (QQ, F2, F3)[i % 3]
        a = rng.randint(1, 3)
        f1 = {Monomial.from_dict({"y1": a}): field.one()}
        f2 = {Monomial.from_dict({"y1": a, "u1": 1}): field.one(),
              Monomial.from_dict({"y2": a + 1}): field.one()}
        for terms in (f1, f2):
            for _ in range(rng.randint(1, 4)):
                m = Monomial.from_dict({"u1": rng.randint(a + 1, a + 3),
                                        "u2": rng.randint(0, 3),
                                        "y2": rng.randint(0, 1)})
                c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 4))
                     if field.kind == "rationals"
                     else field.from_int(rng.randint(1, field.characteristic - 1)))
                terms[m] = terms.get(m, field.zero()) + c
        gens = [make(field, vs, f1), make(field, vs, f2)]
        cases.append((f"pair-{i}", gens, FRAME_U12_Y12))
    return cases


def slow_at_64(gens, frame) -> bool:
    """Whether budget 64 would chase an endless vertex sequence whose terms
    multiply, as on the two-divisor charts: budget 8 already runs out there
    with over 40 terms (one such instance takes 22 s at budget 64)."""
    result = outcome(old_prepare, gens, frame, budget=8)
    return (isinstance(result, PreparationResult)
            and result.status == BUDGET_EXHAUSTED
            and sum(len(terms(g)) for g in result.generators) > 40)


def check_case(name, gens, frame, budget):
    want = outcome(old_prepare, gens, frame, budget=budget)
    got = outcome(prepare, gens, frame, budget=budget)
    assert got == want, (name, budget)
    if not isinstance(want, PreparationResult):
        return
    for fld in ("generators", "changes", "polyhedron", "status",
                "solved_vertices", "escape_annotation", "stable_polyhedron"):
        assert getattr(got, fld) == getattr(want, fld), (name, budget, fld)
    poly = want.polyhedron
    if frame.e != 2 or poly.is_empty or want.status != MINIMAL:
        return
    for side in (1, 2):
        want_s = outcome(old_sigma_search, list(want.generators), frame, side,
                         budget=4, prepare_budget=budget)
        got_s = outcome(sigma_search, got, frame, side,
                        budget=4, prepare_budget=budget)
        assert got_s == want_s, (name, budget, side)


@pytest.mark.parametrize("budget", BUDGETS)
def test_named_trace_charts_match_the_earlier_preparation(named_cases, budget):
    checked = 0
    for name, gens, frame in named_cases:
        if budget == 64 and slow_at_64(gens, frame):
            continue
        check_case(name, gens, frame, budget)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("budget", BUDGETS)
def test_two_generator_charts_match_the_earlier_preparation(budget):
    normalized = 0
    for name, gens, frame in two_generator_cases():
        if budget == 64 and slow_at_64(gens, frame):
            continue
        check_case(name, gens, frame, budget)
        try:
            v = min(cp.polyhedron_of(gens, frame).vertices)
        except (InputError, ValueError):
            continue
        normalized += cp.normalize_at_vertex(gens, frame, v) != gens
    assert normalized >= 50


@pytest.mark.parametrize("budget", BUDGETS)
def test_criterion_6_instances_match_the_earlier_preparation(budget):
    checked = 0
    for name, gens, frame in criterion_6_cases():
        if budget == 64 and slow_at_64(gens, frame):
            continue
        check_case(name, gens, frame, budget)
        checked += 1
    assert checked >= 110


def test_prepared_generators_are_stored_natively():
    """Every coefficient ``prepare`` leaves (after translations, and after
    the normalisation's divisions on the two-generator charts) is an int or a
    Fraction with a denominator over Q, and a residue in [0, p) over F_p."""
    checked = 0
    for name, gens, frame in criterion_6_cases() + two_generator_cases():
        result = outcome(prepare, gens, frame, budget=8)
        if not isinstance(result, PreparationResult):
            continue
        for g in result.generators:
            assert stored_form_problems(g) == [], name
        checked += 1
    assert checked >= 150


def test_vertex_initial_matches_at_every_vertex(named_cases):
    for name, gens, frame in named_cases + criterion_6_cases(30):
        try:
            vertices = old_polyhedron_of(gens, frame).vertices
        except InputError:
            continue
        assert cp.polyhedron_of(gens, frame).vertices == vertices, name
        for v in vertices:
            assert vertex_initial(gens, frame, v) == old_vertex_initial(
                gens, frame, v), (name, v)
        missing = (Fraction(10**6),) * frame.e
        assert outcome(vertex_initial, gens, frame, missing) == outcome(
            old_vertex_initial, gens, frame, missing), name


def test_points_match_on_every_generator(named_cases):
    for name, gens, frame in named_cases + criterion_6_cases(30):
        for g in gens:
            assert outcome(points_of_generator, g, frame) == outcome(
                old_points_of_generator, g, frame), name


def test_dominance_filter_matches_on_random_point_sets():
    rng = random.Random(4401)
    for _ in range(300):
        pts = [(Fraction(rng.randint(0, 9), rng.randint(1, 3)),
                Fraction(rng.randint(0, 9), rng.randint(1, 3)))
               for _ in range(rng.randint(0, 25))]
        assert cp._canonical_vertices(2, pts) == old_canonical_vertices(2, pts)
