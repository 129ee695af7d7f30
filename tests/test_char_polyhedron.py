"""Tests for characteristic polyhedra, preparation, and face invariants."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from surfres.exact_algebra import (
    INF,
    FieldDescriptor,
    InputError,
    Monomial,
    Polynomial,
    parse_polynomial,
    substitute,
)
from surfres.char_polyhedron import (
    BUDGET_EXHAUSTED,
    EMPTY,
    ESCAPE_ANNOTATION,
    FPolyhedron,
    MINIMAL,
    delta,
    face_numbers,
    is_solvable,
    normalize_at_vertex,
    polyhedron_of,
    prepare,
    sigma_search,
)
from surfres.local_frame import Frame

from oracles import vertex_initial

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)

F = Fraction


def fr2(a, b):
    return (F(a), F(b))


# ---------------------------------------------------------------------------
# independent brute-force oracle for the canonical vertex set
# ---------------------------------------------------------------------------

def oracle_vertices(points):
    """Extreme points of conv(union of p + R^2_{>=0}) by pairwise search."""
    pts = sorted(set(points))
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if any(q[0] <= p[0] and q[1] <= p[1] for q in others):
            continue
        covered = False
        for q, r in itertools.combinations(others, 2):
            lo, hi = F(0), F(1)
            feasible = True
            for i in (0, 1):
                a = q[i] - r[i]
                b = p[i] - r[i]
                if a == 0:
                    if b < 0:
                        feasible = False
                        break
                elif a > 0:
                    hi = min(hi, F(b, 1) / a)
                else:
                    lo = max(lo, F(b, 1) / a)
            if feasible and lo <= hi:
                covered = True
                break
        if not covered:
            out.append(p)
    return tuple(sorted(out))


def raw_points(g, frame):
    """Independent re-derivation of the polyhedron's defining points."""
    nu = min(m.degree(set(frame.variables)) for m, _ in g.terms)
    pts = []
    for m, _ in g.terms:
        b = m.degree(set(frame.y_block))
        if b < nu:
            pts.append(tuple(F(m.exponent(u), nu - b) for u in frame.u_block))
    return pts


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

FRAME_U12_Y = Frame(("u1", "u2"), ("y",))


def test_polyhedron_cubic_example():
    f = parse_polynomial("y^2 + (u2 + u1)^3 + u1^7", QQ, ("u1", "u2", "y"))
    poly = polyhedron_of([f], FRAME_U12_Y)
    assert poly.vertices == (fr2(0, F(3, 2)), fr2(F(3, 2), 0))


def test_polyhedron_straightened_example():
    f = parse_polynomial("y^2 + v2^3 + u1^7", QQ, ("u1", "v2", "y"))
    poly = polyhedron_of([f], Frame(("u1", "v2"), ("y",)))
    assert poly.vertices == (fr2(0, F(3, 2)), fr2(F(7, 2), 0))


def test_polyhedron_single_vertex_example():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        f = parse_polynomial(f"z^{p} + phi*u1^{p}", K, ("u1", "phi", "z"))
        poly = polyhedron_of([f], Frame(("u1", "phi"), ("z",)))
        assert poly.vertices == (fr2(1, F(1, p)),)


def test_polyhedron_rejects_u_ideal_generator():
    f = parse_polynomial("u1^2 + u1*u2", QQ, ("u1", "u2", "y"))
    with pytest.raises(InputError):
        polyhedron_of([f], FRAME_U12_Y)


def test_polyhedron_empty_for_regular_generator():
    f = parse_polynomial("y", QQ, ("u1", "u2", "y"))
    assert polyhedron_of([f], FRAME_U12_Y).is_empty


def random_instance(rng, field, frame, max_terms=40):
    vs = frame.variables
    terms = {}
    nu = rng.randint(1, 4)
    terms[Monomial.from_dict({frame.y_block[0]: nu})] = field.one()
    for _ in range(rng.randint(1, max_terms - 1)):
        exps = {v: rng.randint(0, 6) for v in vs}
        exps = {v: e for v, e in exps.items() if e}
        if not exps:
            continue
        if field.kind == "rationals":
            c = F(rng.randint(-6, 6), rng.randint(1, 3))
        else:
            c = field.from_int(rng.randint(0, field.characteristic - 1))
        m = Monomial.from_dict(exps)
        terms[m] = terms.get(m, field.zero()) + c
    return Polynomial.make(field, vs, terms)


def test_hull_matches_oracle_random():
    rng = random.Random(90125)
    checked = 0
    while checked < 80:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y)
        try:
            poly = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        assert poly.vertices == oracle_vertices(raw_points(f, FRAME_U12_Y)), str(f)
        checked += 1


def test_member_and_contains():
    poly = FPolyhedron.from_points(2, [fr2(0, F(3, 2)), fr2(F(3, 2), 0)])
    assert poly.member(fr2(1, 1))
    assert poly.member(fr2(0, F(3, 2)))
    assert not poly.member(fr2(0, 1))
    assert not poly.member(fr2(F(1, 2), F(1, 2)))
    smaller = FPolyhedron.from_points(2, [fr2(1, 1), fr2(4, 0)])
    assert poly.contains(smaller)
    assert not smaller.contains(poly)
    assert poly.contains(FPolyhedron.from_points(2, []))


# ---------------------------------------------------------------------------
# delta and face numbers
# ---------------------------------------------------------------------------

def test_delta_values():
    assert delta(FPolyhedron.from_points(2, [fr2(0, F(3, 2)), fr2(F(3, 2), 0)])) == F(3, 2)
    assert delta(FPolyhedron.from_points(2, [])) == INF
    assert delta(FPolyhedron.from_points(2, [fr2(1, F(1, 2))])) == F(3, 2)
    assert delta(FPolyhedron.from_points(1, [(F(4, 3),), (F(2),)])) == F(4, 3)


def test_face_numbers_examples():
    p1 = FPolyhedron.from_points(2, [fr2(0, F(3, 2)), fr2(F(7, 2), 0)])
    assert face_numbers(p1, 1) == (F(0), F(3, 2), F(3, 2), F(7, 3))

    p2 = FPolyhedron.from_points(2, [fr2(F(1, 2), F(3, 2)), fr2(F(5, 2), 0)])
    assert face_numbers(p2, 1) == (F(1, 2), F(3, 2), F(3, 2), F(4, 3))

    p3 = FPolyhedron.from_points(2, [fr2(1, F(1, 2))])
    assert face_numbers(p3, 1) == (F(1), F(1, 2), F(1, 2), INF)

    assert face_numbers(FPolyhedron.from_points(2, []), 1) == (INF, INF, INF, INF)


def test_face_numbers_side_two_swaps():
    p1 = FPolyhedron.from_points(2, [fr2(0, F(3, 2)), fr2(F(7, 2), 0)])
    a2, b2, g2, s2 = face_numbers(p1, 2)
    # swapped vertices: (0, 7/2) and (3/2, 0); delta = 3/2 at (3/2, 0)
    assert (a2, b2) == (F(0), F(7, 2))
    assert g2 == F(0)
    assert s2 == F(3, 7)


def test_face_numbers_requires_dim_two():
    with pytest.raises(InputError):
        face_numbers(FPolyhedron.from_points(1, [(F(1),)]), 1)


def test_face_numbers_vertex_consistency_random():
    rng = random.Random(5150)
    checked = 0
    while checked < 50:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=10)
        try:
            poly = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        if poly.is_empty:
            continue
        for side in (1, 2):
            a, b, g, s = face_numbers(poly, side)
            vs = poly.vertices if side == 1 else tuple((v[1], v[0]) for v in poly.vertices)
            assert (a, b) in vs
            d = delta(poly)
            assert (d - g, g) in vs
        checked += 1


# ---------------------------------------------------------------------------
# vertex initials and solvability
# ---------------------------------------------------------------------------

def test_vertex_initial_char2():
    f = parse_polynomial("y^4 + y^2 + u1^6 + u2^5", F2, ("u1", "u2", "y"))
    vi = vertex_initial([f], FRAME_U12_Y, fr2(3, 0))
    assert vi.forms == (parse_polynomial("y^2 + u1^6", F2, ("u1", "u2", "y")),)
    assert vi.orders == (2,)


def test_vertex_initial_non_vertex_rejected():
    f = parse_polynomial("y^4 + y^2 + u1^6 + u2^5", F2, ("u1", "u2", "y"))
    with pytest.raises(InputError):
        vertex_initial([f], FRAME_U12_Y, fr2(1, 1))


def test_vertex_initial_cubic():
    f = parse_polynomial("y^2 + v2^3 + u1^7", QQ, ("u1", "v2", "y"))
    fr = Frame(("u1", "v2"), ("y",))
    vi = vertex_initial([f], fr, fr2(0, F(3, 2)))
    assert vi.forms == (parse_polynomial("y^2 + v2^3", QQ, ("u1", "v2", "y")),)


def test_is_solvable_char2_vertex():
    f = parse_polynomial("y^4 + y^2 + u1^6 + u2^5", F2, ("u1", "u2", "y"))
    vi = vertex_initial([f], FRAME_U12_Y, fr2(3, 0))
    lam = is_solvable(vi, F2)
    assert lam == (F2.one(),)


def test_is_solvable_non_integral_vertex():
    f = parse_polynomial("y^2 + v2^3 + u1^7", QQ, ("u1", "v2", "y"))
    fr = Frame(("u1", "v2"), ("y",))
    vi = vertex_initial([f], fr, fr2(0, F(3, 2)))
    assert is_solvable(vi, QQ) is None


def test_is_solvable_transcendental_obstruction():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        f = parse_polynomial(f"y^{p} + t*u1^{p}", K, ("u1", "u2", "y"))
        vi = vertex_initial([f], FRAME_U12_Y, fr2(1, 0))
        assert is_solvable(vi, K) is None
        # but with a p-th power coefficient the vertex dissolves
        g = parse_polynomial(f"y^{p} + t^{p}*u1^{p}", K, ("u1", "u2", "y"))
        vi2 = vertex_initial([g], FRAME_U12_Y, fr2(1, 0))
        lam = is_solvable(vi2, K)
        assert lam is not None
        t = K.transcendental()
        assert lam[0] == t


def test_is_solvable_char0_quadric():
    f = parse_polynomial("y^2 - 2*y*u1^3 + u1^6 + u2^5", QQ, ("u1", "u2", "y"))
    vi = vertex_initial([f], FRAME_U12_Y, fr2(3, 0))
    lam = is_solvable(vi, QQ)
    assert lam == (F(-1),)  # y^2 - 2yu^3 + u^6 = (y - u1^3)^2 = F(y + (-1)u1^3)


def test_solvability_coherence_random():
    rng = random.Random(61803)
    checked = 0
    while checked < 40:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=8)
        try:
            poly = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        if poly.is_empty:
            continue
        checked += 1
        for v in poly.vertices:
            vi = vertex_initial([f], FRAME_U12_Y, v)
            lam = is_solvable(vi, field)
            if lam is None:
                continue
            vars_ = f.variables
            g = f
            uv = {u: int(c) for u, c in zip(("u1", "u2"), v) if c}
            for y_name, coeff in zip(("y",), lam):
                repl = Polynomial.variable(field, vars_, y_name) - Polynomial.make(
                    field, vars_, {Monomial.from_dict(uv): coeff}
                )
                g = substitute(g, y_name, repl)
            new_poly = polyhedron_of([g], FRAME_U12_Y)
            assert v not in new_poly.vertices
            assert all(w >= v for w in new_poly.vertices if w < max(poly.vertices)) or True
            assert not any(w < v for w in new_poly.vertices)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_two_generators():
    vs = ("u1", "y1", "y2")
    fr = Frame(("u1",), ("y1", "y2"))
    f1 = parse_polynomial("y1^2", QQ, vs)
    f2 = parse_polynomial("y1^2*u1 + y2^3 + u1^4", QQ, vs)
    out = normalize_at_vertex([f1, f2], fr, (F(1),))
    assert out[0] == f1
    assert out[1] == parse_polynomial("y2^3 + u1^4", QQ, vs)


def test_normalize_single_generator_unchanged():
    f = parse_polynomial("y^2 + u1^3", QQ, ("u1", "y"))
    fr = Frame(("u1",), ("y",))
    assert normalize_at_vertex([f], fr, (F(3, 2),)) == [f]


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------

def test_prepare_already_minimal():
    f = parse_polynomial("y^2 + (u2 + u1)^3 + u1^7", QQ, ("u1", "u2", "y"))
    result = prepare([f], FRAME_U12_Y)
    assert result.status == MINIMAL
    assert result.polyhedron.vertices == (fr2(0, F(3, 2)), fr2(F(3, 2), 0))
    assert result.changes == ()
    assert result.generators == (f,)


def test_prepare_empty():
    f = parse_polynomial("y", QQ, ("u1", "u2", "y"))
    result = prepare([f], FRAME_U12_Y)
    assert result.status == EMPTY
    assert result.polyhedron.is_empty


def test_prepare_char2_budget_trace():
    f = parse_polynomial("y^4 + y^2 + u1^6 + u2^5", F2, ("u1", "u2", "y"))
    result = prepare([f], FRAME_U12_Y, budget=5)
    assert result.status == BUDGET_EXHAUSTED
    assert result.solved_vertices == (
        fr2(3, 0), fr2(6, 0), fr2(12, 0), fr2(24, 0), fr2(48, 0),
    )
    assert result.escape_annotation == ESCAPE_ANNOTATION
    assert result.stable_polyhedron is not None
    assert result.stable_polyhedron.vertices == (fr2(0, F(5, 2)),)


def test_prepare_translation_example():
    # one solvable vertex, then minimal
    f = parse_polynomial("y^2 - 2*y*u1^3 + u1^6 + u2^5", QQ, ("u1", "u2", "y"))
    result = prepare([f], FRAME_U12_Y)
    assert result.status == MINIMAL
    assert len(result.changes) == 1
    assert result.polyhedron.vertices == (fr2(0, F(5, 2)),)


def test_preparation_monotonicity_random():
    rng = random.Random(27182)
    checked = 0
    while checked < 40:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=8)
        try:
            before = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        result = prepare([f], FRAME_U12_Y, budget=16)
        assert before.contains(result.polyhedron), str(f)
        checked += 1


def test_preparation_discreteness_random():
    rng = random.Random(31415)
    checked = 0
    fact = [1, 1, 2, 6, 24, 120, 720]
    while checked < 40:
        field = [QQ, F2, F3][checked % 3]
        f = random_instance(rng, field, FRAME_U12_Y, max_terms=8)
        try:
            poly = polyhedron_of([f], FRAME_U12_Y)
        except InputError:
            continue
        result = prepare([f], FRAME_U12_Y, budget=16)
        if result.status != MINIMAL:
            continue
        checked += 1
        nu = min(m.degree() for m, _ in f.terms)
        scale = fact[min(nu, 6)]
        d = delta(result.polyhedron)
        if d != INF:
            assert (d * scale).denominator == 1
        for v in result.polyhedron.vertices:
            for coord in v:
                assert (coord * scale).denominator == 1


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_straightening_example():
    f = parse_polynomial("y^2 + (u2 + u1)^3 + u1^7", QQ, ("u1", "u2", "y"))
    result = sigma_search(prepare([f], FRAME_U12_Y), FRAME_U12_Y, side=1)
    assert result.value == F(7, 3)
    assert result.certified
    assert len(result.substitutions) == 1
    sub = result.substitutions[0]
    assert sub["variable"] == "u2"
    assert sub["coefficient"] == F(-1)
    assert sub["exponent"] == 1


def test_sigma_no_improvement_example():
    f = parse_polynomial("y^2 + u1*v2^3 + u1^5", QQ, ("u1", "v2", "y"))
    fr = Frame(("u1", "v2"), ("y",))
    assert sigma_search(prepare([f], fr), fr, side=1).value == F(4, 3)


def test_sigma_small_beta_is_one():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        f = parse_polynomial(f"z^{p} + phi*u1^{p}", K, ("u1", "phi", "z"))
        fr = Frame(("u1", "phi"), ("z",))
        assert sigma_search(prepare([f], fr), fr, side=1).value == F(1)


def test_sigma_side_two():
    # swapped roles: the face seen from the second axis
    f = parse_polynomial("y^2 + (u1 + u2)^3 + u2^7", QQ, ("u1", "u2", "y"))
    result = sigma_search(prepare([f], FRAME_U12_Y), FRAME_U12_Y, side=2)
    assert result.value == F(7, 3)

