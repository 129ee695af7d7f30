"""``sigma_search`` on a preparation, against the earlier search on bare
generators.

``sigma_search`` takes the ``PreparationResult`` of its generators and
reads its first face off the prepared polyhedron.  It reads the prepared
generators only when a face is about to be straightened, and builds each
face constraint straight off the terms on the face line, with C(a2, k)
reduced mod p.  The earlier search is kept below as the oracle.  It took
the prepared generators and rebuilt their polyhedron in the frame of the
side.  It read each constraint off the k-th Hasse derivative in u2, and
its gcd divided by a separate ``_uni_divmod``.  ``value``, ``certified``
and ``substitutions`` must agree on:

* every chart of the named traces with a two-variable u-block, in its own
  frame and adapted, prepared at budgets 8 and 64, on sides 1 and 2, at
  sigma budgets 4 and 32;
* seeded slide generators over Q, F_2, F_3, F_2(t) and F_9, one to a
  chart, prepared at budget 8, on both sides at sigma budget 4.

On both, a wrapper on ``_face_constraints`` and ``_uni_roots`` checks the
argument in ``_face_constraints``' docstring: every constraint list that
sigma builds is non-empty and holds a constraint of degree at least 1;
over Q one of them has degree exactly 1, and ``_uni_roots`` is handed only
polynomials of degree 1.

The constraints must agree with the Hasse-derivative ones as multisets,
and the gcd with the one built on ``_uni_divmod``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Any

import pytest

from surfres import char_polyhedron as cp
from surfres.exact_algebra import (
    INF,
    RATIONALS,
    InputError,
    ScopeError,
    hasse_derivative,
    translate,
)
from surfres.local_frame import Frame

from test_no_shadow_variables import (
    CONSTRAINT_FIELDS,
    FRAME_U12_Y,
    constraint_element,
    slide_generator,
)
from test_prepare_oracle import named_cases, outcome, slow_at_64  # noqa: F401

# ---------------------------------------------------------------------------
# the earlier search (the oracle)
# ---------------------------------------------------------------------------


def hasse_face_constraints(gens, frame, m_exp, alpha, beta):
    """The coefficient of c^k in g(u2 + c u1^m) is u1^(k m) D^(k) g, with
    D^(k) the k-th Hasse derivative in u2; the constraint of a point on the
    face line past the first vertex collects, for each k, the coefficient
    of its term divided by u1^(k m) in D^(k) g."""
    field = gens[0].field
    u2 = frame.u_block[1]
    constraints = []
    for g in gens:
        nu = cp.generator_order(g, frame)
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        buckets: dict[tuple[int, ...], dict[int, Any]] = {}
        for k in range(max([vec[ui[1]] for vec, _ in g.vectors]) + 1):
            for vec, c in hasse_derivative(g, {u2: k}).coefficient_map().items():
                moved = list(vec)
                moved[ui[0]] += k * m_exp
                buckets.setdefault(tuple(moved), {})[k] = c
        line = alpha + m_exp * beta
        for vec, bucket in buckets.items():
            d = nu - sum([vec[i] for i in yi])
            a1, a2 = [vec[i] for i in ui]
            if d > 0 and a1 + m_exp * a2 == line * d and a1 > alpha * d:
                coeffs = [field.zero()] * (max(bucket) + 1)
                for k, c in bucket.items():
                    coeffs[k] = c
                constraints.append(coeffs)
    return constraints


def divmod_uni_divmod(a, b, field):
    b = cp._uni_trim(b)
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    quot = [field.zero()] * max(0, len(rem) - len(b) + 1)
    inv = field.one() / b[-1]
    while len(cp._uni_trim(rem)) >= len(b):
        rem = cp._uni_trim(rem)
        shift = len(rem) - len(b)
        factor = rem[-1] * inv
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * cb
        rem.pop()
    return cp._uni_trim(quot), cp._uni_trim(rem)


def divmod_uni_gcd(a, b, field):
    a, b = cp._uni_trim(a), cp._uni_trim(b)
    while b:
        a, b = b, divmod_uni_divmod(a, b, field)[1]
    if a:
        inv = field.one() / a[-1]
        a = [c * inv for c in a]
    return a


def oracle_sigma_search(gens, frame, side, budget=32, prepare_budget=64):
    """(value, certified, substitutions) of the search on the prepared
    generators, their polyhedron rebuilt in the frame of the side."""
    if side not in (1, 2):
        raise InputError("side must be 1 or 2")
    if frame.e != 2:
        raise InputError("sigma needs a 2-dimensional u-block")
    work_frame = frame if side == 1 else Frame(
        (frame.u_block[1], frame.u_block[0]), frame.y_block, frame.boundary)
    field = gens[0].field
    current = list(gens)
    subs = []
    certified = True
    poly = cp.polyhedron_of(current, work_frame)
    if cp.face_numbers(poly, 1)[1] < 1:
        return (Fraction(1), True, ())
    for _ in range(budget):
        alpha, beta, _, s = cp.face_numbers(poly, 1)
        if s == INF or s.denominator != 1 or s < 1:
            break
        m_exp = int(s)
        constraints = hasse_face_constraints(current, work_frame, m_exp, alpha, beta)
        if not constraints:
            break
        g = constraints[0]
        for extra in constraints[1:]:
            g = divmod_uni_gcd(g, extra, field)
            if len(g) == 1:
                break
        g = cp._uni_trim(g)
        if len(g) <= 1:
            break
        roots, roots_certified = cp._uni_roots(g, field)
        if not roots:
            certified = certified and roots_certified
            break
        c = roots[0]
        u1, u2 = work_frame.u_block
        current = [translate(gg, u2, c, {u1: m_exp}) for gg in current]
        subs.append({"variable": u2, "coefficient": c, "exponent": m_exp})
        prep = cp.prepare(current, work_frame, budget=prepare_budget)
        current = list(prep.generators)
        if prep.status == cp.BUDGET_EXHAUSTED:
            certified = False
        poly = prep.polyhedron
        _, _, _, s_new = cp.face_numbers(poly, 1)
        if not (s_new > s):
            if not certified:
                break
            raise ScopeError(f"sigma on side {side}: a straightening substitution "
                             "left the first face's inverse slope unchanged")
    else:
        _, _, _, s = cp.face_numbers(poly, 1)
        certified = False
    return (max(Fraction(1), s), certified, tuple(subs))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


@pytest.fixture
def checked_constraints(monkeypatch) -> Counter:
    """Wrap ``_face_constraints`` and ``_uni_roots`` with the checks of the
    face argument; counts the constraint lists and the roots taken over Q."""
    seen: Counter = Counter()
    face_constraints, uni_roots = cp._face_constraints, cp._uni_roots

    def constraints(gens, frame, m_exp, alpha, beta):
        out = face_constraints(gens, frame, m_exp, alpha, beta)
        degrees = [len(c) - 1 for c in out]
        assert degrees and max(degrees) >= 1, degrees
        if gens[0].field.kind == RATIONALS:
            assert 1 in degrees, degrees
        seen["lists"] += 1
        return out

    def roots(a, field):
        if field.kind == RATIONALS:
            assert len(a) == 2, a
            seen["Q roots"] += 1
        return uni_roots(a, field)

    monkeypatch.setattr(cp, "_face_constraints", constraints)
    monkeypatch.setattr(cp, "_uni_roots", roots)
    return seen


def sigma_triple(prepared, frame, side, **budgets):
    result = outcome(cp.sigma_search, prepared, frame, side, **budgets)
    if isinstance(result, cp.SigmaResult):
        return (result.value, result.certified, result.substitutions)
    return result


def check_sides(name, prepared, frame, **budgets) -> int:
    """Compare both sides; the number of sides that straighten."""
    straightened = 0
    for side in (1, 2):
        got = sigma_triple(prepared, frame, side, **budgets)
        want = outcome(oracle_sigma_search, list(prepared.generators), frame,
                       side, **budgets)
        assert got == want, (name, side, budgets)
        straightened += isinstance(want, tuple) and len(want) == 3 and bool(want[2])
    return straightened


@pytest.mark.parametrize("budget", (8, 64))
def test_sigma_matches_the_earlier_search_on_every_named_chart(
        named_cases, checked_constraints, budget):  # noqa: F811
    checked = straightened = 0
    for name, gens, frame in named_cases:
        if frame.e != 2 or (budget == 64 and slow_at_64(gens, frame)):
            continue
        prepared = outcome(cp.prepare, gens, frame, budget=budget)
        if not isinstance(prepared, cp.PreparationResult):
            continue
        for sigma_budget in (4, 32):
            straightened += check_sides(name, prepared, frame, budget=sigma_budget)
        checked += 1
    assert checked >= 200
    assert straightened >= 8
    assert checked_constraints["lists"] >= 8
    assert checked_constraints["Q roots"] >= 16  # the oracle's calls count too


@pytest.mark.parametrize("name", sorted(CONSTRAINT_FIELDS))
def test_sigma_matches_the_earlier_search_on_slide_generators(
        checked_constraints, name):
    field = CONSTRAINT_FIELDS[name]
    rng = random.Random(f"sigma-{name}")
    straightened = 0
    for _ in range(80):
        gens = [slide_generator(rng, field, rng.randint(1, 3))]
        prepared = outcome(cp.prepare, gens, FRAME_U12_Y, budget=8)
        if not isinstance(prepared, cp.PreparationResult):
            continue  # a generator in the u-ideal
        straightened += check_sides(name, prepared, FRAME_U12_Y, budget=4)
    assert straightened >= 15
    assert checked_constraints["lists"] >= 60
    assert name != "Q" or checked_constraints["Q roots"] >= 60


@pytest.mark.parametrize("name", sorted(CONSTRAINT_FIELDS))
def test_face_constraints_match_the_hasse_derivatives(name):
    field = CONSTRAINT_FIELDS[name]
    rng = random.Random(f"hasse-{name}")
    nonempty = 0
    for _ in range(150):
        m = rng.randint(1, 3)
        gens = [slide_generator(rng, field, m) for _ in range(rng.randint(1, 2))]
        try:
            poly = cp.polyhedron_of(gens, FRAME_U12_Y)
        except InputError:  # a generator in the u-ideal
            continue
        if poly.is_empty:
            continue
        alpha, beta, _, s = cp.face_numbers(poly, 1)
        if s != INF and s.denominator == 1 and s >= 1:
            m = int(s)
        got = cp._face_constraints(gens, FRAME_U12_Y, m, alpha, beta)
        want = hasse_face_constraints(gens, FRAME_U12_Y, m, alpha, beta)
        assert Counter(map(tuple, got)) == Counter(map(tuple, want)), (
            name, [str(g) for g in gens], m)
        nonempty += bool(got)
    assert nonempty >= 60


@pytest.mark.parametrize("name", sorted(CONSTRAINT_FIELDS))
def test_uni_gcd_matches_the_divmod_gcd(name):
    field = CONSTRAINT_FIELDS[name]
    rng = random.Random(f"gcd-{name}")

    def poly(degree):
        return [constraint_element(rng, field) for _ in range(degree + 1)]

    def times(a, b):
        out = [field.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    shared = 0
    for _ in range(100):
        common = poly(rng.randint(0, 2))
        a = times(common, poly(rng.randint(0, 3)))
        b = times(common, poly(rng.randint(0, 3)))
        want = divmod_uni_gcd(a, b, field)
        assert cp._uni_gcd(a, b, field) == want, (name, a, b)
        shared += len(want) > 1
    assert shared >= 20
