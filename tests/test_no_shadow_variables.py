"""No computation adds a ring variable, checked against the versions that did.

* ``local_frame.translation_invariant`` decides whether f(X + T w) = f(X)
  by a pivot change of coordinates inside f's own ring.  The oracle is the
  earlier certificate, which appended a variable ``__T__`` and compared
  f(X + T w) with f there.  Seeded forms over Q, F_2, F_3, F_5,
  F_4 = F_2[s]/(s^2 + s + 1) and F_3(t) are compared, together with forms
  that are invariant by construction: sums of products of powers of linear
  forms that vanish on w.
* ``char_polyhedron._face_constraints`` reads the coefficient of c^k in
  g(u2 + c u1^m) off the terms on the face line.  The oracle is an
  earlier version, which appended a variable ``__C__`` and translated
  u2 <- u2 + __C__ u1^m.  The constraint multisets must agree on seeded
  generators over Q, F_2, F_3, F_2(t) and F_9, and the whole
  ``SigmaResult`` on every adapted-frame chart of the named traces.
* A job whose variable is named ``__T__`` or ``__C__`` gives, through the
  CLI, the report of the same job with an ordinary name, names mapped back.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from fractions import Fraction
from typing import Any

import pytest

from surfres import char_polyhedron as cp
from surfres.cli import EXIT_OK, EXIT_SCOPE, main
from surfres.exact_algebra import (
    FieldDescriptor,
    Fq,
    InputError,
    Polynomial,
    parse_polynomial,
    translate,
)
from surfres.local_frame import Frame, translation_invariant

from oracles import stored_row, zero_polynomial

from test_prepare_oracle import named_cases, outcome, unprepared  # noqa: F401
from test_translate_oracle import FIELDS, random_element

# ---------------------------------------------------------------------------
# the earlier versions (the oracles)
# ---------------------------------------------------------------------------


def lifted(f: Polynomial, name: str) -> Polynomial:
    """f in the ring with ``name`` appended to its variables."""
    return Polynomial.from_vectors(f.field, f.variables + (name,), {
        vec + (0,): c for vec, c in f.coefficient_map().items()})


def shadow_translation_invariant(f: Polynomial, w) -> bool:
    """f(X + T w) == f(X), compared in the ring extended by T."""
    lift = shifted = lifted(f, "__T__")
    for v, c in zip(f.variables, w):
        shifted = translate(shifted, v, c, {"__T__": 1})
    return shifted == lift


def shadow_face_constraints(gens, frame, m_exp, alpha, beta):
    """The constraints read off g(u2 + C u1^m) in the ring extended by C."""
    field = gens[0].field
    u1, u2 = frame.u_block
    constraints = []
    for g in gens:
        moved = translate(lifted(g, "__C__"), u2, field.one(),
                          {"__C__": 1, u1: m_exp})
        nu = cp.generator_order(g, frame)
        ui, yi = g.positions(frame.u_block), g.positions(frame.y_block)
        buckets: dict[tuple[int, ...], dict[int, Any]] = {}
        for vec, c in moved.coefficient_map().items():
            buckets.setdefault(vec[:-1], {})[vec[-1]] = c
        line = alpha + m_exp * beta
        for rest, bucket in buckets.items():
            d = nu - sum([rest[i] for i in yi])
            a1, a2 = [rest[i] for i in ui]
            if d > 0 and a1 + m_exp * a2 == line * d and a1 > alpha * d:
                coeffs = [field.zero()] * (max(bucket) + 1)
                for e, c in bucket.items():
                    coeffs[e] = c
                constraints.append(coeffs)
    return constraints


# ---------------------------------------------------------------------------
# translation_invariant
# ---------------------------------------------------------------------------

XYZW = ("x", "y", "z", "w")


def random_vector(rng: random.Random, field: FieldDescriptor) -> list:
    """A nonzero direction; its entries are zero about one time in eight."""
    while True:
        w = [random_element(rng, field) for _ in XYZW]
        if any(w):
            return w


def linear_form(field: FieldDescriptor, row) -> Polynomial:
    return Polynomial.from_vectors(field, XYZW, {
        tuple(int(j == i) for j in range(len(XYZW))): c
        for i, c in enumerate(row) if c})


def random_form(rng: random.Random, field: FieldDescriptor) -> Polynomial:
    """A nonzero form: a sum of up to five terms of one degree."""
    degree = rng.randint(1, 5)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        vec = [0] * len(XYZW)
        for _ in range(degree):
            vec[rng.randrange(len(XYZW))] += 1
        terms[tuple(vec)] = random_element(rng, field) or field.one()
    return Polynomial.from_vectors(field, XYZW, terms)


def form_vanishing_on(rng: random.Random, field: FieldDescriptor, w) -> Polynomial:
    """A sum of products of powers of linear forms L with L(w) = 0."""
    i = next(k for k, c in enumerate(w) if c)
    total = zero_polynomial(field, XYZW)
    for _ in range(rng.randint(1, 2)):
        product = Polynomial.constant(field, XYZW, random_element(rng, field) or field.one())
        for _ in range(rng.randint(1, 2)):
            row = [random_element(rng, field) for _ in XYZW]
            row[i] = field.zero()
            row[i] = -sum((a * b for a, b in zip(row, w)), field.zero()) / w[i]
            if any(row):
                product = product * linear_form(field, row) ** rng.randint(1, 3)
        total = total + product
    return total


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_translation_invariance_matches_the_shadow_variable(name):
    field = FIELDS[name]
    rng = random.Random(f"pivot-{name}")
    invariant = 0
    for case in range(120):
        w = random_vector(rng, field)
        if case % 2:
            f = form_vanishing_on(rng, field, w)
            if f.is_zero:
                continue
            assert translation_invariant(f, stored_row(field, w)), (
                name, str(f), w)
        else:
            f = random_form(rng, field)
        expected = shadow_translation_invariant(f, w)
        assert translation_invariant(f, stored_row(field, w)) == expected, (
            name, str(f), w)
        invariant += expected
    assert invariant >= 55


def test_translation_invariance_in_characteristic_p_without_a_linear_factor():
    # f(X + T w) - f(X) holds only p-th powers of T here: x^p + t y^p moves
    # by T^p (w_x^p + t w_y^p), which no w over F_p cancels, and (x + y)^p
    # by T^p (w_x + w_y)^p
    for p in (2, 3, 5):
        field = FieldDescriptor.rational_functions(p)
        t = field.transcendental()
        f = parse_polynomial(f"x^{p} + t*y^{p}", field, XYZW)
        for w, answer in [((0, 0, 1, 0), True), ((1, 0, 0, 0), False),
                          ((1, 1, 0, 0), False), ((0, 1, 0, 1), False)]:
            w = [field.from_int(c) for c in w]
            assert translation_invariant(f, stored_row(field, w)) is answer
            assert shadow_translation_invariant(f, w) is answer
        g = parse_polynomial(f"(x + y)^{p}", field, XYZW)
        w = [t, -t, field.zero(), field.zero()]
        assert (translation_invariant(g, stored_row(field, w))
                and shadow_translation_invariant(g, w))
        w = [t, t + field.one(), field.zero(), field.zero()]
        assert not translation_invariant(g, stored_row(field, w))
        assert not shadow_translation_invariant(g, w)


# ---------------------------------------------------------------------------
# _face_constraints
# ---------------------------------------------------------------------------

U1U2Y = ("u1", "u2", "y")
FRAME_U12_Y = Frame(("u1", "u2"), ("y",))
F9 = FieldDescriptor.finite_extension(3, (1, 0, 1))
CONSTRAINT_FIELDS = {
    "Q": FieldDescriptor.rationals(), "F2": FieldDescriptor.prime_field(2),
    "F3": FieldDescriptor.prime_field(3),
    "F2(t)": FieldDescriptor.rational_functions(2), "F9": F9}


def constraint_element(rng: random.Random, field: FieldDescriptor) -> Any:
    if field is F9:
        return Fq((rng.randrange(3), rng.randrange(3)), 3, F9.modulus)
    return random_element(rng, field)


def slide_generator(rng: random.Random, field: FieldDescriptor, m: int) -> Polynomial:
    """y^nu plus u1^a (u2 - c u1^m)^k y^b plus a few random terms, so that
    the first face often carries a straightenable slide."""
    u1, u2, y = (Polynomial.variable(field, U1U2Y, v) for v in U1U2Y)
    nu = rng.randint(2, 3)
    c = constraint_element(rng, field)
    k = rng.randint(1, 4)
    g = y ** nu + u1 ** rng.randint(0, 3) * (
        u2 - u1 ** m * Polynomial.constant(field, U1U2Y, c)) ** k * y ** rng.randint(0, nu - 1)
    for _ in range(rng.randint(0, 3)):
        vec = (rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, nu))
        g = g + Polynomial.from_vectors(field, U1U2Y, {vec: constraint_element(rng, field)})
    return g


def as_multiset(constraints) -> Counter:
    return Counter(tuple(c) for c in constraints)


@pytest.mark.parametrize("name", sorted(CONSTRAINT_FIELDS))
def test_face_constraints_match_the_shadow_variable(name):
    field = CONSTRAINT_FIELDS[name]
    rng = random.Random(f"faces-{name}")
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
        if s != cp.INF and s.denominator == 1 and s >= 1:
            m = int(s)
        got = cp._face_constraints(gens, FRAME_U12_Y, m, alpha, beta)
        want = shadow_face_constraints(gens, FRAME_U12_Y, m, alpha, beta)
        assert as_multiset(got) == as_multiset(want), (name, [str(g) for g in gens], m)
        nonempty += bool(got)
    assert nonempty >= 60


def test_sigma_matches_the_shadow_variable_on_every_named_chart(
        named_cases, monkeypatch):  # noqa: F811
    """Each chart with a two-variable u-block, as it stands and prepared at
    budget 8 (what ``polyhedron`` at budget 8 hands sigma)."""
    cases = []
    for name, gens, frame in named_cases:
        if frame.e == 2:
            for key, prepared in ((name, outcome(unprepared, gens, frame)), (
                    f"{name}:prepared", outcome(cp.prepare, gens, frame, budget=8))):
                if isinstance(prepared, cp.PreparationResult):
                    cases.append((key, prepared, frame))
    assert len(cases) > 400
    results = {}
    for name, prepared, frame in cases:
        for side in (1, 2):
            results[name, side] = outcome(cp.sigma_search, prepared, frame, side, 4)
    monkeypatch.setattr(cp, "_face_constraints", shadow_face_constraints)
    straightened = 0
    for name, prepared, frame in cases:
        for side in (1, 2):
            want = outcome(cp.sigma_search, prepared, frame, side, 4)
            assert results[name, side] == want, (name, side)
            straightened += isinstance(want, cp.SigmaResult) and bool(want.substitutions)
    assert straightened >= 10


# ---------------------------------------------------------------------------
# the CLI on jobs that name a variable like the shadow variables
# ---------------------------------------------------------------------------

def cli_run(monkeypatch, capsys, argv, job) -> tuple[int, str, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code = main(argv + ["-"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def renamed(job: dict, old: str, new: str) -> dict:
    return json.loads(json.dumps(job).replace(old, new))


E8_JOB = {"field": {"kind": "rationals"}, "variables": ["x", "y", "__T__"],
          "generators": ["x^2 + y^3 + __T__^5"]}
SURFACE_JOB = {"field": {"kind": "rationals"}, "variables": ["x", "y", "__T__"],
               "generators": ["x^2 + y^9*__T__^10"]}
SLIDE_JOB = {"field": {"kind": "rationals"}, "variables": ["__C__", "u2", "y"],
             "generators": ["y^2 + __C__^2*(u2 - 3*__C__^2)^2"],
             "frame": {"u": ["__C__", "u2"], "y": ["y"]}}

# the ordinary names sort among the others as the shadow names do
SHADOW_JOBS = [
    (["analyze"], E8_JOB, "__T__", "a", EXIT_OK),
    (["invariant"], E8_JOB, "__T__", "a", EXIT_OK),
    # the E8 surface ends on a stratum component cut by a non-coordinate
    # condition, with either name
    (["resolve"], E8_JOB, "__T__", "a", EXIT_SCOPE),
    (["analyze"], SURFACE_JOB, "__T__", "a", EXIT_OK),
    (["invariant"], SURFACE_JOB, "__T__", "a", EXIT_OK),
    (["resolve"], SURFACE_JOB, "__T__", "a", EXIT_OK),
    (["export", "--format", "json"], SURFACE_JOB, "__T__", "a", EXIT_OK),
    (["export", "--format", "dot"], SURFACE_JOB, "__T__", "a", EXIT_OK),
    (["polyhedron"], SLIDE_JOB, "__C__", "u1", EXIT_OK),
]


@pytest.mark.parametrize("argv, job, shadow, ordinary, code", SHADOW_JOBS)
def test_a_shadow_variable_name_gives_the_ordinary_report(
        monkeypatch, capsys, argv, job, shadow, ordinary, code):
    got = cli_run(monkeypatch, capsys, argv, job)
    want = cli_run(monkeypatch, capsys, argv, renamed(job, shadow, ordinary))
    assert got[0] == want[0] == code, got[2]
    assert got[1].replace(shadow, ordinary) == want[1]
    assert got[2].replace(shadow, ordinary) == want[2]
    assert shadow in got[1]


def test_the_slide_job_straightens_its_face():
    gens = [parse_polynomial(SLIDE_JOB["generators"][0], FieldDescriptor.rationals(),
                             tuple(SLIDE_JOB["variables"]))]
    frame = Frame(("__C__", "u2"), ("y",))
    result = cp.sigma_search(cp.prepare(gens, frame), frame, 1)
    assert result.value == cp.INF and result.certified
    assert result.substitutions == (
        {"variable": "u2", "coefficient": Fraction(3), "exponent": 2},)
