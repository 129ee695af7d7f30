"""Tests for frames, order vectors, ridge, and directrix."""

from __future__ import annotations

import itertools
import random

import pytest

from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    parse_polynomial,
)
from surfres.local_frame import (
    BoundaryComponent,
    Frame,
    NuStar,
    compose_with_old_boundary,
    compute_directrix,
    compute_ridge,
    directrix_of_JO,
    initial_form,
    matrix_kernel,
    nu_star,
    row_reduce,
    translation_invariant,
)

from oracles import Monomial, coefficient, make

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)


# ---------------------------------------------------------------------------
# NuStar ordering
# ---------------------------------------------------------------------------

def test_nu_star_prefix_dominates_extension():
    assert NuStar((2,)) > NuStar((2, 3))
    assert NuStar((2, 3)) < NuStar((2,))
    assert NuStar((1,)) < NuStar((2,))
    assert NuStar((2, 3)) == NuStar((2, 3))
    assert NuStar((2, 3)) <= NuStar((2, 3))
    assert NuStar((3,)) > NuStar((2, 5, 9))


def test_nu_star_validation():
    with pytest.raises(InputError):
        NuStar(())
    with pytest.raises(InputError):
        NuStar((3, 2))


# ---------------------------------------------------------------------------
# initial forms and nu_star
# ---------------------------------------------------------------------------

def test_initial_form_examples():
    f = parse_polynomial("x^2 - y^2*z", QQ, ("x", "y", "z"))
    assert initial_form(f, f.variables) == parse_polynomial("x^2", QQ, f.variables)

    g = parse_polynomial("y", QQ, ("y",))
    assert initial_form(g, g.variables) == g

    vs = ("t", "x", "y", "z")
    h = parse_polynomial("t^2 + x*y^2 + z^3 + x^5*y", F2, vs)
    assert initial_form(h, vs) == parse_polynomial("t^2", F2, vs)


def test_initial_form_partial_variables():
    f = parse_polynomial("y^2 + y*u1 + u1^3", QQ, ("u1", "y"))
    # minimal u1-degree is 0, achieved by y^2 alone
    assert initial_form(f, ("u1",)) == parse_polynomial("y^2", QQ, ("u1", "y"))


def test_initial_form_zero_rejected():
    with pytest.raises(InputError):
        initial_form(Polynomial.zero(QQ, ("x",)), ("x",))


def test_nu_star_examples():
    f = parse_polynomial("x^2 + y^9*z^10", QQ, ("x", "y", "z"))
    assert nu_star([f]) == NuStar((2,))
    assert nu_star([parse_polynomial("y", QQ, ("y",))]) == NuStar((1,))
    g = parse_polynomial("x*(x^2 + y^3)", QQ, ("x", "y"))
    assert nu_star([g]) == NuStar((3,))


# ---------------------------------------------------------------------------
# old-boundary composition
# ---------------------------------------------------------------------------

def _frame_with_old(vs, u, y, old_gens, field):
    comps = tuple(
        BoundaryComponent(parse_polynomial(g, field, vs), "old") for g in old_gens
    )
    return Frame(u, y, comps)


def test_compose_with_old_boundary():
    vs = ("u1", "u2", "y")
    f = parse_polynomial("y^2 + u1^3", QQ, vs)

    empty = Frame(("u1", "u2"), ("y",))
    assert compose_with_old_boundary([f], empty) == [f]

    fr = _frame_with_old(vs, ("u1", "u2"), ("y",), ["u1"], QQ)
    assert compose_with_old_boundary([f], fr) == [
        parse_polynomial("u1*y^2 + u1^4", QQ, vs)
    ]

    fr2 = _frame_with_old(vs, ("u1", "u2"), ("y",), ["u1", "u2"], QQ)
    assert compose_with_old_boundary([f], fr2) == [
        parse_polynomial("u1*u2*y^2 + u1^4*u2", QQ, vs)
    ]


def test_compose_shifts_nu_star_by_old_count():
    rng = random.Random(7013)
    vs = ("u1", "u2", "y")
    for _ in range(25):
        field = [QQ, F2, F3][rng.randint(0, 2)]
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = {v: rng.randint(0, 3) for v in vs}
            if sum(exps.values()) == 0:
                exps["y"] = 1
            terms[Monomial.from_dict(exps)] = field.from_int(rng.randint(1, 5))
        f = make(field, vs, terms)
        if f.is_zero:
            continue
        for olds in (["u1"], ["u1", "u2"]):
            fr = _frame_with_old(vs, ("u1", "u2"), ("y",), olds, field)
            shifted = nu_star(compose_with_old_boundary([f], fr))
            base = nu_star([f])
            assert shifted.orders == tuple(o + len(olds) for o in base.orders)


def test_boundary_component_must_be_regular():
    with pytest.raises(InputError):
        BoundaryComponent(parse_polynomial("u1^2", QQ, ("u1",)), "old")
    with pytest.raises(InputError):
        BoundaryComponent(parse_polynomial("u1", QQ, ("u1",)), "elderly")


def test_frame_validation():
    with pytest.raises(InputError):
        Frame(("u1",), ("u1",))


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def test_row_reduce_and_kernel():
    one, two = QQ.from_int(1), QQ.from_int(2)
    rows = [[one, two, one], [two, QQ.from_int(4), two]]
    rref = row_reduce(rows, QQ)
    assert len(rref) == 1
    kern = matrix_kernel(rows, 3, QQ)
    assert len(kern) == 2
    for vec in kern:
        assert sum((r * v for r, v in zip(rows[0], vec)), QQ.zero()) == QQ.zero()


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def test_ridge_char0_quadric():
    f = parse_polynomial("y^2", QQ, ("u", "y"))
    [s] = compute_ridge([f])
    assert s == parse_polynomial("y", QQ, ("u", "y"))


def test_ridge_char0_binomial_square():
    f = parse_polynomial("(y + u)^2", QQ, ("u", "y"))
    [s] = compute_ridge([f])
    assert s == parse_polynomial("u + y", QQ, ("u", "y"))


def test_ridge_nonperfect_additive_form():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        f = parse_polynomial(f"y^{p} + t*u^{p}", K, ("u", "y"))
        [s] = compute_ridge([f])
        assert s == f


def test_ridge_rejects_inhomogeneous():
    with pytest.raises(InputError):
        compute_ridge([parse_polynomial("y^2 + u", QQ, ("u", "y"))])


def test_ridge_frobenius_power_not_duplicated():
    # y^2 and y^4 = (y^2)^2 over F_2: the degree-4 additive element is already
    # generated by the degree-2 one, so only one generator survives.
    f1 = parse_polynomial("y^2", F2, ("u", "y"))
    f2 = parse_polynomial("y^4", F2, ("u", "y"))
    sigmas = compute_ridge([f1, f2])
    assert sigmas == [parse_polynomial("y", F2, ("u", "y"))] or sigmas == [
        parse_polynomial("y^2", F2, ("u", "y"))
    ]


# ---------------------------------------------------------------------------
# directrix
# ---------------------------------------------------------------------------

def _one_hot(field, n, i):
    return [field.one() if j == i else field.zero() for j in range(n)]


def test_directrix_nonperfect_transcendental_coefficient():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        vs = ("u1", "u2", "y")
        fr = Frame(("u1", "u2"), ("y",))
        f = parse_polynomial(f"y^{p} + t*u1^{p}", K, vs)
        r, forms = compute_directrix([f], fr)
        assert r == 2
        # the directrix is the u2-axis: forms vanish on e_{u2}
        w = _one_hot(K, 3, 1)
        for form in forms:
            val = sum(
                (coefficient(form, Monomial.from_dict({v: 1})) * c for v, c in zip(vs, w)),
                K.zero(),
            )
            assert val == K.zero()


def test_directrix_p_power_coefficient_is_larger():
    for p in (2, 3):
        K = FieldDescriptor.rational_functions(p, "t")
        vs = ("u1", "u2", "y")
        fr = Frame(("u1", "u2"), ("y",))
        t = K.transcendental()
        # lam = t^p is a p-th power, so y^p + lam*u1^p = (y + t*u1)^p
        f = parse_polynomial(f"y^{p} + t^{p}*u1^{p}", K, vs)
        r, forms = compute_directrix([f], fr)
        assert r == 1
        [form] = forms
        # form is proportional to y + t*u1
        cy = coefficient(form, Monomial.from_dict({"y": 1}))
        cu = coefficient(form, Monomial.from_dict({"u1": 1}))
        assert cu / cy == t


def test_directrix_char0_single_square():
    vs = ("x", "y", "z")
    fr = Frame(("y", "z"), ("x",))
    r, forms = compute_directrix([parse_polynomial("x^2", QQ, vs)], fr)
    assert r == 1
    assert forms == [parse_polynomial("x", QQ, vs)]


def brute_force_directrix_dim(initials, field, variables):
    """Enumerate all direction vectors over a finite prime field and return
    the dimension of the translation-invariant subspace."""
    p = field.characteristic
    invariant = []
    for combo in itertools.product(range(p), repeat=len(variables)):
        w = [field.from_int(c) for c in combo]
        if all(translation_invariant(f, w) for f in initials):
            invariant.append(w)
    rows = [list(w) for w in invariant]
    return len(row_reduce(rows, field)) if rows else 0


def random_homogeneous(rng, field, variables, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        # random composition of `degree` into len(variables) parts
        cuts = sorted(rng.randint(0, degree) for _ in range(len(variables) - 1))
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(degree - prev)
        exps = {v: e for v, e in zip(variables, parts) if e}
        c = field.from_int(rng.randint(1, field.characteristic - 1))
        m = Monomial.from_dict(exps)
        terms[m] = terms.get(m, field.zero()) + c
    return make(field, variables, terms)


def test_directrix_matches_brute_force_oracle():
    rng = random.Random(33211)
    checked = 0
    while checked < 60:
        field = [F2, F3][checked % 2]
        nvars = rng.randint(2, 3)
        vs = ("x", "y", "z")[:nvars]
        fr = Frame(vs[:-1], vs[-1:])
        initials = []
        for _ in range(rng.randint(1, 2)):
            f = random_homogeneous(rng, field, vs, rng.randint(1, 4))
            if not f.is_zero:
                initials.append(f)
        if not initials:
            continue
        r, forms = compute_directrix(initials, fr)
        dim_oracle = brute_force_directrix_dim(initials, field, vs)
        assert len(vs) - r == dim_oracle, (
            f"directrix mismatch for {[str(f) for f in initials]}: "
            f"r={r}, oracle dim={dim_oracle}"
        )
        checked += 1


# ---------------------------------------------------------------------------
# directrix of J * old-boundary
# ---------------------------------------------------------------------------

def test_directrix_of_JO_examples():
    vs = ("u1", "u2", "y")
    g = parse_polynomial("y^2 + u1^3", QQ, vs)

    fr_empty = Frame(("u1", "u2"), ("y",))
    e_o, forms = directrix_of_JO([g], fr_empty)
    assert e_o == 2
    assert forms == [parse_polynomial("y", QQ, vs)]

    fr_u1 = _frame_with_old(vs, ("u1", "u2"), ("y",), ["u1"], QQ)
    e_o, forms = directrix_of_JO([g], fr_u1)
    assert e_o == 1
    assert parse_polynomial("u1", QQ, vs) in forms
    assert parse_polynomial("y", QQ, vs) in forms

    fr_tangent = _frame_with_old(vs, ("u1", "u2"), ("y",), ["y + u2^2"], QQ)
    e_o, forms = directrix_of_JO([g], fr_tangent)
    assert e_o == 2
    assert forms == [parse_polynomial("y", QQ, vs)]
