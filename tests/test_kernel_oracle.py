"""Differential tests of the polynomial kernel.

Products, powers, substitutions and Hasse derivatives of seeded random
polynomials over Q and F_p (p = 2, 3, 5) are checked against sympy, and the
substitutions also against the earlier shadow-variable implementation, kept
below as the old-path oracle.  Printing and re-parsing must round-trip.
Every result is also checked to be in canonical form.  Stored
coefficients are field-native (ints for integral rationals and for F_p
residues): mixed integral and fractional rationals, and long F_97
accumulations that run unreduced, are checked against sympy too, and so are
the public elements the polynomials hand out.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Any, Mapping

import pytest

from surfres.exact_algebra import (
    FieldDescriptor,
    Fp,
    InputError,
    Polynomial,
    hasse_derivative,
    parse_polynomial,
    substitute,
    substitute_many,
    to_string,
)

from oracles import Monomial, coefficient, make, terms
from test_exact_algebra import stored_form_problems

sympy = pytest.importorskip("sympy")

VARIABLES = ("x", "y", "z", "w")
SYMBOLS = sympy.symbols(VARIABLES)
FIELDS = [FieldDescriptor.rationals()] + [
    FieldDescriptor.prime_field(p) for p in (2, 3, 5)]
CASES = 30


def field_id(field: FieldDescriptor) -> str:
    return f"F{field.characteristic}" if field.characteristic else "Q"


def random_coefficient(rng: random.Random, field: FieldDescriptor) -> Any:
    if field.characteristic:
        return field.from_int(rng.randrange(1, field.characteristic))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))


def random_polynomial(rng: random.Random, field: FieldDescriptor,
                      max_terms: int = 5, max_exp: int = 3) -> Polynomial:
    terms: dict[Monomial, Any] = {}
    for _ in range(rng.randint(0, max_terms)):
        m = Monomial.from_dict({v: rng.randint(0, max_exp) for v in VARIABLES
                                if rng.random() < 0.5})
        terms[m] = random_coefficient(rng, field)
    return make(field, VARIABLES, terms)


def lift(f: Polynomial) -> sympy.Expr:
    """f as a sympy expression over Q; over F_p the residues are lifted to Z."""
    expr = sympy.Integer(0)
    for m, c in terms(f):
        coeff = (sympy.Integer(c.value) if f.field.characteristic
                 else sympy.Rational(c.numerator, c.denominator))
        expr += coeff * sympy.Mul(*(s ** m.exponent(v)
                                    for v, s in zip(VARIABLES, SYMBOLS)))
    return expr


def to_sympy(f: Polynomial) -> sympy.Poly:
    return as_poly(lift(f), f.field)


def as_poly(expr: Any, field: FieldDescriptor) -> sympy.Poly:
    if field.characteristic:
        return sympy.Poly(sympy.expand(expr), *SYMBOLS,
                          modulus=field.characteristic)
    return sympy.Poly(sympy.expand(expr), *SYMBOLS, domain="QQ")


def sympy_hasse(f: Polynomial, a: Mapping[str, int]) -> sympy.Poly:
    """D_A f = (1/A!) d^A f, computed over Z or Q and then reduced mod p.

    Over F_p the integer lift of f has an integral Hasse derivative, and
    reduction mod p commutes with it.
    """
    lifted = lift(f)
    for v, s in zip(VARIABLES, SYMBOLS):
        k = a.get(v, 0)
        if k:
            lifted = sympy.diff(lifted, s, k) / factorial(k)
    return as_poly(lifted, f.field)


# -- the earlier implementation, kept as an oracle ---------------------------

def old_substitute(f: Polynomial, var: str, expr: Polynomial) -> Polynomial:
    """One partial sum at a time, each canonicalised."""
    if var not in f.variables:
        raise InputError(f"unknown variable {var!r} in substitute")
    by_exp: dict[int, dict[Monomial, Any]] = {}
    for m, c in terms(f):
        e = m.exponent(var)
        rest = Monomial.from_dict({v: k for v, k in m.exps if v != var})
        bucket = by_exp.setdefault(e, {})
        s = bucket.get(rest)
        bucket[rest] = c if s is None else s + c
    result = Polynomial.zero(f.field, f.variables)
    cached = {0: Polynomial.constant(f.field, f.variables, f.field.one())}
    for e in range(1, max(by_exp, default=0) + 1):
        cached[e] = cached[e - 1] * expr
    for e, bucket in sorted(by_exp.items()):
        partial = make(f.field, f.variables, bucket)
        result = result + partial * cached[e]
    return result


def old_substitute_many(f: Polynomial,
                        assignments: Mapping[str, Polynomial]) -> Polynomial:
    """Simultaneous substitution through fresh shadow variables."""
    if not assignments:
        return f
    shadow = {v: f"__tmp_{i}__" for i, v in enumerate(assignments)}
    extended = f.variables + tuple(shadow[v] for v in assignments)
    lifted = make(f.field, extended, dict(terms(f)))
    for v, sv in shadow.items():
        lifted = old_substitute(lifted, v,
                                Polynomial.variable(f.field, extended, sv))
    for v, expr in assignments.items():
        lifted = old_substitute(lifted, shadow[v],
                                make(f.field, extended, dict(terms(expr))))
    return make(f.field, f.variables, dict(terms(lifted)))


def assert_canonical_form(f: Polynomial) -> None:
    """f equals, and hashes like, what ``make`` builds from its
    own terms; no coefficient is zero; and the terms are listed in strictly
    descending canonical order: ascending total degree, then descending
    exponent vector."""
    again = make(f.field, f.variables, dict(terms(f)))
    assert f == again and hash(f) == hash(again)
    assert all(c for _, c in terms(f))
    keys = [(-m.degree(), tuple(m.exponent(v) for v in f.variables))
            for m, _ in terms(f)]
    assert all(a > b for a, b in zip(keys, keys[1:]))


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_products_and_powers_match_sympy(field):
    rng = random.Random(1000 + field.characteristic)
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        g = random_polynomial(rng, field)
        assert to_sympy(f * g) == to_sympy(f) * to_sympy(g)
        e = rng.randint(0, 4)
        small = random_polynomial(rng, field, 3, 2)
        assert to_sympy(small ** e) == to_sympy(small) ** e
        for result in (f * g, small ** e):
            assert_canonical_form(result)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_substitute_matches_sympy_and_the_old_path(field):
    rng = random.Random(2000 + field.characteristic)
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        var = rng.choice(VARIABLES)
        expr = random_polynomial(rng, field, 3, 2)
        got = substitute(f, var, expr)
        assert got == old_substitute(f, var, expr)
        expected = lift(f).xreplace({SYMBOLS[VARIABLES.index(var)]: lift(expr)})
        assert to_sympy(got) == as_poly(expected, field)
        assert_canonical_form(got)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_substitute_many_is_simultaneous(field):
    rng = random.Random(3000 + field.characteristic)
    for case in range(CASES):
        f = random_polynomial(rng, field)
        chosen = rng.sample(VARIABLES, rng.randint(1, 3))
        assignments = {v: random_polynomial(rng, field, 3, 2) for v in chosen}
        if case % 3 == 0:
            # a swap: each expression mentions the other's variable
            a, b = rng.sample(VARIABLES, 2)
            assignments = {
                a: Polynomial.variable(field, VARIABLES, b),
                b: Polynomial.variable(field, VARIABLES, a)
                + random_polynomial(rng, field, 2, 2),
            }
        got = substitute_many(f, assignments)
        assert got == old_substitute_many(f, assignments)
        expected = lift(f).xreplace({SYMBOLS[VARIABLES.index(v)]: lift(e)
                                     for v, e in assignments.items()})
        assert to_sympy(got) == as_poly(expected, field)
        assert_canonical_form(got)


def test_substitute_many_swap_is_not_sequential():
    field = FIELDS[0]
    f = parse_polynomial("x^2*y + 3*y", field, VARIABLES)
    swap = {"x": parse_polynomial("y", field, VARIABLES),
            "y": parse_polynomial("x", field, VARIABLES)}
    assert substitute_many(f, swap) == parse_polynomial(
        "y^2*x + 3*x", field, VARIABLES)


def test_substitute_many_rejects_unknown_variables():
    field = FIELDS[0]
    f = parse_polynomial("x + y", field, VARIABLES)
    other = parse_polynomial("t", field, ("t",) + VARIABLES)
    with pytest.raises(InputError):
        substitute_many(f, {"t": f})
    with pytest.raises(InputError):
        substitute_many(f, {"x": other})


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_hasse_derivative_matches_sympy(field):
    rng = random.Random(4000 + field.characteristic)
    for _ in range(CASES):
        f = random_polynomial(rng, field, 5, 5)
        a = {v: rng.randint(0, 3) for v in rng.sample(VARIABLES, 2)}
        assert to_sympy(hasse_derivative(f, a)) == sympy_hasse(f, a)
        assert_canonical_form(hasse_derivative(f, a))


@pytest.mark.parametrize("field", FIELDS + [
    FieldDescriptor.rational_functions(3, "t"),
    FieldDescriptor.finite_extension(2, (1, 1, 1), "s"),
], ids=lambda f: f.kind + str(f.characteristic))
def test_printing_round_trips(field):
    rng = random.Random(5000 + field.characteristic)
    extra = ["t", "t^2 + 1", "(t+2)/(t^2+1)"] if field.transcendental_name \
        else ["s", "s + 1"] if field.generator_name else []
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        if extra:
            c = parse_polynomial(rng.choice(extra), field, VARIABLES)
            f = f * c
        assert parse_polynomial(to_string(f), field, VARIABLES) == f
        assert_canonical_form(parse_polynomial(to_string(f), field, VARIABLES))


# -- a ring whose variable tuple is not in name order -------------------------
#
# Products and substitutions work on exponent vectors aligned with the ring's
# variable tuple, while a Monomial lists its (name, exponent) pairs in name
# order; here the two orders differ.

UNSORTED = ("z", "a", "y")
UNSORTED_SYMBOLS = sympy.symbols(UNSORTED)


def unsorted_polynomial(rng: random.Random, field: FieldDescriptor,
                        max_terms: int = 5, max_exp: int = 3) -> Polynomial:
    terms: dict[Monomial, Any] = {}
    for _ in range(rng.randint(0, max_terms)):
        m = Monomial.from_dict({v: rng.randint(0, max_exp) for v in UNSORTED
                                if rng.random() < 0.5})
        terms[m] = random_coefficient(rng, field)
    return make(field, UNSORTED, terms)


def unsorted_expression(rng: random.Random, field: FieldDescriptor) -> Polynomial:
    """A zero, constant, one-term or general expression (the first three
    have closed-form powers)."""
    kind = rng.randrange(4)
    if kind == 0:
        return Polynomial.zero(field, UNSORTED)
    if kind == 1:
        return Polynomial.constant(field, UNSORTED, random_coefficient(rng, field))
    if kind == 2:
        m = Monomial.from_dict({v: rng.randint(0, 3) for v in UNSORTED})
        return make(field, UNSORTED, {m: random_coefficient(rng, field)})
    return unsorted_polynomial(rng, field, 3, 2)


def unsorted_lift(f: Polynomial) -> sympy.Expr:
    expr = sympy.Integer(0)
    for m, c in terms(f):
        coeff = (sympy.Integer(c.value) if f.field.characteristic
                 else sympy.Rational(c.numerator, c.denominator))
        expr += coeff * sympy.Mul(*(s ** m.exponent(v)
                                    for v, s in zip(UNSORTED, UNSORTED_SYMBOLS)))
    return expr


def unsorted_poly(expr: Any, field: FieldDescriptor) -> sympy.Poly:
    if field.characteristic:
        return sympy.Poly(sympy.expand(expr), *UNSORTED_SYMBOLS,
                          modulus=field.characteristic)
    return sympy.Poly(sympy.expand(expr), *UNSORTED_SYMBOLS, domain="QQ")


def assert_canonical(f: Polynomial) -> None:
    """Every monomial lists its names in name order, and the terms are in
    the order ``make`` gives."""
    for m, _ in terms(f):
        assert m == Monomial.from_dict(m.as_dict())
    assert f == make(f.field, f.variables, dict(terms(f)))


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_unsorted_ring_products_and_powers_match_sympy(field):
    rng = random.Random(6000 + field.characteristic)
    for _ in range(CASES):
        f = unsorted_polynomial(rng, field)
        g = unsorted_polynomial(rng, field)
        product = f * g
        assert_canonical(product)
        assert_canonical_form(product)
        assert unsorted_poly(unsorted_lift(product), field) == unsorted_poly(
            unsorted_lift(f) * unsorted_lift(g), field)
        e = rng.randint(0, 4)
        small = unsorted_polynomial(rng, field, 3, 2)
        assert_canonical(small ** e)
        assert_canonical_form(small ** e)
        assert unsorted_poly(unsorted_lift(small ** e), field) == unsorted_poly(
            unsorted_lift(small) ** e, field)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_unsorted_ring_substitutions_match_sympy(field):
    rng = random.Random(7000 + field.characteristic)
    for _ in range(CASES):
        f = unsorted_polynomial(rng, field, 6, 6)
        var = rng.choice(UNSORTED)
        expr = unsorted_expression(rng, field)
        got = substitute(f, var, expr)
        assert_canonical(got)
        assert_canonical_form(got)
        expected = unsorted_lift(f).xreplace(
            {UNSORTED_SYMBOLS[UNSORTED.index(var)]: unsorted_lift(expr)})
        assert unsorted_poly(unsorted_lift(got), field) == unsorted_poly(
            expected, field)
        chosen = rng.sample(UNSORTED, rng.randint(1, 3))
        assignments = {v: unsorted_expression(rng, field) for v in chosen}
        got = substitute_many(f, assignments)
        assert_canonical(got)
        assert_canonical_form(got)
        expected = unsorted_lift(f).xreplace(
            {UNSORTED_SYMBOLS[UNSORTED.index(v)]: unsorted_lift(e)
             for v, e in assignments.items()})
        assert unsorted_poly(unsorted_lift(got), field) == unsorted_poly(
            expected, field)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_unsorted_ring_printing_round_trips(field):
    rng = random.Random(8000 + field.characteristic)
    for _ in range(CASES):
        f = unsorted_polynomial(rng, field)
        assert parse_polynomial(to_string(f), field, UNSORTED) == f
        assert_canonical_form(parse_polynomial(to_string(f), field, UNSORTED))


def test_closed_form_powers_of_one_term_expressions():
    field = FIELDS[0]
    f = parse_polynomial("y^40*z + 3*y^2 - a", field, UNSORTED)
    w = parse_polynomial("-2/3*a*y", field, UNSORTED)
    got = substitute(f, "y", w)
    assert got == parse_polynomial(
        "(-2/3)^40*a^40*y^40*z + 4/3*a^2*y^2 - a", field, UNSORTED)
    assert substitute(f, "y", Polynomial.zero(field, UNSORTED)) \
        == parse_polynomial("-a", field, UNSORTED)
    assert substitute(f, "y", parse_polynomial("2", field, UNSORTED)) \
        == parse_polynomial("2^40*z + 12 - a", field, UNSORTED)
    # the blow-up's v -> v*w on a huge power is one step, not 10**11
    huge = make(field, UNSORTED,
                {Monomial.from_dict({"y": 10**11, "a": 1}): field.one()})
    blown_up = substitute(huge, "y", parse_polynomial("y*z", field, UNSORTED))
    assert terms(blown_up) == (
        (Monomial.from_dict({"y": 10**11, "z": 10**11, "a": 1}), field.one()),)


# -- stored coefficients against sympy ----------------------------------------

QQ = FIELDS[0]
F97 = FieldDescriptor.prime_field(97)


def mixed_rational_polynomial(rng: random.Random, max_terms: int = 6,
                              max_exp: int = 3) -> Polynomial:
    """Integral and fractional coefficients side by side, so that int and
    Fraction meet in every product and sum."""
    terms: dict[Monomial, Any] = {}
    for _ in range(rng.randint(1, max_terms)):
        m = Monomial.from_dict({v: rng.randint(0, max_exp) for v in VARIABLES
                                if rng.random() < 0.5})
        terms[m] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
    return make(QQ, VARIABLES, terms)


def dense_f97_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """Every monomial of total degree <= ``degree`` in x, y, z with a
    coefficient in 80..96, so that each product sums many large residues."""
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                terms[Monomial.from_dict({"x": a, "y": b, "z": c})] = \
                    F97.from_int(rng.randint(80, 96))
    return make(F97, VARIABLES, terms)


def from_sympy(poly: sympy.Poly, field: FieldDescriptor) -> Polynomial:
    """The polynomial of a sympy result, built by ``make`` from
    public elements."""
    terms = {}
    for exps, c in poly.terms():
        m = Monomial.from_dict(dict(zip(VARIABLES, exps)))
        terms[m] = (field.from_int(int(c)) if field.characteristic
                    else Fraction(int(c.p), int(c.q)))
    return make(field, VARIABLES, terms)


def assert_public_view(f: Polynomial) -> None:
    """``terms``, ``coefficient`` and ``constant_coefficient`` hand out the
    public element type, also for an absent term."""
    public = Fp if f.field.characteristic else Fraction
    assert all(type(c) is public for _, c in terms(f))
    for m, c in terms(f):
        got = coefficient(f, m)
        assert type(got) is public and got == c
    assert type(f.constant_coefficient()) is public
    assert type(coefficient(f, Monomial.from_dict({"w": 99}))) is public


def assert_matches(got: Polynomial, expected: sympy.Poly) -> None:
    """got is the sympy result, stored natively, and equals and hashes like
    the same polynomial built from public elements."""
    assert to_sympy(got) == expected
    assert stored_form_problems(got) == []
    assert_public_view(got)
    built = from_sympy(expected, got.field)
    assert got == built and hash(got) == hash(built)
    assert got.vectors == built.vectors


def test_mixed_integral_and_fractional_rationals_match_sympy():
    rng = random.Random(9000)
    for _ in range(CASES):
        f = mixed_rational_polynomial(rng)
        g = mixed_rational_polynomial(rng, 3, 2)
        assert_matches(f * g, to_sympy(f) * to_sympy(g))
        assert_matches(f + g, to_sympy(f) + to_sympy(g))
        assert_matches(f - g, to_sympy(f) - to_sympy(g))
        assert_matches(g ** 3, to_sympy(g) ** 3)
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        assert_matches(f.scale(c), to_sympy(f) * sympy.Rational(c.numerator, c.denominator))
        var = rng.choice(VARIABLES)
        expected = lift(f).xreplace({SYMBOLS[VARIABLES.index(var)]: lift(g)})
        assert_matches(substitute(f, var, g), as_poly(expected, QQ))
        a = {v: rng.randint(0, 2) for v in rng.sample(VARIABLES, 2)}
        assert_matches(hasse_derivative(f, a), sympy_hasse(f, a))


def test_denominators_that_cancel_are_stored_as_ints():
    f = parse_polynomial("1/2*x + 1/3*y", QQ, VARIABLES)
    g = parse_polynomial("2*x + 3*y", QQ, VARIABLES)
    product = f * g
    assert product == parse_polynomial("x^2 + 13/6*x*y + y^2", QQ, VARIABLES)
    assert [type(c) for _, c in product.vectors] == [int, Fraction, int]
    assert stored_form_problems(substitute(f, "x", g)) == []


def test_long_f97_accumulations_match_sympy():
    rng = random.Random(9700)
    for degree in (2, 3):
        f = dense_f97_polynomial(rng, degree)
        g = dense_f97_polynomial(rng, 2)
        assert_matches(f * g, to_sympy(f) * to_sympy(g))
        assert_matches(g ** 4, to_sympy(g) ** 4)
        assert_matches(f + f.scale(F97.from_int(96)),
                       to_sympy(f) * 0)  # f - f, through unreduced sums
        assert_matches(-f, -to_sympy(f))
        expected = lift(f).xreplace({SYMBOLS[0]: lift(g)})
        assert_matches(substitute(f, "x", g), as_poly(expected, F97))
        assignments = {"y": g, "z": parse_polynomial("96*z + 95*x", F97, VARIABLES)}
        expected = lift(f).xreplace({SYMBOLS[1]: lift(g),
                                     SYMBOLS[2]: lift(assignments["z"])})
        assert_matches(substitute_many(f, assignments), as_poly(expected, F97))
        a = {"x": 2, "y": 1}
        assert_matches(hasse_derivative(g ** 3, a), sympy_hasse(g ** 3, a))
