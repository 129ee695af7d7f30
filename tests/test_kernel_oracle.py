"""Differential tests of the polynomial kernel.

Products, powers, substitutions and Hasse derivatives of seeded random
polynomials over Q and F_p (p = 2, 3, 5) are checked against sympy, and the
substitutions also against the earlier shadow-variable implementation, kept
below as the old-path oracle.  Printing and re-parsing must round-trip.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Any, Mapping

import pytest

from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Monomial,
    Polynomial,
    hasse_derivative,
    parse_polynomial,
    substitute,
    substitute_many,
    to_string,
)

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
    return Polynomial.make(field, VARIABLES, terms)


def lift(f: Polynomial) -> sympy.Expr:
    """f as a sympy expression over Q; over F_p the residues are lifted to Z."""
    expr = sympy.Integer(0)
    for m, c in f.terms:
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
    for m, c in f.terms:
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
        partial = Polynomial.make(f.field, f.variables, bucket)
        result = result + partial * cached[e]
    return result


def old_substitute_many(f: Polynomial,
                        assignments: Mapping[str, Polynomial]) -> Polynomial:
    """Simultaneous substitution through fresh shadow variables."""
    if not assignments:
        return f
    shadow = {v: f"__tmp_{i}__" for i, v in enumerate(assignments)}
    extended = f.variables + tuple(shadow[v] for v in assignments)
    lifted = Polynomial.make(f.field, extended, dict(f.terms))
    for v, sv in shadow.items():
        lifted = old_substitute(lifted, v,
                                Polynomial.variable(f.field, extended, sv))
    for v, expr in assignments.items():
        lifted = old_substitute(lifted, shadow[v],
                                Polynomial.make(f.field, extended, dict(expr.terms)))
    return Polynomial.make(f.field, f.variables, dict(lifted.terms))


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
