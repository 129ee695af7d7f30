"""Oracle tests of the two fast paths behind vertex preparation.

* ``exact_algebra.translate`` (x <- x + c * monomial, by the binomial
  theorem on the exponent vectors) against ``substitute`` with the shift
  written out as a polynomial, on seeded random polynomials over Q, F_2,
  F_3, F_5, F_4 = F_2[s]/(s^2 + s + 1) and F_3(t).  Over F_p the binomial
  coefficients and the powers of c that the kernel multiplies stay reduced
  mod p.  Bad arguments are input errors.
* ``char_polyhedron._lattice_vertices`` (the hull of the points A/d taken
  on the integer lattice) against the earlier ``Fraction`` hull
  ``old_canonical_vertices`` of ``tests/test_prepare_oracle.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Any

import pytest

from surfres import char_polyhedron as cp
from surfres import exact_algebra as ea
from surfres.exact_algebra import (
    FieldDescriptor,
    Fq,
    InputError,
    Polynomial,
    RatFunc,
    substitute,
    translate,
)

from oracles import Monomial, make
from test_exact_algebra import stored_form_problems
from test_prepare_oracle import old_canonical_vertices

VARIABLES = ("x", "y", "z", "w")
QQ = FieldDescriptor.rationals()
F4 = FieldDescriptor.finite_extension(2, (1, 1, 1))
F3T = FieldDescriptor.rational_functions(3)
FIELDS = {"Q": QQ, **{f"F{p}": FieldDescriptor.prime_field(p) for p in (2, 3, 5)},
          "F4": F4, "F3(t)": F3T}
SHIFTS = [{}, {"x": 1}, {"x": 2, "z": 1}, {"x": 1, "z": 3, "w": 2}]
CASES = 40


def random_element(rng: random.Random, field: FieldDescriptor) -> Any:
    """A random element of the field, zero about one time in eight."""
    if rng.random() < 0.125:
        return field.zero()
    p = field.characteristic
    if field.kind == ea.RATIONALS:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    if field.kind == ea.PRIME_FIELD:
        return field.from_int(rng.randrange(1, p))
    if field.kind == ea.FINITE_EXTENSION:
        return Fq((rng.randrange(p), rng.randrange(p)), p, field.modulus) or field.one()
    num = tuple(rng.randrange(p) for _ in range(3)) or (1,)
    return RatFunc(num, (rng.randrange(p), 1), p)


def random_polynomial(rng: random.Random, field: FieldDescriptor) -> Polynomial:
    """Up to six terms; the exponent of y runs past every characteristic
    used, so some binomial coefficients vanish mod p."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = {v: rng.randint(0, 3) for v in VARIABLES if rng.random() < 0.5}
        exps["y"] = rng.choice([0, 1, 2, 3, 4, 5, 6, 9])
        terms[Monomial.from_dict(exps)] = random_element(rng, field)
    return make(field, VARIABLES, terms)


def by_substitution(f: Polynomial, var: str, c: Any, shift: dict) -> Polynomial:
    """The oracle: var <- var + c * prod(v^shift[v]) as a polynomial."""
    expr = Polynomial.variable(f.field, f.variables, var) + make(
        f.field, f.variables, {Monomial.from_dict(shift): c})
    return substitute(f, var, expr)


@pytest.mark.parametrize("name", FIELDS)
def test_translate_matches_substitution(name):
    field = FIELDS[name]
    rng = random.Random(f"translate:{name}")
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        c = random_element(rng, field)
        shift = rng.choice(SHIFTS)
        moved = translate(f, "y", c, shift)
        assert moved == by_substitution(f, "y", c, shift), (str(f), c, shift)
        assert stored_form_problems(moved) == []


@pytest.mark.parametrize("name", FIELDS)
def test_translate_by_zero_or_a_constant(name):
    field = FIELDS[name]
    rng = random.Random(f"constant:{name}")
    f = random_polynomial(rng, field)
    assert translate(f, "y", field.zero(), {"x": 1}) is f
    c = field.one()
    assert translate(f, "y", c, {}) == by_substitution(f, "y", c, {})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binomials_vanish_mod_p(p):
    """(y + c u)^(p^2) = y^(p^2) + c^(p^2) u^(p^2) in characteristic p."""
    field = FieldDescriptor.prime_field(p)
    f = make(field, VARIABLES, {Monomial.from_dict({"y": p * p}): 1})
    moved = translate(f, "y", field.from_int(p - 1), {"x": 1})
    assert moved == make(field, VARIABLES, {
        Monomial.from_dict({"y": p * p}): 1,
        Monomial.from_dict({"x": p * p}): pow(p - 1, p * p, p)})


def test_the_products_the_kernel_forms_stay_reduced_mod_p(monkeypatch):
    """Every product c_B * C(b, k) * c^k is below p^3 over F_p, so a sum of
    n of them is below n * p^3, whatever the exponent b."""
    field = FieldDescriptor.prime_field(5)
    f = make(field, VARIABLES, {
        Monomial.from_dict({"y": 60}): 4, Monomial.from_dict({"y": 59, "z": 1}): 3})
    seen = []
    real = ea._canonical

    def record(field_, variables, terms):
        terms = list(terms)
        seen.extend(c for _, c in terms)
        return real(field_, variables, terms)

    monkeypatch.setattr(ea, "_canonical", record)
    moved = translate(f, "y", field.from_int(3), {"x": 2})
    monkeypatch.undo()
    assert moved == by_substitution(f, "y", field.from_int(3), {"x": 2})
    assert seen and max(seen) < len(f.vectors) * 5 ** 3


@pytest.mark.parametrize("var, c, shift", [
    ("y", 1, {"y": 1}),                      # the shift names the moved variable
    ("y", 1, {"x": 1, "y": 2}),
    ("q", 1, {"x": 1}),                      # unknown moved variable
    ("y", 1, {"q": 1}),                      # unknown shift variable
    ("y", 1, {"x": -1}),                     # negative exponent
    ("y", 1, {"x": 1.0}),                    # not an int
    ("y", FieldDescriptor.prime_field(3).from_int(2), {"x": 1}),  # F_3 over Q
    ("y", F4.generator(), {}),
    ("y", 0.5, {"x": 1}),                    # a float
])
def test_bad_arguments_are_input_errors(var, c, shift):
    f = make(QQ, VARIABLES, {Monomial.from_dict({"y": 2, "x": 1}): 3})
    with pytest.raises(InputError):
        translate(f, var, c, shift)


def test_a_coefficient_from_another_prime_field_is_an_input_error():
    f5 = FieldDescriptor.prime_field(5)
    f = make(f5, VARIABLES, {Monomial.from_dict({"y": 2}): 1})
    with pytest.raises(InputError):
        translate(f, "y", FieldDescriptor.prime_field(3).from_int(1), {"x": 1})
    with pytest.raises(InputError):
        translate(f, "y", Fraction(1, 2), {"x": 1})


# ---------------------------------------------------------------------------
# the hull on the integer lattice
# ---------------------------------------------------------------------------


def as_pairs(points, rng: random.Random | None = None):
    """Each point as (A, d) with A / d = the point; with ``rng``, d is some
    multiple of the least common denominator."""
    pairs = []
    for pt in points:
        d = lcm(*[x.denominator for x in pt])
        if rng is not None:
            d *= rng.randint(1, 3)
        pairs.append((tuple(int(x * d) for x in pt), d))
    return pairs


def check(dim, points, rng=None):
    expected = old_canonical_vertices(dim, points)
    got = cp._lattice_vertices(dim, as_pairs(points, rng))
    assert got == expected, points
    assert all(type(x) is Fraction for v in got for x in v)


def test_lattice_hull_matches_on_random_point_sets():
    rng = random.Random(1108)
    for _ in range(400):
        dim = rng.choice([1, 2, 2])
        top = rng.choice([3, 9, 30])
        pts = [tuple(Fraction(rng.randint(0, top), rng.randint(1, 7))
                     for _ in range(dim))
               for _ in range(rng.randint(0, 25))]
        check(dim, pts, rng)


def test_lattice_hull_matches_on_adversarial_point_sets():
    F = Fraction
    cases = [
        (2, []),
        (1, []),
        (2, [(F(3, 7), F(5, 11))]),                              # one point
        (1, [(F(5, 3),)]),
        (2, [(F(1, 2), F(1, 2))] * 4 + [(F(2, 4), F(3, 6))]),    # duplicates
        (2, [(F(k, 3), F(6 - k, 3)) for k in range(7)]),          # collinear run
        (2, [(F(k, 2), F(10 - 2 * k, 5)) for k in range(6)]
         + [(F(9), F(9))]),
        (2, [(F(0), F(7, 2)), (F(5, 3), F(0)), (F(1), F(1))]),    # axis points
        (2, [(F(0), F(k, 5)) for k in range(1, 6)]
         + [(F(k, 7), F(0)) for k in range(1, 6)]),
        (1, [(F(k, 9),) for k in (7, 3, 5, 3)]),                  # e = 1
        (2, [(F(1, 10**12 + 39), F(10**9, 7)),                    # large denominators
             (F(10**15, 10**12 + 39), F(1, 999999999989)),
             (F(3, 97), F(2, 89)), (F(1, 2**61 - 1), F(5, 3))]),
        (2, [(F(k, 1009 * 1013), F(40 - k, 1019)) for k in range(0, 40, 3)]),
    ]
    rng = random.Random(17)
    for dim, pts in cases:
        check(dim, pts)
        check(dim, pts, rng)
