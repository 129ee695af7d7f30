"""Oracle tests of the two monomial-map kernels of the resolution.

* ``exact_algebra.strict_transform`` (the total transform v <- v * w in
  the chart of w, as a sum of exponents over the center, divided by its
  power m of w) against ``substitute_many`` with the products v * w written
  out, divided by the least exponent of w in that total transform, for
  every center of two to four variables and every chart variable in it.
  The map is injective on exponent vectors, so the term count is kept.
* ``exact_algebra.restrict_to_zero`` (the terms with no exponent on the
  named variables) against ``substitute_many`` with those variables set to
  the zero polynomial, for every subset of the variables.

Both run on the seeded random polynomials of
``tests/test_translate_oracle.py`` over Q, F_2, F_3, F_5,
F_4 = F_2[s]/(s^2 + s + 1) and F_3(t).
"""

from __future__ import annotations

import itertools
import random

import pytest

from surfres.exact_algebra import (
    InputError,
    Polynomial,
    ord_at,
    restrict_to_zero,
    strict_transform,
    substitute_many,
)

from oracles import terms, zero_polynomial
from test_exact_algebra import stored_form_problems
from test_translate_oracle import CASES, FIELDS, VARIABLES, random_polynomial

CENTERS = [center for k in (2, 3, 4)
           for center in itertools.combinations(VARIABLES, k)]
SUBSETS = [subset for k in range(len(VARIABLES) + 1)
           for subset in itertools.combinations(VARIABLES, k)]


def strict_by_substitution(f: Polynomial, center: tuple[str, ...],
                           var: str) -> tuple[Polynomial, int]:
    """The oracle: every other center variable v replaced by v * var, and
    the total transform divided by the least exponent m of var in it;
    returns the quotient and m."""
    def variable(v):
        return Polynomial.variable(f.field, f.variables, v)
    total = substitute_many(f, {v: variable(v) * variable(var)
                                for v in center if v != var})
    i = f.variables.index(var)
    m = min((mono.exponent(var) for mono, _c in terms(total)), default=0)
    quotient = Polynomial.from_vectors(f.field, f.variables, {
        vec[:i] + (vec[i] - m,) + vec[i + 1:]: c
        for vec, c in total.coefficient_map().items()})
    return quotient, m


def restricted_by_substitution(f: Polynomial,
                               variables: tuple[str, ...]) -> Polynomial:
    """The oracle: every named variable replaced by the zero polynomial."""
    zero = zero_polynomial(f.field, f.variables)
    return substitute_many(f, {v: zero for v in variables})


@pytest.mark.parametrize("name", FIELDS)
def test_blow_up_matches_substitution(name):
    field = FIELDS[name]
    rng = random.Random(f"blow-up:{name}")
    checked = divided = 0
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        for center in CENTERS:
            for var in center:
                strict, m = strict_transform(f, center, var)
                assert (strict, m) == strict_by_substitution(f, center, var), (
                    str(f), center, var)
                assert m == (ord_at(f, center) if f.vectors else 0)
                assert len(strict.vectors) == len(f.vectors)
                assert stored_form_problems(strict) == []
                checked += 1
                divided += m > 0
    assert checked == CASES * sum(len(c) for c in CENTERS)
    assert divided  # some total transform is divided, so the test can see m


@pytest.mark.parametrize("name", FIELDS)
def test_restriction_matches_substitution(name):
    field = FIELDS[name]
    rng = random.Random(f"restrict:{name}")
    dropped = 0
    for _ in range(CASES):
        f = random_polynomial(rng, field)
        for subset in SUBSETS:
            restricted = restrict_to_zero(f, subset)
            assert restricted == restricted_by_substitution(f, subset), (
                str(f), subset)
            assert stored_form_problems(restricted) == []
            dropped += len(f.vectors) - len(restricted.vectors)
    assert dropped  # some restriction drops terms, so the test can see it


def test_restriction_to_nothing_is_the_polynomial_itself():
    f = random_polynomial(random.Random("restrict:nothing"), FIELDS["Q"])
    assert restrict_to_zero(f, ()) is f


def test_a_chart_variable_outside_the_center_is_an_input_error():
    f = random_polynomial(random.Random("bad"), FIELDS["F3"])
    with pytest.raises(InputError):
        strict_transform(f, ("x", "y"), "z")
