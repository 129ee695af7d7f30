"""Oracle tests of the three reads taken straight off the canonical order.

A polynomial keeps its terms in ascending total degree, so:

* ``ord_at(f, vs)``, when vs names every variable, is the degree of the
  first term;
* ``constant_coefficient`` is the first term when its vector is zero;
* ``Polynomial.variable`` builds its one exponent vector directly, and
  still refuses a ring with a repeated name as ``Polynomial.make`` does.

Each is compared with a scan or ``make`` oracle kept below, on the seeded
random polynomials of ``tests/test_translate_oracle.py`` over Q, F_2, F_3,
F_5, F_4 = F_2[s]/(s^2 + s + 1) and F_3(t), plus the zero polynomial,
constants and a ring with a repeated name.
"""

from __future__ import annotations

import itertools
import random

import pytest

from surfres.exact_algebra import (
    INF,
    InputError,
    Monomial,
    Polynomial,
    ord_at,
)

from test_exact_algebra import stored_form_problems
from test_translate_oracle import (
    CASES,
    FIELDS,
    VARIABLES,
    random_element,
    random_polynomial,
)

# every variable, in every order, and with repeated names
ALL_VARIABLES = [*itertools.permutations(VARIABLES),
                 VARIABLES + VARIABLES[:2], ("w", "w", "z", "y", "x", "x")]
# proper subsets, which keep the scan
SUBSETS = [s for k in range(1, len(VARIABLES))
           for s in itertools.combinations(VARIABLES, k)]


# -- the oracles -------------------------------------------------------------

def ord_by_scan(f: Polynomial, vs: tuple[str, ...]) -> int | float:
    """The least degree in the named variables over all terms."""
    return min((m.degree(vs) for m, _c in f.terms), default=INF)


def constant_by_scan(f: Polynomial):
    for m, c in f.terms:
        if m == Monomial():
            return c
    return f.field.zero()


def variable_by_make(field, variables, name) -> Polynomial:
    vs = tuple(variables)
    if name not in vs:
        raise InputError(f"unknown variable {name!r}")
    return Polynomial.make(field, vs, {Monomial.from_dict({name: 1}): field.one()})


def samples(name: str) -> list[Polynomial]:
    """Seeded random polynomials, the zero polynomial and constants."""
    field = FIELDS[name]
    rng = random.Random(f"direct-reads:{name}")
    polys = [random_polynomial(rng, field) for _ in range(CASES)]
    polys.append(Polynomial.zero(field, VARIABLES))
    polys.append(Polynomial.constant(field, VARIABLES, field.one()))
    for _ in range(4):
        c = random_element(rng, field)
        polys.append(Polynomial.constant(field, VARIABLES, c))
        polys.append(Polynomial.constant(field, VARIABLES, c)
                     + random_polynomial(rng, field))
    return polys


# -- the tests -----------------------------------------------------------------

@pytest.mark.parametrize("name", FIELDS)
def test_ord_at_every_variable_matches_the_scan(name):
    mixed = 0
    for f in samples(name):
        for vs in ALL_VARIABLES + SUBSETS:
            assert ord_at(f, vs) == ord_by_scan(f, vs), (str(f), vs)
        degrees = {sum(vec) for vec, _c in f.vectors}
        mixed += len(degrees) > 1
    # terms of several degrees, so reading the last term cannot pass
    assert mixed > CASES // 2


def test_ord_at_of_zero_is_infinite_and_unknown_names_are_refused():
    for field in FIELDS.values():
        zero = Polynomial.zero(field, VARIABLES)
        for vs in ALL_VARIABLES:
            assert ord_at(zero, vs) == INF
        with pytest.raises(InputError, match="unknown variable 'q' in ord_at"):
            ord_at(Polynomial.constant(field, VARIABLES, field.one()),
                   VARIABLES + ("q",))


@pytest.mark.parametrize("name", FIELDS)
def test_constant_coefficient_matches_the_scan(name):
    with_constant = with_more = 0
    for f in samples(name):
        got, want = f.constant_coefficient(), constant_by_scan(f)
        assert got == want and type(got) is type(want), str(f)
        with_constant += bool(want)
        with_more += bool(want) and len(f.vectors) > 1
    # a constant term followed by others, so reading the last term cannot pass
    assert with_constant and with_more


@pytest.mark.parametrize("name", FIELDS)
def test_variable_matches_make(name):
    field = FIELDS[name]
    for vs in itertools.permutations(VARIABLES):
        for v in VARIABLES:
            got = Polynomial.variable(field, vs, v)
            assert got == variable_by_make(field, vs, v)
            assert stored_form_problems(got) == []
        with pytest.raises(InputError) as got_err:
            Polynomial.variable(field, vs, "q")
        with pytest.raises(InputError) as want_err:
            variable_by_make(field, vs, "q")
        assert str(got_err.value) == str(want_err.value)


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("ring", [("x", "y", "x"), ("x", "x"),
                                  ("z", "y", "w", "y")])
def test_variable_refuses_a_repeated_name_as_make_does(name, ring):
    field = FIELDS[name]
    for v in set(ring) | {"q"}:
        with pytest.raises(InputError) as got:
            Polynomial.variable(field, ring, v)
        with pytest.raises(InputError) as want:
            variable_by_make(field, ring, v)
        assert str(got.value) == str(want.value)
