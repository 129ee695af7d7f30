"""Oracle tests of the reads and maps taken straight off the canonical order.

A polynomial keeps its terms in ascending total degree, so:

* ``ord_at(f, vs)``, when vs names every variable, is the degree of the
  first term;
* ``constant_coefficient`` is the first term when its vector is zero;
* ``Polynomial.variable`` builds its one exponent vector directly, and
  still refuses a ring with a repeated name as ``make`` does.

Each is compared with a scan or ``make`` oracle kept below, on the seeded
random polynomials of ``tests/test_translate_oracle.py`` over Q, F_2, F_3,
F_5, F_4 = F_2[s]/(s^2 + s + 1) and F_3(t), plus the zero polynomial,
constants and a ring with a repeated name.  ``ord_at`` reads the names
through the ring's index once; it is also compared with its earlier body,
kept below, on names given as a generator, as a set and with repeats, and
on the error text of an unknown name.

The maps whose terms come out in canonical order build the polynomial
without sorting: ``restrict_to_zero``, ``initial_form``, ``_pure_y_part``
and ``_vertex_initial`` keep a subset of one polynomial's terms,
``hasse_derivative`` shifts the terms with m >= A by m -> m - A, and
``Polynomial.variable`` has one term.  Each output must equal ``_canonical``
of its own terms, be in canonical form (``assert_canonical_form``) and hold
its coefficients in stored form, on the same samples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from surfres.char_polyhedron import _pure_y_part, _scan, _vertex_initial
from surfres.exact_algebra import (
    INF,
    InputError,
    Polynomial,
    _canonical,
    hasse_derivative,
    ord_at,
    restrict_to_zero,
)
from surfres.local_frame import Frame, initial_form

from oracles import Monomial, make, terms, zero_polynomial
from test_exact_algebra import stored_form_problems
from test_kernel_oracle import assert_canonical_form
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
# the u-block and the y-block of the vertex forms
FRAME = Frame(("x", "z"), ("y", "w"))


# -- the oracles -------------------------------------------------------------

def ord_by_scan(f: Polynomial, vs: tuple[str, ...]) -> int | float:
    """The least degree in the named variables over all terms."""
    return min((m.degree(vs) for m, _c in terms(f)), default=INF)


def constant_by_scan(f: Polynomial):
    for m, c in terms(f):
        if m == Monomial():
            return c
    return f.field.zero()


def ord_at_before(f: Polynomial, prime_vars) -> int | float:
    """``ord_at``'s earlier body, which checked each name against the
    variable tuple and then looked the set of names up."""
    vs = tuple(prime_vars)
    for v in vs:
        if v not in f.variables:
            raise InputError(f"unknown variable {v!r} in ord_at")
    if f.is_zero:
        return INF
    pos = f.positions(set(vs))
    if len(pos) == len(f.variables):
        # the canonical order starts at the lowest total degree
        return sum(f.vectors[0][0])
    return min(sum(vec[i] for i in pos) for vec, _ in f.vectors)


def variable_by_make(field, variables, name) -> Polynomial:
    vs = tuple(variables)
    if name not in vs:
        raise InputError(f"unknown variable {name!r}")
    return make(field, vs, {Monomial.from_dict({name: 1}): field.one()})


def samples(name: str) -> list[Polynomial]:
    """Seeded random polynomials, the zero polynomial and constants."""
    field = FIELDS[name]
    rng = random.Random(f"direct-reads:{name}")
    polys = [random_polynomial(rng, field) for _ in range(CASES)]
    polys.append(zero_polynomial(field, VARIABLES))
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
        zero = zero_polynomial(field, VARIABLES)
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
            assert_built_in_order(got)
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


def test_ord_at_matches_its_earlier_body():
    names = ALL_VARIABLES + SUBSETS + [("y", "y"), ("z", "x", "z", "x"), ()]
    for name in FIELDS:
        for f in samples(name):
            for vs in names:
                want = ord_at_before(f, vs)
                assert ord_at(f, vs) == want, (str(f), vs)
                assert ord_at(f, set(vs)) == want
                assert ord_at(f, (v for v in vs)) == want


@pytest.mark.parametrize("names", [("q",), ("x", "q", "r"), ("y", "y", "p"),
                                   ("w", "z", "y", "x", "v")])
def test_ord_at_names_the_first_unknown_name_as_before(names):
    for field in FIELDS.values():
        for f in (zero_polynomial(field, VARIABLES), samples("F3")[0]):
            with pytest.raises(InputError) as got:
                ord_at(f, (v for v in names))
            with pytest.raises(InputError) as want:
                ord_at_before(f, names)
            assert str(got.value) == str(want.value)


def assert_built_in_order(g: Polynomial) -> None:
    """g equals ``_canonical`` of its own terms and is in canonical, stored
    form."""
    assert g == _canonical(g.field, g.variables, g.vectors), str(g)
    assert_canonical_form(g)
    assert stored_form_problems(g) == []


def kept(f: Polynomial, test) -> Polynomial:
    """The oracle of a subset map: ``make`` of the terms of f
    that pass the test."""
    return make(f.field, f.variables,
                {m: c for m, c in terms(f) if test(m)})


@pytest.mark.parametrize("name", FIELDS)
def test_restrict_to_zero_keeps_the_order(name):
    longer = 0
    for f in samples(name):
        for vs in [()] + SUBSETS + ALL_VARIABLES[:1]:
            g = restrict_to_zero(f, vs)
            assert_built_in_order(g)
            assert g == kept(f, lambda m: m.degree(vs) == 0)
            longer += len(g.vectors) > 1
    assert longer > CASES


@pytest.mark.parametrize("name", FIELDS)
def test_initial_form_keeps_the_order(name):
    longer = 0
    for f in samples(name):
        if f.is_zero:
            continue
        for vs in SUBSETS + ALL_VARIABLES[:1]:
            g = initial_form(f, vs)
            low = ord_at(f, vs)
            assert_built_in_order(g)
            assert g == kept(f, lambda m: m.degree(vs) == low)
            longer += len(g.vectors) > 1
    assert longer > CASES


@pytest.mark.parametrize("name", FIELDS)
def test_hasse_derivative_keeps_the_order(name):
    rng = random.Random(f"direct-hasse:{name}")
    dropped = 0
    for f in samples(name):
        for _ in range(6):
            a = {v: rng.choice([0, 1, 1, 2, 3]) for v in VARIABLES
                 if rng.random() < 0.6}
            g = hasse_derivative(f, a)
            assert_built_in_order(g)
            shifted = [m for m, _c in terms(f)
                       if all(m.exponent(v) >= e for v, e in a.items())]
            dropped += len(g.vectors) < len(shifted)
    # over F_p some binomial coefficients vanish and their terms go
    assert dropped or FIELDS[name].characteristic == 0


@pytest.mark.parametrize("name", FIELDS)
def test_vertex_forms_keep_the_order(name):
    vertex_forms = 0
    for f in samples(name):
        if f.is_zero:
            continue
        nu = int(ord_at(f, VARIABLES))
        for top in {nu, nu + 1}:
            g = _pure_y_part(f, FRAME, top)
            assert_built_in_order(g)
            assert g == kept(f, lambda m: m.degree() == top
                             and m.degree(FRAME.y_block) == top)
        try:
            pairs = _scan(f, FRAME)
        except InputError:  # f lies in the ideal of the u-block
            continue
        for a, d in pairs:
            point = tuple(Fraction(x, d) for x in a)
            (form,) = _vertex_initial([f], FRAME, point).forms
            assert_built_in_order(form)

            def pure_or_at_point(m):
                b = m.degree(FRAME.y_block)
                if b == m.degree() == nu:
                    return True
                return b < nu and all(
                    Fraction(m.exponent(u), nu - b) == x
                    for u, x in zip(FRAME.u_block, point))
            assert form == kept(f, pure_or_at_point)
            vertex_forms += len(form.vectors) > 1
    assert vertex_forms

