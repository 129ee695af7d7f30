"""Differential test of the maximal-stratum search on support bitmasks.

``resolution_driver._solve_components`` reads each constraint once into
terms (support mask, exponent vector, coefficient) and searches on masks;
the earlier search, which restricted ``Polynomial`` residues with
``restrict_to_zero`` and compared them as polynomials, is kept as the oracle
``oracles.solve_components``.  The full output (the components in order,
with their conditions) must be the same:

* on every constraint list ``resolve`` hands the search while it resolves
  the four named traces (both label modes) and 40 cheap pool surfaces;
* on seeded random constraint sets over Q, F_2, F_3, F_4 and F_3(t), in
  rings of 3 and 4 variables, some listed out of name order, among them
  sets whose residues end in one shared non-monomial polynomial and sets
  whose residues share their supports but not their terms.
"""

from __future__ import annotations

import random

import pytest

from surfres import resolution_driver
from surfres.exact_algebra import FieldDescriptor, Polynomial
from surfres.resolution_driver import _solve_components, initial_chart, resolve

from oracles import solve_components
from test_blow_up_once import XYZ, named_roots, pool_surfaces
from test_kernel_oracle import assert_canonical_form
from test_translate_oracle import F3T, F4, QQ, random_element

FIELDS = {"Q": QQ, "F2": FieldDescriptor.prime_field(2),
          "F3": FieldDescriptor.prime_field(3), "F4": F4, "F3(t)": F3T}
# rings of 3 and 4 variables, in and out of name order
RINGS = [("x", "y", "z"), ("z", "a", "y"), ("x", "y", "z", "w"),
         ("w", "b", "z", "a")]
CASES = 60


def assert_same_search(constraints, variables) -> list:
    got = _solve_components(constraints, variables)
    assert got == solve_components(constraints, variables), (
        [str(g) for g in constraints], variables)
    for _names, cond in got:
        if cond is not None:
            assert_canonical_form(cond)
    return got


@pytest.fixture(scope="module")
def driver_searches() -> list[tuple[tuple[Polynomial, ...], tuple[str, ...]]]:
    """Every distinct (constraints, variables) ``resolve`` searched on the
    named traces and the pool surfaces."""
    seen: dict = {}

    def recording(constraints, variables):
        seen.setdefault((tuple(constraints), tuple(variables)), None)
        return _solve_components(constraints, variables)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution_driver, "_solve_components", recording)
        for root, options in named_roots().values():
            resolve(root, **options)
        for field, text in pool_surfaces():
            resolve(initial_chart(field, XYZ, text))
    return list(seen)


def test_the_driver_searches_match_the_oracle(driver_searches):
    conditions = 0
    for constraints, variables in driver_searches:
        got = assert_same_search(constraints, variables)
        conditions += sum(cond is not None for _names, cond in got)
    assert len(driver_searches) > 100 and conditions


def random_terms(rng: random.Random, field, ring, allowed, count) -> dict:
    """Up to ``count`` terms with nonzero coefficients and nonzero exponent
    vectors supported on the ``allowed`` positions of the ring."""
    terms = {}
    for _ in range(count):
        vec = tuple(rng.randint(0, 2) if i in allowed else 0
                    for i in range(len(ring)))
        c = random_element(rng, field)
        if any(vec) and c:
            terms[vec] = c
    return terms


def random_constraints(rng: random.Random, field, ring) -> list[Polynomial]:
    """One to four constraints of one to four terms, none constant."""
    out = []
    every = range(len(ring))
    for _ in range(rng.randint(1, 4)):
        terms = random_terms(rng, field, ring, every, rng.randint(1, 4))
        if terms:
            out.append(Polynomial.from_vectors(field, ring, terms))
    return out


def shared_residue_constraints(rng: random.Random, field, ring,
                               twin: bool) -> list[Polynomial]:
    """Constraints h + (terms in the fixed variables): on the fixed
    variables every residue is h, a polynomial of at least two terms in the
    other variables.  With ``twin`` the last residue is h with one
    coefficient or exponent changed, so the supports of the residues agree
    where their terms do not."""
    n = len(ring)
    fixed = set(rng.sample(range(n), rng.randint(1, n - 2)))
    free = set(range(n)) - fixed
    h = {}
    while len(h) < 2:
        h = random_terms(rng, field, ring, free, 4)
    out = [dict(h) for _ in range(rng.randint(1, 3))]
    if twin:
        vec, c = next(iter(h.items()))
        other = dict(h)
        if field.characteristic == 2:  # 2c = 0: raise an exponent instead
            del other[vec]
            i = next(i for i, e in enumerate(vec) if e)
            other[vec[:i] + (vec[i] + 3,) + vec[i + 1:]] = c
        else:
            other[vec] = c * field.from_int(2)
        out.append(other)
    polys = []
    for terms in out:
        terms = terms | random_terms(rng, field, ring, fixed, rng.randint(1, 3))
        polys.append(Polynomial.from_vectors(field, ring, terms))
    return polys


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("ring", RINGS, ids="".join)
def test_random_constraint_sets_match_the_oracle(name, ring):
    field = FIELDS[name]
    rng = random.Random(f"stratum-search:{name}:{''.join(ring)}")
    conditions = 0
    for case in range(CASES):
        kind = case % 3
        if kind == 0:
            constraints = random_constraints(rng, field, ring)
        else:
            constraints = shared_residue_constraints(rng, field, ring, kind == 2)
        got = assert_same_search(constraints, ring)
        conditions += sum(cond is not None and len(cond.vectors) > 1
                          for _names, cond in got)
    # non-monomial conditions were recorded, so the shared-residue test ran
    assert conditions


@pytest.mark.parametrize("ring", RINGS, ids="".join)
def test_residues_with_one_support_but_other_terms_are_not_shared(ring):
    """x + y and x + 2 y (in the first two variables of the ring) have the
    same supports but differ, so the search branches on them and records
    no condition."""
    a, b = ring[0], ring[1]
    one = Polynomial.from_vectors(QQ, ring, {
        tuple(int(v == a) for v in ring): 1, tuple(int(v == b) for v in ring): 1})
    two = Polynomial.from_vectors(QQ, ring, {
        tuple(int(v == a) for v in ring): 1, tuple(int(v == b) for v in ring): 2})
    got = assert_same_search([one, two], ring)
    assert got == [(frozenset({a, b}), None)]
    assert assert_same_search([one, one], ring) == [(frozenset(), one)]


def test_no_constraint_gives_the_whole_chart():
    assert _solve_components([], XYZ) == solve_components([], XYZ) == [
        (frozenset(), None)]
