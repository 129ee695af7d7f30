"""The two paths of ``compute_directrix`` against independent oracles.

When p = 0 or every form has degree below p, the directrix is read off the
linear Hasse derivatives D_a f, |a| = deg f - 1, without the ridge;
otherwise the ridge cuts it out.  Here:

* over F_3, F_5 and F_7, seeded forms of degree < p in (x, y, z) take the
  direct path, and the F_p-points of the computed directrix are exactly the
  w in F_p^3 with f(X + w) = f(X), found by evaluating at every point of
  F_p^3 (exact: f(X + w) - f(X) has degree < p in each variable, so it is
  zero when it vanishes on F_p^3);
* over Q the directrix forms span the same space as the (d-1)-th partial
  derivatives that ``sympy`` computes;
* known answers, forms of degree p - 1 and p over F_3 and F_5, the last of
  which take the ridge path unless they are monomials, each checked
  against the ridge's own directrix, and the cap and homogeneity errors,
  which are the same on both paths.

The third path, for monomial forms, has its own oracles in
``test_coordinate_reads.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from surfres import local_frame
from surfres.exact_algebra import (
    FieldDescriptor,
    InputError,
    Polynomial,
    ScopeError,
    parse_polynomial,
)
from surfres.local_frame import (
    MAX_DIRECTRIX_DEGREE,
    Frame,
    compute_directrix,
    form_row,
    row_form,
    row_reduce,
)

from oracles import zero_polynomial

QQ = FieldDescriptor.rationals()
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)
F7 = FieldDescriptor.prime_field(7)
F2T = FieldDescriptor.rational_functions(2, "t")
F3T = FieldDescriptor.rational_functions(3, "t")
XYZ = ("x", "y", "z")
FRAME = Frame(XYZ, ())


def directrix(forms: list[Polynomial]):
    return compute_directrix(forms, FRAME)


def ridge_directrix(forms: list[Polynomial]):
    """The directrix cut out by the ridge's additive forms, as
    ``compute_directrix`` computed it on every input before it had a
    second path."""
    field = forms[0].field
    rows = []
    for s in local_frame.compute_ridge(forms):
        q = int(s.total_degree())
        rows.extend(local_frame._linear_conditions(q, form_row(s, XYZ, q), field))
    rref = row_reduce(rows, field)
    return len(rref), [row_form(row, field, XYZ) for row in rref]


@pytest.fixture
def ridge_calls(monkeypatch):
    """The number of ``compute_ridge`` calls from an empty directrix cache
    on, as a one-item list."""
    local_frame._directrix.cache_clear()
    calls = [0]
    ridge = local_frame.compute_ridge

    def counted(initials):
        calls[0] += 1
        return ridge(initials)
    monkeypatch.setattr(local_frame, "compute_ridge", counted)
    return calls


def random_forms(rng: random.Random, field: FieldDescriptor,
                 degree: int) -> list[Polynomial]:
    """One or two homogeneous forms of the degree, in one to three random
    linear forms of (x, y, z), so that the directrix is often proper."""
    p = field.characteristic

    def element():
        return rng.randrange(p) if p else Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    count = rng.randint(1, 3)
    linear = []
    for _ in range(count):
        row = [element() for _ in XYZ]
        if not any(row):
            row[rng.randrange(3)] = 1
        linear.append(Polynomial.from_vectors(field, XYZ, {
            (0,) * i + (1,) + (0,) * (2 - i): c for i, c in enumerate(row) if c}))
    out = []
    for d in [degree] + ([rng.randint(1, degree)] if rng.random() < 0.3 else []):
        f = zero_polynomial(field, XYZ)
        for exps in product(range(d + 1), repeat=count):
            if sum(exps) != d or rng.random() < 0.3:
                continue
            term = Polynomial.constant(field, XYZ, element() or 1)
            for form, e in zip(linear, exps):
                term = term * form ** e
            f = f + term
        out.append(f if not f.is_zero else linear[0] ** d)
    return out


def invariant_translations(forms: list[Polynomial], p: int) -> set[tuple]:
    """Every w in F_p^3 with f(X + w) = f(X) for each form, by evaluation
    at all of F_p^3."""
    points = list(product(range(p), repeat=3))
    tables = []
    for f in forms:
        tables.append({v: sum(c * v[0] ** m[0] * v[1] ** m[1] * v[2] ** m[2]
                              for m, c in f.vectors) % p for v in points})
    return {w for w in points
            if all(table[tuple((a + b) % p for a, b in zip(v, w))] == value
                   for table in tables for v, value in table.items())}


def kernel_points(forms: list[Polynomial], p: int) -> set[tuple]:
    """The F_p-points where every linear form vanishes."""
    rows = [form_row(f, XYZ) for f in forms]
    return {w for w in product(range(p), repeat=3)
            if all(sum(a * b for a, b in zip(row, w)) % p == 0 for row in rows)}


@pytest.mark.parametrize("field", [F3, F5, F7], ids=["F3", "F5", "F7"])
def test_below_p_the_directrix_is_the_brute_force_invariance_set(
        field, ridge_calls):
    p = field.characteristic
    rng = random.Random(1800 + p)
    ranks = set()
    for _ in range(20):
        forms = random_forms(rng, field, rng.randint(1, p - 1))
        r, linear = directrix(forms)
        assert kernel_points(linear, p) == invariant_translations(forms, p), forms
        assert (r, linear) == ridge_directrix(forms)
        ranks.add(r)
    assert ridge_calls[0] == 20  # only ``ridge_directrix`` ran the ridge
    assert {1, 2} <= ranks  # proper directrices occur


def sympy_span(forms: list[Polynomial]) -> sympy.Matrix:
    """The reduced echelon form of the (d-1)-th partial derivatives of
    each form, over the coefficients of x, y, z."""
    symbols = sympy.symbols("x y z")
    rows = []
    for f in forms:
        poly = sympy.Poly({m: sympy.Rational(c.numerator, c.denominator)
                           for m, c in f.coefficient_map().items()}, *symbols)
        d = int(f.total_degree())
        for a in product(range(d), repeat=3):
            if sum(a) != d - 1:
                continue
            specs = [(s, k) for s, k in zip(symbols, a) if k]
            derivative = poly.diff(*specs) if specs else poly
            rows.append([derivative.coeff_monomial(s) for s in symbols])
    rref, _pivots = sympy.Matrix(rows).rref()
    return rref[:rref.rank(), :] if rref.rank() else sympy.zeros(0, 3)


def test_over_q_the_directrix_spans_the_sympy_partials(ridge_calls):
    rng = random.Random(1801)
    ranks = set()
    for _ in range(25):
        forms = random_forms(rng, QQ, rng.randint(1, 6))
        r, linear = directrix(forms)
        expected = sympy_span(forms)
        assert r == expected.rows, forms
        got = [[sympy.Rational(c.numerator, c.denominator)
                for c in form_row(f, XYZ)] for f in linear]
        assert sympy.Matrix(got) == expected if r else not got
        ranks.add(r)
    assert ridge_calls[0] == 0
    assert {1, 2, 3} <= ranks


def parsed(text: str, field: FieldDescriptor) -> list[Polynomial]:
    return [parse_polynomial(text, field, XYZ)]


def test_known_answers(ridge_calls):
    r, [form] = directrix(parsed("(x+y)^2", QQ))
    assert r == 1 and form == parse_polynomial("x + y", QQ, XYZ)
    assert directrix(parsed("x^2 + y^2 + z^2", QQ))[0] == 3
    assert directrix(parsed("x*y*z", QQ))[0] == 3
    assert directrix(parsed("(x + 2*y - z)^6", QQ))[0] == 1
    assert directrix(parsed("7", QQ)) == (0, [])
    assert ridge_calls[0] == 0


@pytest.mark.parametrize("field,texts", [
    (F3, ["x^3 + y^3 + x*z^2", "(x+y+z)^3", "x^3 + y^3", "x^2*y + z^3",
          "(x+y)^4 + z^4", "x^2 + y*z", "(x+y)^2"]),
    (F5, ["x^5 + y^5 + x*z^4", "(x+2*y)^5", "x^5 + x*y^4", "(x+y+z)^6",
          "x^4 + y^4 + 2*x*y*z^2", "(x+2*y)^4", "x^3*y + z^4"]),
    (F2T, ["x^2 + t*y^2", "x^2 + y*z", "x + t*y", "x*y"]),
    (F3T, ["x^3 + t*y^3", "x^2 + t*y^2", "x^2*y + t*z^3", "(x + t*y)^2"]),
], ids=["F3", "F5", "F2t", "F3t"])
def test_each_degree_takes_its_path_and_gives_the_ridges_answer(
        field, texts, ridge_calls):
    p = field.characteristic
    for text in texts:
        forms = parsed(text, field)
        before = ridge_calls[0]
        got = directrix(forms)
        used_ridge = ridge_calls[0] - before
        # a monomial takes the monomial path, on either side of p
        monomial = all(len(f.vectors) == 1 for f in forms)
        assert used_ridge == int(not monomial
                                 and int(forms[0].total_degree()) >= p), text
        assert got == ridge_directrix(forms), text


def test_degree_p_forms_keep_their_p_th_power_conditions():
    """At degree p the linear derivatives are not enough: over F_3 they
    vanish on x^3 + y^3 = (x + y)^3, and of x^3 + y^3 + x*z^2 they give
    x and z but not y."""
    assert directrix(parsed("x^3 + y^3", F3)) == (
        1, [parse_polynomial("x + y", F3, XYZ)])
    assert directrix(parsed("x^3 + y^3 + x*z^2", F3))[0] == 3
    assert directrix(parsed("x^5 + 2*y^5", F5)) == (
        1, [parse_polynomial("x + 2*y", F5, XYZ)])


@pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
def test_the_cap_and_the_homogeneity_check_come_first_on_both_paths(field):
    top = MAX_DIRECTRIX_DEGREE
    r, _forms = directrix(parsed(f"(x+y+z)^{top}", field))
    assert r == 1
    with pytest.raises(ScopeError, match=f"degree {top + 1} is over the limit "
                       f"of {top} \\(MAX_DIRECTRIX_DEGREE\\)"):
        directrix(parsed(f"(x+y+z)^{top + 1}", field))
    with pytest.raises(InputError, match="ridge input is not homogeneous"):
        directrix(parsed("x^2 + y^3", field))
    with pytest.raises(InputError, match="ridge input is not homogeneous"):
        directrix(parsed(f"x^2 + y^{top + 1}", field))
