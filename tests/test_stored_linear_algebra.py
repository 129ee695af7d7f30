"""The exact linear algebra on stored coefficients against two oracles.

``local_frame``'s ``echelon_add``, ``row_reduce``, kernel (through
``matrix_kernel``, kept in ``tests/oracles.py``) and ``_directrix_rows``
work on stored coefficients
(``FieldDescriptor.to_native``): ints over Q and F_p, with ``Fraction`` only
for a rational with a denominator.  On seeded random matrices over Q, F_2,
F_3, F_5, F_9 and F_3(t), their results, made public, must equal those of
the same routines on public elements (``tests/oracles.py``), and every
entry must stay in stored form: over F_p an int in [0, p), over Q an int or
a ``Fraction`` with a denominator.  ``sympy``'s reduced echelon form over Q
and over GF(p), and its null space over Q, are an independent oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from surfres import local_frame as lf
from surfres.exact_algebra import (
    FINITE_EXTENSION,
    PRIME_FIELD,
    RATIONAL_FUNCTIONS,
    RATIONALS,
    FieldDescriptor,
    Fq,
    Polynomial,
    RatFunc,
)
from surfres.local_frame import echelon_add, row_reduce

from oracles import (
    matrix_kernel,
    public_directrix_rows,
    public_echelon_add,
    public_matrix_kernel,
    public_row,
    public_row_reduce,
    stored_row,
)

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)
F9 = FieldDescriptor.finite_extension(3, (1, 0, 1), "s")
F3T = FieldDescriptor.rational_functions(3, "t")
FIELDS = {"Q": QQ, "F2": F2, "F3": F3, "F5": F5, "F9": F9, "F3(t)": F3T}


def element(rng: random.Random, field: FieldDescriptor):
    """A small random public element, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero()
    p = field.characteristic
    if field.kind == RATIONALS:
        return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
    if field.kind == PRIME_FIELD:
        return field.from_int(rng.randrange(1, p))
    if field.kind == FINITE_EXTENSION:
        value = Fq((rng.randrange(p), rng.randrange(p)), p, field.modulus, "s")
        return value or field.one()
    value = RatFunc(tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))),
                    rng.choice([(1,), (1, 1), (0, 1), (2, 0, 1)]), p, "t")
    return value or field.one()


def matrix(rng: random.Random, field: FieldDescriptor) -> list[list]:
    """A random matrix of public elements, sometimes with dependent rows."""
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
    rows = [[element(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.4:
        c = element(rng, field) or field.one()
        rows.append([a + c * b for a, b in zip(rows[0], rows[-1])])
    return rows


def is_stored(field: FieldDescriptor, c) -> bool:
    if field.kind == RATIONALS:
        return type(c) is int or (type(c) is Fraction and c.denominator != 1)
    if field.kind == PRIME_FIELD:
        return type(c) is int and 0 <= c < field.characteristic
    return type(c) is (Fq if field.kind == FINITE_EXTENSION else RatFunc)


def assert_stored(field: FieldDescriptor, rows: list[list]) -> None:
    for row in rows:
        assert all(is_stored(field, c) for c in row), row


def matrices(name: str):
    field = FIELDS[name]
    rng = random.Random(f"stored-{name}")
    return field, [matrix(rng, field) for _ in range(80)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_row_reduce_and_kernel_match_the_public_routines(name):
    field, cases = matrices(name)
    ranks = set()
    for rows in cases:
        ncols = len(rows[0]) if rows else 3
        stored = [stored_row(field, row) for row in rows]
        rref = row_reduce(stored, field)
        kernel = matrix_kernel(stored, ncols, field)
        assert_stored(field, rref)
        assert_stored(field, kernel)
        assert [public_row(field, row) for row in rref] == public_row_reduce(rows, field)
        assert ([public_row(field, row) for row in kernel]
                == public_matrix_kernel(rows, ncols, field))
        ranks.add(len(rref))
    assert {0, 1, 2, 3} <= ranks


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_each_echelon_step_matches_the_public_routine(name):
    """Row by row: the same pivot (or None) and the same basis."""
    field, cases = matrices(name)
    for rows in cases:
        stored: dict[int, list] = {}
        public: dict[int, list] = {}
        for row in rows:
            lead = echelon_add(stored, stored_row(field, row), field)
            assert lead == public_echelon_add(public, row, field)
            assert_stored(field, stored.values())
            assert {col: public_row(field, r) for col, r in stored.items()} == public


def test_f_p_rows_may_come_in_unreduced():
    """Over F_p the added vector's entries may be any ints."""
    for field in (F2, F3, F5):
        p = field.characteristic
        rng = random.Random(f"unreduced-{p}")
        for _ in range(40):
            rows = [[rng.randint(-3 * p, 3 * p) for _ in range(4)]
                    for _ in range(rng.randint(1, 4))]
            reduced = [[c % p for c in row] for row in rows]
            assert row_reduce(rows, field) == row_reduce(reduced, field)
            assert_stored(field, row_reduce(rows, field))


def test_native_inverse_is_the_stored_form_of_the_inverse():
    for name, field in FIELDS.items():
        rng = random.Random(f"inverse-{name}")
        for _ in range(30):
            c = element(rng, field) or field.one()
            inverse = field.native_inverse(field.to_native(c))
            assert is_stored(field, inverse), (name, inverse)
            assert field.to_public(inverse) == field.one() / c
    assert type(QQ.native_inverse(-1)) is int
    assert QQ.native_inverse(Fraction(1, 3)) == 3
    assert type(QQ.native_inverse(Fraction(1, 3))) is int


# ---------------------------------------------------------------------------
# sympy
# ---------------------------------------------------------------------------


def sympy_rows(rows: list[list]) -> list[list]:
    """The nonzero rows of sympy's reduced echelon form over Q."""
    rref, pivots = sympy.Matrix(rows).rref()
    return [list(rref.row(i)) for i in range(len(pivots))]


def rational_rows(rows: list[list]) -> list[list]:
    return [[sympy.Rational(c.numerator, c.denominator) for c in row]
            for row in rows]


def test_over_q_sympy_gives_the_same_echelon_form_and_null_space():
    rng = random.Random("sympy-Q")
    for _ in range(80):
        rows = matrix(rng, QQ)
        if not rows:
            continue
        ncols = len(rows[0])
        stored = [stored_row(QQ, row) for row in rows]
        assert rational_rows(row_reduce(stored, QQ)) == sympy_rows(rational_rows(rows))
        assert (rational_rows(matrix_kernel(stored, ncols, QQ))
                == [list(v) for v in sympy.Matrix(rational_rows(rows)).nullspace()])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_over_gf_p_sympy_gives_the_same_echelon_form(p):
    field, domain = FieldDescriptor.prime_field(p), sympy.GF(p)
    rng = random.Random(f"sympy-GF{p}")
    for _ in range(80):
        ncols = rng.randint(1, 7)
        rows = [[rng.randrange(p) for _ in range(ncols)]
                for _ in range(rng.randint(1, 6))]
        rref, pivots = DomainMatrix(
            [[domain(c) for c in row] for row in rows], (len(rows), ncols),
            domain).rref()
        expected = [[int(c) % p for c in row]
                    for row in rref.to_list()[:len(pivots)]]
        assert row_reduce(rows, field) == expected


# ---------------------------------------------------------------------------
# directrix rows
# ---------------------------------------------------------------------------


def random_forms(rng: random.Random, field: FieldDescriptor) -> list[Polynomial]:
    """One or two forms of one degree in x, y, z: a product of powers of
    random linear forms, plus sometimes a monomial."""
    variables, degree = ("x", "y", "z"), rng.randint(1, 4)
    units = [tuple(int(j == i) for j in range(3)) for i in range(3)]
    forms = []
    for _ in range(rng.randint(1, 2)):
        f = Polynomial.constant(field, variables, element(rng, field) or field.one())
        left = degree
        while left:
            k = rng.randint(1, left)
            row = [element(rng, field) for _ in range(3)]
            if not any(row):
                row[rng.randrange(3)] = field.one()
            f = f * Polynomial.from_vectors(field, variables, dict(zip(units, row))) ** k
            left -= k
        if rng.random() < 0.3:
            vec = [0, 0, 0]
            for _ in range(degree):
                vec[rng.randrange(3)] += 1
            f = f + Polynomial.from_vectors(field, variables, {tuple(vec): field.one()})
        if not f.is_zero:
            forms.append(f)
    return forms or [Polynomial.variable(field, variables, "x")]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_directrix_rows_match_the_public_rows_on_every_path(name):
    field = FIELDS[name]
    rng = random.Random(f"directrix-rows-{name}")
    paths = set()
    for _ in range(40):
        forms = random_forms(rng, field)
        rows = lf._directrix_rows(forms)
        assert [public_row(field, row) for row in rows] == public_directrix_rows(forms)
        assert ([public_row(field, row) for row in row_reduce(rows, field)]
                == public_row_reduce(public_directrix_rows(forms), field))
        p = field.characteristic
        paths.add("monomial" if all(len(f.vectors) == 1 for f in forms)
                  else "ridge" if p and max(int(f.total_degree()) for f in forms) >= p
                  else "derivative")
    assert "derivative" in paths
    if field.characteristic and field.characteristic <= 3:
        assert "ridge" in paths


def test_the_f9_directrix_forms_of_a_square_are_its_root():
    """Over F_9 = F_3[s]/(s^2 + 1) the directrix of (x + s*y)^2 is
    x + s*y, on the linear derivatives, and so is that of
    (x + s*y)^3 = x^3 - s*y^3, on the ridge, whose condition takes the cube
    root s of -s."""
    s = F9.generator()
    for k in (2, 3):
        form = Polynomial.from_vectors(F9, ("x", "y", "z"), {
            (1, 0, 0): F9.one(), (0, 1, 0): s}) ** k
        r, [linear] = lf.compute_directrix([form], lf.Frame(("x", "y", "z"), ()))
        assert r == 1
        assert linear.coefficient_map() == {(1, 0, 0): F9.one(), (0, 1, 0): s}


def test_every_f_p_point_of_the_kernel_leaves_the_forms_invariant():
    """The kernel of the stored directrix rows over F_p is the set of
    translations that leave the forms invariant (brute force)."""
    for field in (F2, F3):
        p = field.characteristic
        rng = random.Random(f"kernel-points-{p}")
        for _ in range(15):
            forms = random_forms(rng, field)
            rref = row_reduce(lf._directrix_rows(forms), field)
            basis = matrix_kernel(rref, 3, field)
            span = {tuple(sum(a * v[i] for a, v in zip(coeffs, basis)) % p
                          for i in range(3))
                    for coeffs in product(range(p), repeat=len(basis))}
            invariant = {w for w in product(range(p), repeat=3)
                         if all(lf.translation_invariant(f, list(w)) for f in forms)}
            assert span == invariant, [str(f) for f in forms]
