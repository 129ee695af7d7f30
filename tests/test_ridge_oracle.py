"""The ridge and the directrix against the earlier implementation.

``compute_ridge`` builds the derivative closure, the ideal slices, the choice
of sigmas and the containment certificate on one reduced-echelon routine
(``echelon_add``) over fixed monomial columns, and reads each slice's
additive forms from the rows whose pivot is a pure q-th power.  The earlier
code, which ran a separate elimination for each of these and found the
additive forms through a kernel, is kept below as the oracle.  On the
initial forms of every chart of the named traces and on seeded random
homogeneous forms over Q, F_2, F_3, F_5, F_2(t) and F_3(t), both sides must
give the same ``compute_directrix`` result, and the two ridges must generate
the same ideal degree by degree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

import pytest

from surfres import local_frame as lf
from surfres.exact_algebra import (
    RATIONAL_FUNCTIONS,
    RATIONALS,
    FieldDescriptor,
    InputError,
    Polynomial,
    RatFunc,
    ScopeError,
    hasse_derivative,
)
from surfres.local_frame import (
    Frame,
    compute_directrix,
    compute_ridge,
    initial_form,
    matrix_kernel,
    monomials_of_degree,
    row_reduce,
)
from surfres.resolution_driver import FRESH_LABELS, initial_chart, resolve

from oracles import Monomial, coefficient, make, terms
from test_invariant import whirl_chart

QQ = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
F5 = FieldDescriptor.prime_field(5)
F2T = FieldDescriptor.rational_functions(2, "t")
F3T = FieldDescriptor.rational_functions(3, "t")
XYZ = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the earlier implementation (the oracle)
# ---------------------------------------------------------------------------


def old_row_reduce(rows, field):
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = field.one() / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivots.append((rank, col))
        rank += 1
    return [mat[r] for r, _ in pivots]


def old_matrix_kernel(rows, ncols, field):
    rref = old_row_reduce(rows, field) if rows else []
    pivot_cols = []
    for r in rref:
        for c, x in enumerate(r):
            if x:
                pivot_cols.append(c)
                break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in zip(rref, pivot_cols):
            vec[pc] = -r[fc]
        basis.append(vec)
    return basis


def old_reduce_vector(vec, echelon, field):
    out = list(vec)
    for row in echelon:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None and out[lead]:
            factor = out[lead]
            out = [a - factor * b for a, b in zip(out, row)]
    return out


def old_exponent_maps(total, variables):
    if not variables:
        if total == 0:
            yield {}
        return
    head, rest = variables[0], variables[1:]
    for e in range(total + 1):
        for tail in old_exponent_maps(total - e, rest):
            if e:
                tail[head] = e
            yield tail


def old_derivative_closure(initials):
    field = initials[0].field
    variables = initials[0].variables
    pending = [f for f in initials if not f.is_zero]
    monos: dict[int, list[Monomial]] = {}
    rows: dict[int, list[list[Any]]] = {}

    def add(f):
        d = int(f.total_degree())
        mlist = monos.setdefault(d, [])
        tm = dict(terms(f))
        for m in tm:
            if m not in mlist:
                mlist.append(m)
                for row in rows.get(d, []):
                    row.append(field.zero())
        vec = [tm.get(m, field.zero()) for m in mlist]
        ech = rows.setdefault(d, [])
        red = old_reduce_vector(vec, ech, field)
        lead = next((c for c, x in enumerate(red) if x), None)
        if lead is None:
            return False
        inv = field.one() / red[lead]
        red = [x * inv for x in red]
        for i, row in enumerate(ech):
            if row[lead]:
                factor = row[lead]
                ech[i] = [a - factor * b for a, b in zip(row, red)]
        ech.append(red)
        return True

    while pending:
        f = pending.pop()
        if f.is_zero or f.is_constant():
            continue
        if not add(f):
            continue
        d = int(f.total_degree())
        supp = sorted(f.support_variables())

        def gen_orders(idx, remaining, current):
            if idx == len(supp):
                if current:
                    yield dict(current)
                return
            v = supp[idx]
            for e in range(remaining + 1):
                if e:
                    current[v] = e
                yield from gen_orders(idx + 1, remaining - e, current)
                if e:
                    del current[v]

        for a in gen_orders(0, d - 1, {}):
            df = hasse_derivative(f, a)
            if not df.is_zero and not df.is_constant():
                pending.append(df)

    out: dict[int, list[Polynomial]] = {}
    for d, mlist in monos.items():
        basis = []
        for row in rows.get(d, []):
            term_map = {m: c for m, c in zip(mlist, row) if c}
            if term_map:
                basis.append(make(field, variables, term_map))
        if basis:
            out[d] = basis
    return out


def old_p_power_degrees(max_degree, p):
    if p == 0:
        return [1] if max_degree >= 1 else []
    out = [1]
    q = p
    while q <= max_degree:
        out.append(q)
        q *= p
    return out


def old_all_monomials(variables, degree):
    if degree == 0:
        return [Monomial()]
    out = []

    def rec(idx, remaining, current):
        if idx == len(variables) - 1:
            current[variables[idx]] = remaining
            out.append(Monomial.from_dict(current))
            del current[variables[idx]]
            return
        for e in range(remaining + 1):
            if e:
                current[variables[idx]] = e
            rec(idx + 1, remaining - e, current)
            if e:
                del current[variables[idx]]

    rec(0, degree, {})
    return out


def old_ideal_slice(generators, degree, field, variables):
    spanning = []
    for g in generators:
        d = int(g.total_degree())
        if d > degree:
            continue
        for m in old_all_monomials(variables, degree - d):
            spanning.append(g * make(field, variables, {m: field.one()}))
    if not spanning:
        return []
    monos = old_all_monomials(variables, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for f in spanning:
        row = [field.zero()] * len(monos)
        for m, c in terms(f):
            row[index[m]] = c
        rows.append(row)
    basis = []
    for row in old_row_reduce(rows, field):
        term_map = {m: c for m, c in zip(monos, row) if c}
        basis.append(make(field, variables, term_map))
    return basis


def old_in_span(f, basis, field):
    monos = []
    for g in list(basis) + [f]:
        for m, _ in terms(g):
            if m not in monos:
                monos.append(m)
    rows = []
    for g in basis:
        tm = dict(terms(g))
        rows.append([tm.get(m, field.zero()) for m in monos])
    ech = old_row_reduce(rows, field) if rows else []
    tm = dict(terms(f))
    vec = old_reduce_vector([tm.get(m, field.zero()) for m in monos], ech, field)
    return not any(vec)


def old_compute_ridge(initials):
    gens = [f for f in initials if not f.is_zero]
    if not gens:
        return []
    field = gens[0].field
    variables = gens[0].variables
    for f in gens:
        if len({m.degree() for m, _ in terms(f)}) != 1:
            raise InputError(f"ridge input is not homogeneous: {f}")
    degree = max(int(f.total_degree()) for f in gens)
    if degree > lf.MAX_DIRECTRIX_DEGREE:
        raise ScopeError(
            f"the directrix of an initial form of degree {degree} is over the "
            f"limit of {lf.MAX_DIRECTRIX_DEGREE} (MAX_DIRECTRIX_DEGREE)")
    closure = old_derivative_closure(gens)
    if not closure:
        return []
    p = field.characteristic
    max_degree = max(closure)
    n = len(variables)
    closure_basis = [f for fs in closure.values() for f in fs]

    chosen = []
    for q in old_p_power_degrees(max_degree, p):
        basis = old_ideal_slice(closure_basis, q, field, variables)
        if not basis:
            continue
        pure = [Monomial.from_dict({v: q}) for v in variables]
        other = []
        for f in basis:
            for m, _ in terms(f):
                if m not in pure and m not in other:
                    other.append(m)
        constraint_rows = [[coefficient(f, m) for f in basis] for m in other]
        kern = old_matrix_kernel(constraint_rows, len(basis), field)
        candidates = []
        for lam in kern:
            vec = [field.zero()] * n
            for coeff, f in zip(lam, basis):
                if coeff:
                    for i, v in enumerate(variables):
                        vec[i] = vec[i] + coeff * coefficient(f, pure[i])
            if any(vec):
                candidates.append(vec)
        if not candidates:
            continue
        lifted = []
        for qj, cj in chosen:
            power = q // qj
            lifted.append([c ** power for c in cj])
        echelon = old_row_reduce(lifted, field) if lifted else []
        for vec in candidates:
            red = old_reduce_vector(vec, echelon, field)
            lead = next((c for c, x in enumerate(red) if x), None)
            if lead is None:
                continue
            inv = field.one() / red[lead]
            red = [x * inv for x in red]
            chosen.append((q, red))
            echelon = old_row_reduce(echelon + [red], field)

    out = []
    for q, vec in chosen:
        nvec = lf._normalize_sigma_vector(vec, field)
        term_map = {
            Monomial.from_dict({v: q}): c for v, c in zip(variables, nvec) if c
        }
        out.append(make(field, variables, term_map))

    for f in closure_basis:
        d = int(f.total_degree())
        slice_basis = old_ideal_slice(out, d, field, variables)
        if not old_in_span(f, slice_basis, field):
            raise RuntimeError(
                "ridge certificate failed: closure element outside the additive ideal"
            )
    return out


def old_compute_directrix(initials, sigmas):
    """The earlier ``compute_directrix`` given ``old_compute_ridge(initials)``."""
    gens = [f for f in initials if not f.is_zero]
    if not gens:
        return 0, []
    field = gens[0].field
    variables = gens[0].variables
    rows = []
    for s in sigmas:
        q = int(s.total_degree())
        vec = [coefficient(s, Monomial.from_dict({v: q})) for v in variables]
        rows.extend(lf._linear_conditions(q, vec, field))
    rref = old_row_reduce(rows, field) if rows else []
    forms = []
    for row in rref:
        term_map = {Monomial.from_dict({v: 1}): c
                    for v, c in zip(variables, row) if c}
        forms.append(make(field, variables, term_map))
    for w in old_matrix_kernel(rref, len(variables), field):
        for f in gens:
            if not lf.translation_invariant(f, w):
                raise RuntimeError(
                    "directrix certificate failed: translation moved an initial form"
                )
    return len(rref), forms


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def outcome(fn, *args) -> Any:
    """The result, or the type and text of the error raised."""
    try:
        return fn(*args)
    except (InputError, ScopeError, RuntimeError) as err:
        return (type(err), str(err))


def check_case(name, initials):
    """Same directrix on both sides, and ridges generating the same ideal."""
    frame = Frame(initials[0].variables, ())
    new_ridge = outcome(compute_ridge, initials)
    old_ridge = outcome(old_compute_ridge, initials)
    if isinstance(old_ridge, tuple):
        assert new_ridge == old_ridge, name
        assert outcome(compute_directrix, initials, frame) == old_ridge, name
        return
    assert not isinstance(new_ridge, tuple), (name, new_ridge)
    assert (outcome(compute_directrix, initials, frame)
            == outcome(old_compute_directrix, initials, old_ridge)), name
    field, variables = initials[0].field, initials[0].variables
    top = max((int(f.total_degree()) for f in initials if not f.is_zero),
              default=0)
    for d in range(1, top + 1):
        assert (old_ideal_slice(new_ridge, d, field, variables)
                == old_ideal_slice(old_ridge, d, field, variables)), (name, d)


def named_trace_cases():
    def surface():
        return initial_chart(QQ, XYZ, "x^2 + y^9*z^10")

    traces = {
        "surface-default": resolve(surface()),
        "surface-fresh": resolve(surface(), label_mode=FRESH_LABELS),
        "crossing-lines-cubic":
            resolve(initial_chart(QQ, XYZ, "z^3 + x^2*y^2*z + x^3*y^3")),
        "two-divisor-chart": resolve(whirl_chart()),
    }
    cases = []
    for name, trace in traces.items():
        for chart in trace.charts.values():
            initials = [initial_form(g, g.variables) for g in chart.generators]
            cases.append((f"{name}:{chart.chart_id}", initials))
    return cases


def _coefficient(rng: random.Random, field: FieldDescriptor):
    """A small random element, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero()
    if field.kind == RATIONALS:
        return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    if field.kind == RATIONAL_FUNCTIONS:
        p = field.characteristic
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))
        den = rng.choice([(1,), (1,), (0, 1)])
        value = RatFunc(num, den, p, "t")
        return value if value else field.one()
    return field.from_int(rng.randint(1, field.characteristic - 1))


def _random_form(rng, field, variables, degree, vars_in_play):
    """A random homogeneous form of the degree in the first ``vars_in_play``
    of some random linear coordinates, so that the directrix is often
    proper; in positive characteristic, sometimes an additive form."""
    n = len(variables)
    lin = []
    for _ in range(vars_in_play):
        row = [_coefficient(rng, field) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = field.one()
        lin.append(make(field, variables, {
            Monomial.from_dict({v: 1}): c for v, c in zip(variables, row) if c}))
    p = field.characteristic
    if p and degree % p == 0 and rng.random() < 0.4:
        q = p
        while degree % (q * p) == 0 and rng.random() < 0.5:
            q *= p
        f = Polynomial.zero(field, variables)
        for v in variables:
            c = _coefficient(rng, field)
            f = f + Polynomial.variable(field, variables, v).scale(c) ** q
        if f.is_zero:
            f = Polynomial.variable(field, variables, variables[0]) ** q
        return f ** (degree // q)
    f = Polynomial.zero(field, variables)
    for exps in monomials_of_degree(vars_in_play, degree):
        c = _coefficient(rng, field)
        if not c:
            continue
        term = Polynomial.constant(field, variables, c)
        for form, e in zip(lin, exps):
            term = term * form ** e
        f = f + term
    if f.is_zero:
        f = lin[0] ** degree
    return f


def random_cases(field: FieldDescriptor, count: int, seed: int):
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = rng.randint(2, 4)
        variables = ("x", "y", "z", "w")[:n]
        degree = rng.randint(1, 5 if n < 4 else 4)
        vars_in_play = rng.randint(1, min(n, 3))
        forms = [_random_form(rng, field, variables, degree, vars_in_play)]
        if rng.random() < 0.3:
            second = rng.randint(1, degree)
            forms.append(_random_form(rng, field, variables, second,
                                      vars_in_play))
        cases.append((f"{field.kind}/{field.characteristic}#{i}", forms))
    return cases


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_named_trace_charts_match_the_earlier_ridge():
    cases = named_trace_cases()
    assert len(cases) > 100
    for name, initials in cases:
        check_case(name, initials)


@pytest.mark.parametrize("field,seed", [
    (QQ, 501), (F2, 502), (F3, 503), (F5, 504), (F2T, 505), (F3T, 506)])
def test_random_forms_match_the_earlier_ridge(field, seed):
    cases = random_cases(field, 30, seed)
    proper = 0
    for name, initials in cases:
        check_case(name, initials)
        r, _forms = compute_directrix(initials, Frame(initials[0].variables, ()))
        proper += 0 < r < len(initials[0].variables)
    assert proper >= 5  # the cases exercise proper directrices


def test_inseparable_ridges_match_the_earlier_ridge():
    # additive forms of degree p and p^2 with coefficients that are not
    # p-th powers, alone and together with a Frobenius power of themselves
    for field in (F2T, F3T):
        p = field.characteristic
        vs = ("u1", "u2", "y")
        t = field.transcendental()
        u1, u2, y = (Polynomial.variable(field, vs, v) for v in vs)
        sigma = y ** p + u1.scale(t) ** p
        cases = [
            [sigma],
            [sigma, sigma ** p] if p * p <= 5 else [sigma],
            [sigma * u2 ** (5 - p)],
            [y ** p + (u1.scale(t) + u2) ** p, u1 ** p],
        ]
        for i, initials in enumerate(cases):
            check_case(f"{field.characteristic}#{i}", initials)


def test_monomials_of_degree_follow_the_earlier_enumeration():
    names = ("a", "b", "c", "d")
    for n in range(1, 5):
        for d in range(0, 7):
            old = list(old_exponent_maps(d, names[:n]))
            new = [{v: e for v, e in zip(names, vec) if e}
                   for vec in monomials_of_degree(n, d)]
            assert new == old
            assert ([Monomial.from_dict(m) for m in new]
                    == old_all_monomials(names[:n], d))


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F3T])
def test_row_reduce_and_kernel_match_the_earlier_elimination(field):
    rng = random.Random(777 + field.characteristic)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[_coefficient(rng, field) for _ in range(ncols)]
                for _ in range(nrows)]
        if rows and rng.random() < 0.3:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        assert row_reduce(rows, field) == old_row_reduce(rows, field)
        assert (matrix_kernel(rows, ncols, field)
                == old_matrix_kernel(rows, ncols, field))
